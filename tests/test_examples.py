"""Every example script must run end to end.

Executed in-process via runpy with a scaled-down argv where the script
accepts one, so the suite stays fast while the examples stay green.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "improves the global hit ratio" in out


def test_news_site(capsys):
    run_example("news_site.py", ["--scale", "0.03", "--seed", "3"])
    out = capsys.readouterr().out
    assert "Figure 4a" in out and "Table 2" in out


def test_custom_policy(capsys):
    run_example("custom_policy.py")
    out = capsys.readouterr().out
    assert "sub-lru" in out


def test_subscription_quality(capsys):
    run_example("subscription_quality.py", ["--scale", "0.03", "--seed", "3"])
    out = capsys.readouterr().out
    assert "Most SQ-sensitive strategy" in out


def test_all_examples_are_covered():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    covered = {
        "quickstart.py",
        "news_site.py",
        "custom_policy.py",
        "subscription_quality.py",
    }
    assert scripts == covered, f"untested examples: {scripts - covered}"
