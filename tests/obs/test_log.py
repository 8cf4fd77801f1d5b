"""Logging setup: namespace, NullHandler default, CLI handler."""

import logging

import pytest

from repro.obs.log import ROOT_LOGGER, get_logger, setup_cli_logging


@pytest.fixture(autouse=True)
def _restore_root_logger():
    root = logging.getLogger(ROOT_LOGGER)
    handlers, level = list(root.handlers), root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


def test_get_logger_prefixes_namespace():
    assert get_logger("system.simulator").name == "repro.system.simulator"
    assert get_logger("repro.system.simulator").name == "repro.system.simulator"
    assert get_logger("repro").name == "repro"


def test_root_has_null_handler():
    root = logging.getLogger(ROOT_LOGGER)
    assert any(isinstance(handler, logging.NullHandler) for handler in root.handlers)


@pytest.mark.parametrize(
    "verbosity, level",
    [(0, logging.WARNING), (1, logging.INFO), (2, logging.DEBUG), (5, logging.DEBUG)],
)
def test_verbosity_levels(verbosity, level):
    root = setup_cli_logging(verbosity)
    assert root.level == level


def test_setup_replaces_rather_than_stacks():
    setup_cli_logging(1)
    root = setup_cli_logging(2)
    cli_handlers = [
        handler
        for handler in root.handlers
        if getattr(handler, "_repro_cli_handler", False)
    ]
    assert len(cli_handlers) == 1


def test_messages_reach_the_stream(capsys):
    setup_cli_logging(1)
    get_logger("obs.test").info("hello %d", 42)
    get_logger("obs.test").debug("not at -v")
    text = capsys.readouterr().err
    assert "hello 42" in text
    assert "repro.obs.test" in text
    assert "not at -v" not in text
