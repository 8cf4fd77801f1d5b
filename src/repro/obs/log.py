"""Standard-library logging setup for the ``repro`` namespace.

Library code never configures logging: every module asks
:func:`get_logger` for a logger under the ``repro.*`` hierarchy, whose
root carries a :class:`logging.NullHandler` so an embedding application
stays silent unless it opts in.  The CLI opts in via
:func:`setup_cli_logging`, mapping ``-v``/``-vv`` to INFO/DEBUG on a
stderr handler.
"""

from __future__ import annotations

import logging
import sys

#: Root of the library's logger hierarchy.
ROOT_LOGGER = "repro"

# The library must never emit "No handlers could be found" warnings nor
# write anywhere the host application did not ask for.
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())

#: Marker attribute identifying the handler installed by the CLI, so
#: repeated setup calls (tests, REPL use) replace rather than stack it.
_CLI_HANDLER_FLAG = "_repro_cli_handler"


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro.*`` namespace.

    ``get_logger("experiments.runner")`` and
    ``get_logger("repro.experiments.runner")`` name the same logger.
    """
    if name != ROOT_LOGGER and not name.startswith(ROOT_LOGGER + "."):
        name = f"{ROOT_LOGGER}.{name}"
    return logging.getLogger(name)


def setup_cli_logging(verbosity: int) -> logging.Logger:
    """Install (or replace) the CLI console handler on ``sys.stderr``.

    ``verbosity`` 0 shows warnings only, 1 (``-v``) adds INFO,
    2+ (``-vv``) adds DEBUG.  Returns the configured root logger.
    """
    if verbosity <= 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if getattr(handler, _CLI_HANDLER_FLAG, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)-7s %(name)s: %(message)s")
    )
    setattr(handler, _CLI_HANDLER_FLAG, True)
    root.addHandler(handler)
    root.setLevel(level)
    return root
