"""CLI-side logging setup (library code never configures logging).

One helper, :func:`setup_logging`, installs exactly two handlers on the
root logger:

* records below WARNING go to **stdout** — the CLI's normal output
  channel, so ``repro search ... | tee`` keeps working;
* WARNING and above go to **stderr** — where operators and tests look
  for problems.

The handlers are tagged and torn down on every call, which makes the
helper idempotent (repeated ``main()`` invocations in one process,
as the test suite does, never stack handlers) and re-binds the current
``sys.stdout``/``sys.stderr`` (pytest's capsys swaps them per test).

``json_format=True`` renders each record as one JSON object per line —
the structured-logging counterpart of the run journal, for shipping
CLI output into log pipelines.
"""

from __future__ import annotations

import json
import logging
import sys

#: Attribute tagging the handlers this module owns.
_HANDLER_TAG = "_repro_obs_handler"

LEVELS = ("debug", "info", "warning", "error", "critical")


class _MaxLevelFilter(logging.Filter):
    """Pass only records strictly below a level (stdout's half)."""

    def __init__(self, below: int) -> None:
        super().__init__()
        self.below = below

    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno < self.below


class _StreamHandler(logging.StreamHandler):
    """Lets a closed pipe (``repro report J | head -1``) reach the
    CLI's ``main`` instead of printing a traceback per record."""

    def handleError(self, record: logging.LogRecord) -> None:
        if isinstance(sys.exc_info()[1], BrokenPipeError):
            raise
        super().handleError(record)


class JsonFormatter(logging.Formatter):
    """One JSON object per record: level, logger name, message."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, separators=(",", ":"))


def setup_logging(
    level: str = "info", json_format: bool = False
) -> logging.Logger:
    """Install the CLI's stdout/stderr split handlers on the root logger.

    Returns the root logger.  Raises ``ValueError`` on an unknown level
    name (the CLI maps this to an argparse choice, so users never see
    it).
    """
    if level.lower() not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; choose from {', '.join(LEVELS)}"
        )
    numeric = getattr(logging, level.upper())
    root = logging.getLogger()
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)
    formatter: logging.Formatter = (
        JsonFormatter() if json_format else logging.Formatter("%(message)s")
    )
    out = _StreamHandler(sys.stdout)
    out.setLevel(logging.DEBUG)
    out.addFilter(_MaxLevelFilter(logging.WARNING))
    err = _StreamHandler(sys.stderr)
    err.setLevel(logging.WARNING)
    for handler in (out, err):
        handler.setFormatter(formatter)
        setattr(handler, _HANDLER_TAG, True)
        root.addHandler(handler)
    root.setLevel(numeric)
    return root
