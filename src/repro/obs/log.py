"""Stdlib-logging setup for the ``repro`` package.

Every module logs through ``logging.getLogger("repro.<module>")``; this
helper attaches one stderr handler to the package root logger so the CLI's
``-v`` / ``--log-level`` flags (and library users) can turn output on with
one call.  Calling it again just updates the level (idempotent — no
duplicate handlers).  The handler looks ``sys.stderr`` up each time it
writes, so it never keeps a stream that was swapped out and closed (a
test runner's capture, say)."""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATEFMT = "%H:%M:%S"


class _StderrHandler(logging.StreamHandler):
    """A stream handler writing to whatever ``sys.stderr`` is when it
    emits."""

    def __init__(self) -> None:
        super().__init__(sys.stderr)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        """Ignored: the stream is always the current ``sys.stderr``."""


def setup_logging(level: int | str = logging.WARNING) -> logging.Logger:
    """Configure the ``repro`` root logger; returns it.

    Args:
        level: a logging level name ("debug", "INFO", ...) or constant.
    """
    if isinstance(level, str):
        numeric = logging.getLevelName(level.upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level {level!r}")
        level = numeric
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATEFMT))
        logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def verbosity_to_level(verbosity: int) -> int:
    """Map ``-v`` count to a logging level (0 -> WARNING, 1 -> INFO,
    2+ -> DEBUG)."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG
