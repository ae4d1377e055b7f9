"""Shared exception types, and the integer rule that raises one."""
import operator

__all__ = [
    "RumorWalksError",
    "InvalidParameterError",
    "GenerationFailureError",
    "LoadError",
    "ConfigError",
    "FitError",
    "TranscriptCorruptError",
]


class RumorWalksError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RumorWalksError, ValueError):
    """A caller-supplied parameter violates a documented precondition."""


class GenerationFailureError(RumorWalksError, RuntimeError):
    """A randomized graph generator exhausted its retry budget."""


class LoadError(RumorWalksError, ValueError):
    """An edge-list file is malformed or violates a graph invariant."""


class ConfigError(RumorWalksError, ValueError):
    """An experiment config file could not be parsed or validated; ``key``
    names the config key at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class FitError(RumorWalksError, ValueError):
    """A growth-model fit was requested on degenerate sweep data."""


class TranscriptCorruptError(RumorWalksError, RuntimeError):
    """A coupling transcript is internally inconsistent."""


def _integer(value, what: str) -> int:
    """``value`` as an int, by ``operator.index`` (a bool is no integer
    here); else InvalidParameterError naming the setting ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
