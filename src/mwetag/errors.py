"""Exception types shared across the package."""

from numbers import Integral


class MweTagError(Exception):
    """Base class for every error this package raises deliberately. A 1-based
    file line, when given, prefixes the message and is kept as ``line``."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(MweTagError):
    """Bad configuration: affix or gazetteer files, run-config files, settings."""


class ParseError(MweTagError):
    """Malformed file content."""


class InputError(MweTagError):
    """Well-formed input that violates an operation's contract."""


def check_int(value: object, name: str) -> None:
    """Refuse a count or index that is not an integer (a Python or numpy
    int; bool is not one), so 2.5 fails here and not deep in a loop."""
    if type(value) is not int and (not isinstance(value, Integral) or isinstance(value, bool)):
        raise InputError(f"{name} must be an integer, got {value!r}")
