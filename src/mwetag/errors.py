"""Exception types shared across the package."""


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
