"""Exception hierarchy shared across the package, and the typed read of JSON
config values that raises ``ConfigError``.

Each class carries the exit code the CLI ends with, and there is one class per
code: what went wrong (the asset, the line, the rule) is in the message.
"""

from datetime import date


class MktEffError(Exception):
    """Base class for all package errors."""


class DataError(MktEffError):
    """Invalid or degenerate input data (bad rows, empty panels, zero variance)."""
    exit_code = 3


class ConfigError(MktEffError):
    """Invalid configuration or specification values."""
    exit_code = 2


class NumericalError(MktEffError):
    """Numerical failure during estimation (singular systems, failed factorizations)."""
    exit_code = 4


_KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string",
    list: "a list", date: "an ISO date string",
}


def typed(value, kind, name: str):
    """A parsed JSON ``value`` as ``kind``, or ``ConfigError`` naming ``name``.

    ``kind`` is ``int`` (a bool, a float or ``"3"`` is refused), ``float`` (an
    int is taken), ``bool`` (only true or false), ``str``, ``list``, ``date``
    (an ISO string), or a tuple of the strings allowed.
    """
    if kind is float and type(value) is int:
        value = float(value)
    elif kind is date and type(value) is str:
        try:
            value = date.fromisoformat(value)
        except ValueError:
            pass
    if isinstance(kind, tuple):
        if type(value) is str and value in kind:
            return value
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, kind))}, got {value!r}")
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value
