"""Human-friendly size parsing and formatting (binary units).

The paper labels everything in KB (binary kilobytes) and bytes; these
helpers keep figure axes and configuration strings consistent with it.
:func:`check_count` guards the integer fields of configs that arrive
from the wire.
"""

import re

from repro.common.errors import ConfigurationError

_SUFFIXES = {"": 1, "B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3}

_SIZE_RE = re.compile(r"^\s*(\d+)\s*([KMG]?B?)\s*$", re.IGNORECASE)


def parse_size(text) -> int:
    """Parse ``'8KB'``/``'16B'``/``64`` into a byte count.

    Integers pass through unchanged, so configuration fields can accept
    either form.
    """
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(str(text))
    if match is None:
        raise ConfigurationError(f"cannot parse size {text!r}")
    value, suffix = match.groups()
    return int(value) * _SUFFIXES[suffix.upper()]


def format_size(num_bytes: int) -> str:
    """Format a byte count the way the paper labels its axes.

    >>> format_size(8192)
    '8KB'
    >>> format_size(16)
    '16B'
    """
    for suffix, factor in (("GB", 1024**3), ("MB", 1024**2), ("KB", 1024)):
        if num_bytes >= factor and num_bytes % factor == 0:
            return f"{num_bytes // factor}{suffix}"
    return f"{num_bytes}B"


def check_count(name: str, value, minimum: int = 0) -> None:
    """Raise unless ``value`` is an ``int`` (not ``bool``) >= ``minimum``.

    Config fields such as entry counts are decoded from JSON, where
    ``2.0`` and ``1e400`` are numbers too; either would reach the store
    key as a second spelling of (or no) experiment, so both are refused.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
