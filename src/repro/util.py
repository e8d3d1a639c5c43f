"""Small shared helpers used across the repro library.

The helpers here are deliberately boring: size parsing/formatting, power-of-
two checks, geometric/arithmetic means used by the experiment tables, and
the lazy re-exports behind the package ``__init__``s.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError

#: Multipliers for the size suffixes accepted by :func:`parse_size`.
_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "KB": 1024,
    "K": 1024,
    "MB": 1024 * 1024,
    "M": 1024 * 1024,
    "GB": 1024 * 1024 * 1024,
    "G": 1024 * 1024 * 1024,
}


def parse_size(size: int | str) -> int:
    """Return a byte count from an ``int`` or a string such as ``"64KB"``.

    >>> parse_size("1KB")
    1024
    >>> parse_size(512)
    512
    """
    if isinstance(size, bool):
        # bool is a subclass of int; parse_size(True) == 1 would be a
        # silently-accepted caller bug, so reject it explicitly.
        raise ConfigurationError(f"size must be an int or str, got {size!r}")
    if isinstance(size, int):
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size}")
        return size
    text = size.strip().upper()
    number_part = text.rstrip("KMGB")
    suffix = text[len(number_part):]
    if suffix not in _SIZE_SUFFIXES:
        raise ConfigurationError(f"unknown size suffix in {size!r}")
    try:
        value = float(number_part)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse size {size!r}") from exc
    if value < 0:
        # Same rule as the int path: "-1KB" must not parse to -1024.
        raise ConfigurationError(f"size must be non-negative, got {size!r}")
    result = value * _SIZE_SUFFIXES[suffix]
    if result != int(result):
        raise ConfigurationError(f"size {size!r} is not a whole byte count")
    return int(result)


def format_size(nbytes: int) -> str:
    """Render a byte count the way the paper's tables do (``64KB``, ``1MB``).

    >>> format_size(65536)
    '64KB'
    """
    if nbytes < 0:
        raise ConfigurationError(f"size must be non-negative, got {nbytes}")
    for suffix, factor in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
    return f"{nbytes}B"


def is_power_of_two(value: int) -> bool:
    """True when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def require_power_of_two(value: int, name: str) -> int:
    """Validate that *value* is a power of two, returning it unchanged."""
    if not is_power_of_two(value):
        raise ConfigurationError(f"{name} must be a power of two, got {value}")
    return value


def log2_int(value: int) -> int:
    """Exact integer log2 of a power of two."""
    require_power_of_two(value, "value")
    return value.bit_length() - 1


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty input rather than returning NaN."""
    items = list(values)
    if not items:
        raise ConfigurationError("cannot take the mean of no values")
    return sum(items) / len(items)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    items = list(values)
    if not items:
        raise ConfigurationError("cannot take the mean of no values")
    if any(v <= 0 for v in items):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def powers_of_two(start: int, stop: int) -> list[int]:
    """All powers of two in the closed interval [start, stop].

    >>> powers_of_two(1024, 4096)
    [1024, 2048, 4096]
    """
    require_power_of_two(start, "start")
    require_power_of_two(stop, "stop")
    if start > stop:
        raise ConfigurationError(f"start {start} exceeds stop {stop}")
    out = []
    value = start
    while value <= stop:
        out.append(value)
        value *= 2
    return out


def clamp(value: float, lower: float, upper: float) -> float:
    """Clamp *value* into the closed interval [lower, upper]."""
    if lower > upper:
        raise ConfigurationError(f"empty interval [{lower}, {upper}]")
    return max(lower, min(upper, value))


def fraction(part: float, whole: float) -> float:
    """``part / whole`` but 0.0 for an empty whole (traffic of empty runs)."""
    return part / whole if whole else 0.0


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned ASCII table (used by experiment reports)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A PEP 562 module ``__getattr__`` for *package*'s re-exports.

    *exports* maps each module to the names *package* re-exports from
    it. A name's module is imported the first time the name is looked
    up, so importing the package imports none of them.
    """
    where = {n: module for module, names in exports.items() for n in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    return __getattr__
