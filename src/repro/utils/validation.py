"""Argument-validation helpers.

Small, explicit checkers used by configuration dataclasses across the
package.  They raise :class:`ValueError` with the offending parameter name
so configuration mistakes fail loudly at construction time rather than as
silent NaNs deep inside a Monte-Carlo sweep.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> None:
    """Require ``low <= value <= high`` (or strict when not inclusive)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
