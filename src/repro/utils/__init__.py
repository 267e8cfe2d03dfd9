"""Shared utilities: unit conversions, random-number helpers, validation.

Everything in :mod:`repro` works in SI units internally (watts, seconds,
hertz, metres).  The :mod:`repro.utils.units` helpers convert to and from
the logarithmic units (dB, dBm) used at API boundaries and in reports.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.units import (
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    watt_to_dbm,
    wavelength,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "check_in_range",
    "check_positive",
    "check_probability",
    "db_to_linear",
    "dbm_to_watt",
    "ensure_rng",
    "linear_to_db",
    "spawn_rngs",
    "watt_to_dbm",
    "wavelength",
]
