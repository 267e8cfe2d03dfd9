"""Unit conversions and physical constants.

The simulator keeps every quantity linear and SI internally:

* power in watts,
* time in seconds,
* frequency in hertz,
* distance in metres.

Logarithmic units (dB for ratios, dBm for absolute power) appear only at
API boundaries — configuration objects and report formatting — through the
converters in this module.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

#: Speed of light in vacuum [m/s]; used for wavelength / free-space loss.
SPEED_OF_LIGHT = 299_792_458.0


def db_to_linear(value_db: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Convert a ratio in decibels to its linear value.

    Accepts scalars or numpy arrays.

    >>> db_to_linear(3.0103)
    2.0000...
    """
    out: npt.NDArray[np.float64] = np.power(
        10.0, np.asarray(value_db, dtype=np.float64) / 10.0
    )
    return out


def linear_to_db(value: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Convert a linear power ratio to decibels.

    Raises :class:`ValueError` for non-positive inputs, which have no
    logarithm — callers that want a floor should clamp first.
    """
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("linear_to_db requires strictly positive values")
    out: npt.NDArray[np.float64] = 10.0 * np.log10(arr)
    return out


def dbm_to_watt(value_dbm: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Convert absolute power in dBm to watts.

    >>> dbm_to_watt(0.0)
    0.001
    """
    out: npt.NDArray[np.float64] = np.power(
        10.0, (np.asarray(value_dbm, dtype=np.float64) - 30.0) / 10.0
    )
    return out


def watt_to_dbm(value_watt: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Convert absolute power in watts to dBm."""
    arr = np.asarray(value_watt, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("watt_to_dbm requires strictly positive power")
    out: npt.NDArray[np.float64] = 10.0 * np.log10(arr) + 30.0
    return out


def wavelength(frequency_hz: float) -> float:
    """Wavelength [m] of a carrier at ``frequency_hz``.

    >>> round(wavelength(539e6), 3)   # UHF TV channel
    0.556
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz
