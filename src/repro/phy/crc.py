"""Cyclic redundancy checks over bit arrays.

A bit-serial implementation of CRC-16-CCITT (poly 0x1021, init 0xFFFF),
operating directly on 0/1 ``uint8`` arrays — the native currency of the
PHY layer.  Bit-serial is exactly how a tag's tiny logic computes it,
and at frame sizes of a few hundred bits the cost is irrelevant.
"""

from __future__ import annotations

import numpy as np


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must contain only 0 and 1")
    return arr.astype(np.uint8)


def crc16(bits) -> np.ndarray:
    """CRC-16-CCITT (poly 0x1021, init 0xFFFF) of a bit array, as 16 bits
    MSB-first."""
    data = _as_bits(bits)
    reg = 0xFFFF
    for b in data:
        reg ^= int(b) << 15
        if reg & 0x8000:
            reg = ((reg << 1) ^ 0x1021) & 0xFFFF
        else:
            reg = (reg << 1) & 0xFFFF
    return np.array([(reg >> (15 - i)) & 1 for i in range(16)], dtype=np.uint8)


def append_crc16(bits) -> np.ndarray:
    """Return ``bits`` with its CRC-16 appended."""
    data = _as_bits(bits)
    return np.concatenate([data, crc16(data)])


def check_crc16(bits_with_crc) -> bool:
    """Validate a bit array whose last 16 bits are its CRC-16."""
    data = _as_bits(bits_with_crc)
    if data.size < 16:
        return False
    body, tail = data[:-16], data[-16:]
    return bool(np.array_equal(crc16(body), tail))
