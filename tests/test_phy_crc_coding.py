"""CRC and line-code tests."""

import numpy as np
import pytest

from repro.phy.coding import (
    decode,
    encode,
    fm0_decode,
    fm0_encode,
    manchester_decode,
    manchester_encode,
    nrz_decode,
    nrz_encode,
)
from repro.phy.crc import append_crc16, check_crc16, crc16


class TestCrc:
    def test_crc16_known_vector(self):
        # CRC-16-CCITT(0xFFFF) of ASCII "123456789" is 0x29B1.
        data = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        reg = 0
        for b in crc16(data):
            reg = (reg << 1) | int(b)
        assert reg == 0x29B1

    def test_append_and_check_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            bits = rng.integers(0, 2, 64, dtype=np.uint8)
            assert check_crc16(append_crc16(bits))

    def test_detects_single_bit_flip(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        framed = append_crc16(bits)
        for pos in range(framed.size):
            corrupted = framed.copy()
            corrupted[pos] ^= 1
            assert not check_crc16(corrupted)

    def test_detects_burst_errors(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        framed = append_crc16(bits)
        corrupted = framed.copy()
        corrupted[10:20] ^= 1
        assert not check_crc16(corrupted)

    def test_empty_payload(self):
        assert check_crc16(append_crc16(np.empty(0, dtype=np.uint8)))

    def test_too_short_fails(self):
        assert not check_crc16(np.ones(8, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            crc16(np.array([0, 2, 1]))


class TestNrz:
    def test_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(nrz_decode(nrz_encode(bits)), bits)

    def test_one_chip_per_bit(self):
        assert nrz_encode(np.zeros(7, dtype=np.uint8)).size == 7


class TestManchester:
    def test_encoding_pairs(self):
        chips = manchester_encode(np.array([1, 0]))
        assert np.array_equal(chips, [1, 0, 0, 1])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        assert np.array_equal(manchester_decode(manchester_encode(bits)), bits)

    def test_dc_balance(self):
        rng = np.random.default_rng(4)
        chips = manchester_encode(rng.integers(0, 2, 1000, dtype=np.uint8))
        assert chips.mean() == pytest.approx(0.5)

    def test_transition_every_bit(self):
        chips = manchester_encode(np.array([1, 1, 0, 0]))
        pairs = chips.reshape(-1, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_rejects_odd_chip_stream(self):
        with pytest.raises(ValueError):
            manchester_decode(np.array([1, 0, 1]))


class TestFm0:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for initial in (0, 1):
            bits = rng.integers(0, 2, 100, dtype=np.uint8)
            chips = fm0_encode(bits, initial_level=initial)
            assert np.array_equal(fm0_decode(chips, initial_level=initial), bits)

    def test_boundary_transition_always_present(self):
        bits = np.array([1, 1, 0, 1, 0, 0], dtype=np.uint8)
        chips = fm0_encode(bits, initial_level=1)
        level = 1
        for i in range(bits.size):
            assert chips[2 * i] != level  # inversion at every boundary
            level = chips[2 * i + 1]

    def test_zero_has_mid_transition(self):
        chips = fm0_encode(np.array([0]), initial_level=1)
        assert chips[0] != chips[1]

    def test_one_has_no_mid_transition(self):
        chips = fm0_encode(np.array([1]), initial_level=1)
        assert chips[0] == chips[1]

    def test_dc_balance_over_window(self):
        rng = np.random.default_rng(6)
        chips = fm0_encode(rng.integers(0, 2, 2000, dtype=np.uint8))
        # any 8-chip window is within 2 of balance
        sums = np.convolve(chips.astype(int), np.ones(8, int), "valid")
        assert np.all(np.abs(sums - 4) <= 2)

    def test_rejects_bad_initial_level(self):
        with pytest.raises(ValueError):
            fm0_encode(np.array([1]), initial_level=2)


class TestNamedDispatch:
    @pytest.mark.parametrize("coding", ["fm0", "manchester", "nrz"])
    def test_roundtrip_by_name(self, coding):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        assert np.array_equal(decode(encode(bits, coding), coding), bits)

    def test_unknown_coding(self):
        with pytest.raises(ValueError):
            encode(np.array([1]), "4b5b")
        with pytest.raises(ValueError):
            decode(np.array([1]), "4b5b")
