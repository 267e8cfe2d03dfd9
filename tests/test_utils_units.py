"""Unit-conversion tests."""

import math

import numpy as np
import pytest

from repro.utils.units import (
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    watt_to_dbm,
    wavelength,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_three_db_doubles(self):
        assert db_to_linear(10 * math.log10(2)) == pytest.approx(2.0)

    def test_roundtrip(self):
        for value in (0.001, 1.0, 42.0, 1e6):
            assert db_to_linear(linear_to_db(value)) == pytest.approx(value)

    def test_array_input(self):
        out = db_to_linear(np.array([0.0, 10.0, 20.0]))
        assert np.allclose(out, [1.0, 10.0, 100.0])

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)


class TestAbsolutePower:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)

    def test_roundtrip(self):
        for dbm in (-100.0, -30.0, 0.0, 20.0):
            assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm)

    def test_watt_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watt_to_dbm(0.0)


class TestWavelength:
    def test_tv_band(self):
        # 539 MHz TV channel -> ~0.556 m.
        assert wavelength(539e6) == pytest.approx(0.556, abs=1e-3)

    def test_relation_to_c(self):
        assert wavelength(1.0) == pytest.approx(SPEED_OF_LIGHT)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wavelength(0.0)
