"""Validation helper tests."""

import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1e-12)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        check_probability("p", ok)

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", bad)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        check_in_range("x", 1.0, 1.0, 2.0)
        check_in_range("x", 2.0, 1.0, 2.0)

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range("x", 3.0, 1.0, 2.0)
