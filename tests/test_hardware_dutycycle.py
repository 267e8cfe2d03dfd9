"""Energy-neutral duty-cycle controller tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.dutycycle import (
    EnergyNeutralController,
    sustainable_packet_rate,
)


def _controller(**kwargs):
    defaults = dict(capacity_joule=4e-7, reserve_joule=5e-8,
                    store_joule=0.0)
    defaults.update(kwargs)
    return EnergyNeutralController(**defaults)


class TestAdmission:
    def test_empty_store_defers(self):
        ctrl = _controller()
        assert not ctrl.admit(1e-8)
        assert ctrl.deferred_ops == 1

    def test_admission_debits_store(self):
        ctrl = _controller(store_joule=2e-7)
        assert ctrl.admit(1e-7)
        assert ctrl.store_joule == pytest.approx(1e-7)
        assert ctrl.admitted_ops == 1

    def test_reserve_is_respected(self):
        ctrl = _controller(store_joule=1.4e-7, reserve_joule=5e-8)
        # 1.4e-7 - 1e-7 = 4e-8 < reserve -> refuse.
        assert not ctrl.admit(1e-7)
        # 1.4e-7 - 9e-8 = 5e-8 == reserve -> allow.
        assert ctrl.admit(9e-8)

    def test_deferral_ratio(self):
        ctrl = _controller(store_joule=2e-7)
        ctrl.admit(1e-7)      # ok
        ctrl.admit(1e-7)      # refused (store 1e-7, reserve 5e-8)
        assert ctrl.deferral_ratio == pytest.approx(0.5)


class TestHarvestAccumulation:
    def test_harvest_clips_at_capacity(self):
        ctrl = _controller()
        ctrl.harvest(1.0)
        assert ctrl.store_joule == ctrl.capacity_joule

    def test_harvest_for_rate_time_product(self):
        ctrl = _controller()
        ctrl.harvest_for(2.0, 5e-8)  # 100 nJ
        assert ctrl.store_joule == pytest.approx(1e-7)


class TestWaitFor:
    def test_zero_when_affordable(self):
        ctrl = _controller(store_joule=3e-7)
        assert ctrl.wait_for(1e-7, 1e-8) == 0.0

    def test_deficit_over_rate(self):
        ctrl = _controller(store_joule=0.0, reserve_joule=5e-8)
        # need 1e-7 + 5e-8 = 1.5e-7 at 5e-8 W -> 3 s.
        assert ctrl.wait_for(1e-7, 5e-8) == pytest.approx(3.0)

    def test_infinite_when_cost_exceeds_capacity(self):
        ctrl = _controller()
        assert ctrl.wait_for(1.0, 1e-6) == float("inf")

    def test_infinite_without_harvest(self):
        ctrl = _controller()
        assert ctrl.wait_for(1e-7, 0.0) == float("inf")


class TestValidation:
    def test_reserve_below_capacity(self):
        with pytest.raises(ValueError):
            EnergyNeutralController(capacity_joule=1e-7, reserve_joule=1e-7)

    def test_store_within_capacity(self):
        with pytest.raises(ValueError):
            EnergyNeutralController(capacity_joule=1e-7, store_joule=2e-7)

    def test_negative_amounts_rejected(self):
        ctrl = _controller()
        with pytest.raises(ValueError):
            ctrl.harvest(-1.0)
        with pytest.raises(ValueError):
            ctrl.can_afford(-1.0)


class TestSustainableRate:
    def test_bound(self):
        # 868 nJ/packet (T2's fd-abort) at 50 nW -> one packet / ~17 s.
        rate = sustainable_packet_rate(868e-9, 50e-9)
        assert rate == pytest.approx(1 / 17.36, rel=0.01)

    def test_early_abort_raises_rate(self):
        income = 50e-9
        hd = sustainable_packet_rate(1587e-9, income)   # T2 hd-arq cost
        fd = sustainable_packet_rate(868e-9, income)    # T2 fd-abort cost
        assert fd > 1.8 * hd

    def test_validation(self):
        with pytest.raises(ValueError):
            sustainable_packet_rate(0.0, 1e-9)


class TestControllerProperties:
    @given(
        events=st.lists(
            st.tuples(st.booleans(), st.floats(0, 2e-7)),
            min_size=0, max_size=50,
        )
    )
    def test_store_always_within_bounds(self, events):
        ctrl = _controller()
        for is_harvest, amount in events:
            if is_harvest:
                ctrl.harvest(amount)
            else:
                ctrl.admit(amount)
            assert 0.0 <= ctrl.store_joule <= ctrl.capacity_joule

    @given(
        events=st.lists(st.floats(0, 1e-7), min_size=1, max_size=30)
    )
    def test_admitted_ops_never_break_reserve(self, events):
        ctrl = _controller(store_joule=2e-7)
        for cost in events:
            before = ctrl.store_joule
            if ctrl.admit(cost):
                assert ctrl.store_joule >= ctrl.reserve_joule - 1e-18
            else:
                assert ctrl.store_joule == before
