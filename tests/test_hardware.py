"""Hardware-model tests: reflection, detector, harvester, energy ledger,
tag front end."""

import numpy as np
import pytest

from repro.hardware.detector import EnvelopeDetector
from repro.hardware.energy import EnergyLedger, EnergyModel
from repro.hardware.harvester import EnergyHarvester
from repro.hardware.reflection import ReflectionModulator, ReflectionStates
from repro.hardware.tag import TagFrontEnd


class TestReflectionStates:
    def test_gamma_levels(self):
        s = ReflectionStates(absorb_gamma=0.05, reflect_gamma=0.6,
                             efficiency=1.0)
        assert s.gamma_for(1) == pytest.approx(0.6)
        assert s.gamma_for(0) == pytest.approx(0.05)

    def test_efficiency_scales_gamma(self):
        s = ReflectionStates(reflect_gamma=0.6, efficiency=0.5)
        assert s.gamma_for(1) == pytest.approx(0.3)

    def test_through_energy_conservation(self):
        s = ReflectionStates()
        for chip in (0, 1):
            gamma = s.reflect_gamma if chip else s.absorb_gamma
            assert gamma**2 + s.through_for(chip) ** 2 == pytest.approx(1.0)

    def test_modulation_depth_positive(self):
        assert ReflectionStates().modulation_depth() > 0

    def test_rejects_inverted_states(self):
        with pytest.raises(ValueError):
            ReflectionStates(absorb_gamma=0.7, reflect_gamma=0.6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ReflectionStates(reflect_gamma=1.5)


class TestReflectionModulator:
    def test_waveform_levels(self):
        s = ReflectionStates(absorb_gamma=0.0, reflect_gamma=0.5,
                             efficiency=1.0)
        mod = ReflectionModulator(states=s, samples_per_chip=2)
        wave = mod.reflection_waveform(np.array([1, 0]))
        assert np.allclose(wave, [0.5, 0.5, 0.0, 0.0])

    def test_rejects_bad_spc(self):
        with pytest.raises(ValueError):
            ReflectionModulator(samples_per_chip=0)


class TestEnvelopeDetector:
    def test_scales_with_responsivity(self):
        d1 = EnvelopeDetector(sample_rate_hz=1e5, responsivity=1.0)
        d2 = EnvelopeDetector(sample_rate_hz=1e5, responsivity=2.0)
        x = np.ones(16, dtype=complex)
        assert np.allclose(d2.detect(x), 2 * d1.detect(x))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            EnvelopeDetector(sample_rate_hz=1e5, smoothing_tau_seconds=0.0)


class TestEnergyHarvester:
    def test_linear_region(self):
        h = EnergyHarvester(efficiency=0.5, sensitivity_watt=1e-7)
        assert h.harvested_power(1e-6) == pytest.approx(0.5e-6)

    def test_below_sensitivity_gives_zero(self):
        h = EnergyHarvester(sensitivity_watt=1e-7)
        assert h.harvested_power(1e-8) == 0.0

    def test_saturation_clamps(self):
        h = EnergyHarvester(efficiency=0.5, saturation_watt=1e-3)
        assert h.harvested_power(1.0) == pytest.approx(0.5e-3)

    def test_vectorised(self):
        h = EnergyHarvester(efficiency=1.0, sensitivity_watt=1e-7)
        out = h.harvested_power(np.array([0.0, 1e-6]))
        assert np.allclose(out, [0.0, 1e-6])

    def test_energy_integration(self):
        h = EnergyHarvester(efficiency=1.0, sensitivity_watt=0.0)
        # 1 uW for 1000 samples at 1 kHz = 1 second -> 1 uJ.
        e = h.harvested_energy(np.full(1000, 1e-6), 1000.0)
        assert e == pytest.approx(1e-6)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            EnergyHarvester().harvested_power(-1.0)

    def test_rejects_bad_saturation(self):
        with pytest.raises(ValueError):
            EnergyHarvester(sensitivity_watt=1e-3, saturation_watt=1e-4)


class TestEnergyModel:
    def test_costs_scale_linearly(self):
        m = EnergyModel(tx_bit_joule=1e-9)
        assert m.tx_cost(100) == pytest.approx(1e-7)

    def test_idle(self):
        m = EnergyModel(idle_second_joule=2e-9)
        assert m.idle_cost(3.0) == pytest.approx(6e-9)

    def test_rejects_negative_counts(self):
        m = EnergyModel()
        with pytest.raises(ValueError):
            m.tx_cost(-1)
        with pytest.raises(ValueError):
            m.idle_cost(-0.1)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_bit_joule=-1.0)


class TestEnergyLedger:
    def test_accounting(self):
        led = EnergyLedger()
        led.spend("tx", 2e-9)
        led.spend("rx", 1e-9)
        led.harvest(5e-9)
        assert led.spent_joule == pytest.approx(3e-9)
        assert led.harvested_joule == pytest.approx(5e-9)

    def test_merge(self):
        a, b = EnergyLedger(), EnergyLedger()
        a.spend("tx", 1e-9)
        b.harvest(2e-9)
        a.merge(b)
        assert a.spent_joule == pytest.approx(1e-9)
        assert a.harvested_joule == pytest.approx(2e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyLedger().spend("tx", -1.0)


class TestTagFrontEnd:
    def _front_end(self):
        return TagFrontEnd(
            detector=EnvelopeDetector(sample_rate_hz=1e5),
            states=ReflectionStates(absorb_gamma=0.0, reflect_gamma=0.6,
                                    efficiency=1.0),
        )

    def test_receive_gating_scales_power(self):
        fe = self._front_end()
        x = np.ones(8, dtype=complex)
        quiet = fe.receive_envelope(x)
        gated = fe.receive_envelope(x, own_chip_waveform=np.ones(8))
        assert np.allclose(quiet, 1.0)
        assert np.allclose(gated, 1.0 - 0.36)

    def test_harvest_loses_reflected_fraction(self):
        fe = self._front_end()
        # 1 uW incident keeps the rectifier in its linear region
        # (between sensitivity and saturation).
        x = np.full(1000, np.sqrt(1e-6), dtype=complex)
        e_idle = fe.harvested_energy(x)
        e_tx = fe.harvested_energy(x, own_chip_waveform=np.ones(1000))
        assert e_tx == pytest.approx(e_idle * (1 - 0.36), rel=1e-6)

    def test_shape_mismatch(self):
        fe = self._front_end()
        with pytest.raises(ValueError):
            fe.receive_envelope(np.ones(8, dtype=complex), np.ones(4))
        with pytest.raises(ValueError):
            fe.harvested_energy(np.ones(8, dtype=complex), np.ones(4))

    def test_modulator_binding(self):
        fe = self._front_end()
        mod = fe.modulator(samples_per_chip=4)
        assert mod.states is fe.states
        assert mod.samples_per_chip == 4
