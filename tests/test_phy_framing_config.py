"""Frame build/parse and PHY-config tests."""

import numpy as np
import pytest

from repro.phy.config import PhyConfig
from repro.phy.framing import (
    Frame,
    body_bits_for_payload,
    build_frame,
    build_frame_chips,
    frame_body_bits,
    parse_frame,
    random_frame,
)
from repro.phy.preamble import (
    BARKER13_BITS,
    default_preamble_bits,
    preamble_template,
    warmup_bits,
)


class TestPreamble:
    def test_warmup_alternates(self):
        assert np.array_equal(warmup_bits(4), [1, 0, 1, 0])

    def test_default_preamble_layout(self):
        pre = default_preamble_bits(warmup=6)
        assert pre.size == 6 + 13
        assert np.array_equal(pre[6:], BARKER13_BITS)

    def test_template_is_line_coded(self):
        tpl = preamble_template("manchester", warmup=4)
        assert tpl.size == 2 * (4 + 13)

    def test_barker_autocorrelation_sidelobes(self):
        seq = BARKER13_BITS.astype(int) * 2 - 1
        full = np.correlate(seq, seq, "full")
        peak = full[len(seq) - 1]
        sidelobes = np.delete(full, len(seq) - 1)
        assert peak == 13
        assert np.max(np.abs(sidelobes)) <= 1


class TestFrame:
    def test_rejects_non_byte_payload(self):
        with pytest.raises(ValueError):
            Frame(payload_bits=np.ones(7, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Frame(payload_bits=np.full(8, 2, dtype=np.uint8))

    def test_payload_bytes(self):
        f = Frame(payload_bits=np.zeros(24, dtype=np.uint8))
        assert f.payload_bytes == 3

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Frame(payload_bits=np.zeros(8 * 256, dtype=np.uint8))


class TestBuildParse:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for size in (0, 1, 16, 255):
            frame = random_frame(size, rng)
            body = frame_body_bits(frame)
            parsed, ok = parse_frame(body)
            assert ok
            assert np.array_equal(parsed.payload_bits, frame.payload_bits)

    def test_body_length_formula(self):
        frame = random_frame(16, rng=1)
        assert frame_body_bits(frame).size == body_bits_for_payload(16)

    def test_full_frame_includes_preamble(self):
        frame = random_frame(4, rng=2)
        bits = build_frame(frame, warmup=8)
        assert bits.size == (8 + 13) + body_bits_for_payload(4)

    def test_chip_stream_length(self):
        frame = random_frame(4, rng=3)
        chips = build_frame_chips(frame, "manchester", warmup=8)
        assert chips.size == 2 * build_frame(frame, warmup=8).size

    def test_parse_detects_corruption(self):
        frame = random_frame(8, rng=4)
        body = frame_body_bits(frame)
        body[12] ^= 1
        _, ok = parse_frame(body)
        assert not ok

    def test_parse_short_stream(self):
        parsed, ok = parse_frame(np.ones(10, dtype=np.uint8))
        assert parsed is None and not ok

    def test_parse_length_field_beyond_stream(self):
        # Claim a 255-byte payload but supply almost nothing after it.
        body = np.concatenate([
            np.ones(8, dtype=np.uint8),  # length = 255
            np.zeros(40, dtype=np.uint8),
        ])
        parsed, ok = parse_frame(body)
        assert parsed is None and not ok

    def test_parse_ignores_trailing_bits(self):
        frame = random_frame(4, rng=5)
        body = np.concatenate([frame_body_bits(frame),
                               np.ones(13, dtype=np.uint8)])
        parsed, ok = parse_frame(body)
        assert ok and np.array_equal(parsed.payload_bits, frame.payload_bits)

    def test_random_frame_bounds(self):
        with pytest.raises(ValueError):
            random_frame(256)


class TestPhyConfig:
    def test_default_derived_quantities(self):
        cfg = PhyConfig()
        assert cfg.chips_per_bit == 2
        assert cfg.chip_rate_hz == pytest.approx(2000.0)
        assert cfg.samples_per_chip == 128
        assert cfg.samples_per_bit == 256

    def test_nrz_has_one_chip_per_bit(self):
        cfg = PhyConfig(coding="nrz")
        assert cfg.chips_per_bit == 1

    def test_rejects_non_integer_ratio(self):
        with pytest.raises(ValueError):
            PhyConfig(sample_rate_hz=250_001.0)

    def test_rejects_too_few_samples_per_chip(self):
        with pytest.raises(ValueError):
            PhyConfig(sample_rate_hz=4_000.0)  # 2 samples/chip

    def test_rejects_unknown_coding(self):
        with pytest.raises(ValueError):
            PhyConfig(coding="plaid")

    def test_detector_delay(self):
        cfg = PhyConfig(smoothing_fraction_of_chip=0.125)
        assert cfg.detector_delay_samples == 16

    def test_rejects_small_warmup(self):
        with pytest.raises(ValueError):
            PhyConfig(warmup_bits=1)
