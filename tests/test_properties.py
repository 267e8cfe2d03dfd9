"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import (
    integrate_and_dump,
    moving_average,
    single_pole_lowpass,
)
from repro.dsp.ops import repeat_samples
from repro.fullduplex.config import FullDuplexConfig
from repro.fullduplex.protocol import FeedbackProtocol
from repro.hardware.energy import EnergyModel
from repro.mac.fdmac import FullDuplexAbortPolicy
from repro.phy import coding as lc
from repro.phy.crc import append_crc16, check_crc16
from repro.phy.framing import Frame, frame_body_bits, parse_frame

bits_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=256).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
nonempty_bits = st.lists(st.integers(0, 1), min_size=1, max_size=256).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestCodingProperties:
    @given(bits=bits_arrays)
    def test_manchester_roundtrip(self, bits):
        assert np.array_equal(
            lc.manchester_decode(lc.manchester_encode(bits)), bits
        )

    @given(bits=bits_arrays, initial=st.integers(0, 1))
    def test_fm0_roundtrip(self, bits, initial):
        chips = lc.fm0_encode(bits, initial_level=initial)
        assert np.array_equal(lc.fm0_decode(chips, initial_level=initial),
                              bits)

    @given(bits=nonempty_bits)
    def test_manchester_exact_dc_balance(self, bits):
        chips = lc.manchester_encode(bits)
        assert int(chips.sum()) == bits.size

    @given(bits=nonempty_bits, initial=st.integers(0, 1))
    def test_fm0_transition_at_every_boundary(self, bits, initial):
        chips = lc.fm0_encode(bits, initial_level=initial)
        level = initial
        for i in range(bits.size):
            assert chips[2 * i] != level
            level = int(chips[2 * i + 1])


class TestCrcProperties:
    @given(bits=bits_arrays)
    def test_roundtrip(self, bits):
        assert check_crc16(append_crc16(bits))

    @given(bits=nonempty_bits, data=st.data())
    def test_any_single_flip_detected(self, bits, data):
        framed = append_crc16(bits)
        pos = data.draw(st.integers(0, framed.size - 1))
        framed[pos] ^= 1
        assert not check_crc16(framed)


class TestFramingProperties:
    @given(payload=st.binary(min_size=0, max_size=64))
    def test_frame_roundtrip(self, payload):
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        frame = Frame(payload_bits=bits)
        parsed, ok = parse_frame(frame_body_bits(frame))
        assert ok
        assert np.array_equal(parsed.payload_bits, bits)


class TestDspProperties:
    @given(
        xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        window=st.integers(1, 50),
    )
    def test_moving_average_bounded_by_extremes(self, xs, window):
        arr = np.asarray(xs)
        out = moving_average(arr, window)
        assert np.all(out >= arr.min() - 1e-6)
        assert np.all(out <= arr.max() + 1e-6)

    @given(
        xs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100),
        period=st.integers(1, 20),
    )
    def test_integrate_and_dump_preserves_block_sums(self, xs, period):
        arr = np.asarray(xs)
        out = integrate_and_dump(arr, period)
        n = arr.size // period
        if n:
            assert np.allclose(out.sum() * period,
                               arr[: n * period].sum(), atol=1e-6)

    @given(bits=nonempty_bits, factor=st.integers(1, 16))
    def test_repeat_samples_inverse_of_decimation(self, bits, factor):
        wave = repeat_samples(bits, factor)
        back = integrate_and_dump(wave.astype(float), factor)
        assert np.array_equal((back > 0.5).astype(np.uint8), bits)

class TestProtocolProperties:
    @given(
        onset=st.integers(0, 4999),
        packet=st.integers(128, 5000),
        r=st.sampled_from([2, 8, 32, 64, 128]),
        latency=st.integers(0, 64),
    )
    @settings(max_examples=200)
    def test_abort_bit_invariants(self, onset, packet, r, latency):
        if onset >= packet:
            onset = packet - 1
        policy = FullDuplexAbortPolicy(asymmetry_ratio=r,
                                       detection_latency_bits=latency)
        stop = policy.abort_bit(onset, packet)
        if stop is not None:
            assert stop < packet
            assert stop % r == 0
            assert stop > onset  # cannot stop before corruption starts

    @given(
        packet=st.integers(64, 4096),
        onset=st.integers(0, 4095),
        corrupted=st.booleans(),
    )
    @settings(max_examples=200)
    def test_verdict_energy_never_exceeds_full_packet(self, packet, onset,
                                                      corrupted):
        cfg = FullDuplexConfig()
        proto = FeedbackProtocol(config=cfg, energy=EnergyModel())
        detection = min(onset, packet - 1) if corrupted else None
        v = proto.verdict(packet, corrupted, detection)
        assert 0 < v.bits_transmitted <= packet
        assert v.tx_energy_joule <= proto.energy.tx_cost(packet) + 1e-18
        assert v.delivered == (not corrupted)

    @given(slots=st.integers(0, 64), detection=st.integers(0, 10_000))
    def test_feedback_stream_is_ack_prefix_nack_suffix(self, slots, detection):
        cfg = FullDuplexConfig()
        proto = FeedbackProtocol(config=cfg, energy=EnergyModel())
        stream = proto.feedback_stream(slots, detection)
        assert stream.size == slots
        # monotone: once NACK, always NACK
        diffs = np.diff(stream.astype(int))
        assert np.all(diffs <= 0) or stream.size < 2


#: (lanes, samples) batches of finite floats for the batched kernels.
float_batches = st.tuples(
    st.integers(1, 5), st.integers(1, 64), st.integers(0, 2**32 - 1)
).map(
    lambda t: np.random.default_rng(t[2]).uniform(-1e3, 1e3, (t[0], t[1]))
)

#: (lanes, bits) batches of bits.
bit_batches = st.tuples(
    st.integers(1, 5), st.integers(1, 32), st.integers(0, 2**32 - 1)
).map(
    lambda t: np.random.default_rng(t[2]).integers(
        0, 2, (t[0], t[1]), dtype=np.uint8
    )
)

codings = st.sampled_from(["nrz", "manchester", "fm0"])


class TestBatchedFilterProperties:
    """The 2-D filter paths: batch-of-1 == scalar, permutation
    invariance, and shape/dtype preservation — the invariants the
    batched trial engine's equivalence guarantee decomposes into."""

    @given(batch=float_batches, window=st.integers(1, 16))
    def test_moving_average_batch_of_one_and_rows(self, batch, window):
        out = moving_average(batch, window)
        assert out.shape == batch.shape and out.dtype == np.float64
        for row in range(batch.shape[0]):
            scalar = moving_average(batch[row], window)
            assert np.array_equal(out[row], scalar)
            assert np.array_equal(
                moving_average(batch[row][None, :], window)[0], scalar
            )

    @given(batch=float_batches, seed=st.integers(0, 2**16))
    def test_moving_average_lane_permutation(self, batch, seed):
        perm = np.random.default_rng(seed).permutation(batch.shape[0])
        assert np.array_equal(
            moving_average(batch[perm], 4), moving_average(batch, 4)[perm]
        )

    @given(batch=float_batches, alpha_pct=st.integers(1, 100))
    @settings(deadline=None)  # first example pays the scipy import
    def test_single_pole_batch_of_one_and_rows(self, batch, alpha_pct):
        alpha = alpha_pct / 100.0
        out = single_pole_lowpass(batch, alpha)
        assert out.shape == batch.shape and out.dtype == np.float64
        for row in range(batch.shape[0]):
            assert np.array_equal(
                out[row], single_pole_lowpass(batch[row], alpha)
            )

    @given(batch=float_batches, period=st.integers(1, 8))
    def test_integrate_and_dump_batch_of_one_and_rows(self, batch, period):
        out = integrate_and_dump(batch, period)
        assert out.shape == (batch.shape[0], batch.shape[1] // period)
        assert out.dtype == np.float64
        for row in range(batch.shape[0]):
            assert np.array_equal(
                out[row], integrate_and_dump(batch[row], period)
            )


class TestBatchedCodingProperties:
    @given(bits=bit_batches, coding=codings)
    def test_encode_batch_rows_match_scalar(self, bits, coding):
        chips = lc.encode_batch(bits, coding)
        assert chips.dtype == np.uint8
        assert chips.shape == (
            bits.shape[0], bits.shape[1] * lc.CHIPS_PER_BIT[coding]
        )
        for row in range(bits.shape[0]):
            assert np.array_equal(chips[row], lc.encode(bits[row], coding))

    @given(bits=bit_batches, coding=codings, seed=st.integers(0, 2**16))
    def test_encode_batch_lane_permutation(self, bits, coding, seed):
        perm = np.random.default_rng(seed).permutation(bits.shape[0])
        assert np.array_equal(
            lc.encode_batch(bits[perm], coding),
            lc.encode_batch(bits, coding)[perm],
        )


class TestBatchedDecodeProperties:
    @given(bits=bit_batches, coding=codings, seed=st.integers(0, 2**32 - 1))
    def test_soft_decode_batch_rows_match_receiver(self, bits, coding, seed):
        from repro.phy.config import PhyConfig
        from repro.phy.receiver import BackscatterReceiver
        from repro.phy.softdecode import soft_decode_bits_batch

        config = PhyConfig(coding=coding)
        rng = np.random.default_rng(seed)
        chips = lc.encode_batch(bits, coding).astype(float)
        # Noisy-but-positive soft integrals around the chip levels.
        soft = 1.0 + chips + 0.2 * rng.uniform(-1, 1, chips.shape)
        polarity = rng.choice([1, -1], size=bits.shape[0])
        decoded = soft_decode_bits_batch(soft, config, polarity)
        assert decoded.dtype == np.uint8
        assert decoded.shape == bits.shape
        receiver = BackscatterReceiver(config=config)
        for row in range(bits.shape[0]):
            assert np.array_equal(
                decoded[row],
                receiver.soft_decode_bits(soft[row], int(polarity[row])),
            )

    @given(bits=bit_batches, lanes=st.integers(1, 5))
    def test_clean_manchester_chips_resolve_positive_polarity(
        self, bits, lanes
    ):
        # The pilot is a shared prefix: every lane transmits the same
        # pilot bits, so tile one row across the lanes.
        from repro.phy.config import PhyConfig
        from repro.phy.softdecode import resolve_polarity_batch

        config = PhyConfig(coding="manchester")
        pilot = bits[0]
        tiled = np.tile(pilot, (lanes, 1))
        soft = 1.0 + lc.encode_batch(tiled, "manchester").astype(float)
        polarity = resolve_polarity_batch(soft, pilot, config)
        assert polarity.shape == (lanes,)
        assert np.all(polarity == 1)

    @given(bits=bit_batches)
    def test_inverted_manchester_lane_resolves_negative(self, bits):
        from repro.phy.config import PhyConfig
        from repro.phy.softdecode import resolve_polarity_batch

        config = PhyConfig(coding="manchester")
        pilot = bits[0]
        tiled = np.tile(pilot, (bits.shape[0], 1))
        soft = 1.0 + lc.encode_batch(tiled, "manchester").astype(float)
        soft[0] = 3.0 - soft[0]  # reflect lane 0's chips about the mean
        polarity = resolve_polarity_batch(soft, pilot, config)
        assert polarity[0] == -1
        assert np.all(polarity[1:] == 1)

    @given(bits=bit_batches, lanes=st.integers(1, 4))
    def test_fm0_polarity_prefers_positive_on_tie(self, bits, lanes):
        # FM0 is transition-coded: flipping every hard chip preserves
        # the transitions, so both polarities decode identically and
        # the tie must resolve to +1.
        from repro.phy.config import PhyConfig
        from repro.phy.softdecode import resolve_polarity_batch

        config = PhyConfig(coding="fm0")
        pilot = bits[0]
        tiled = np.tile(pilot, (lanes, 1))
        soft = 1.0 + lc.encode_batch(tiled, "fm0").astype(float)
        polarity = resolve_polarity_batch(soft, pilot, config)
        assert np.all(polarity == 1)


class TestBatchedWaveformProperties:
    @given(bits=bit_batches)
    def test_feedback_waveform_rows_match_scalar(self, bits):
        from repro.fullduplex.batch import feedback_waveform_batch
        from repro.fullduplex.config import FullDuplexConfig
        from repro.fullduplex.feedback import feedback_waveform

        config = FullDuplexConfig()
        waves = feedback_waveform_batch(bits, config)
        assert waves.dtype == np.uint8
        assert waves.shape == (
            bits.shape[0],
            bits.shape[1] * config.samples_per_feedback_bit,
        )
        for row in range(bits.shape[0]):
            assert np.array_equal(
                waves[row], feedback_waveform(bits[row], config)
            )

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        count=st.integers(0, 256),
    )
    @settings(max_examples=25)
    def test_ambient_batch_rows_match_scalar(self, seeds, count):
        from repro.ambient import OfdmLikeSource, ToneSource

        for source in (
            OfdmLikeSource(sample_rate_hz=32_000.0, bandwidth_hz=20e3,
                           subcarriers=8),
            ToneSource(sample_rate_hz=32_000.0),
            ToneSource(sample_rate_hz=32_000.0, offset_hz=500.0),
        ):
            batch = source.batch_samples(
                count, [np.random.default_rng(s) for s in seeds]
            )
            assert batch.shape == (len(seeds), count)
            for row, seed in enumerate(seeds):
                assert np.array_equal(
                    batch[row],
                    source.samples(count, np.random.default_rng(seed)),
                )
