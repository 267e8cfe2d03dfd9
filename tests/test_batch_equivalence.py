"""Golden equivalence: ``backend="vectorized"`` reproduces ``"serial"``.

This is the contract the batched trial engine is built on (see
:mod:`repro.experiments.batch`): lane *i* of a vectorized run consumes
the same ``SeedSequence.spawn``-derived child streams as serial trial
*i*.  For the sample-level kinds (the BER/frame trials and the energy
exchange) the per-trial records must match — exactly for integer
tallies (bit/error counts), and to ``atol=1e-12`` for derived floats.

The ``mac`` kind runs on the slotted engine
(:class:`repro.mac.batch.SlottedMacEngine`), whose timeline is
quantised to feedback-slot granularity, so its goldens are
*statistical*: lane *i* replays serial trial *i*'s workload realisation
exactly (``offered_packets`` is bitwise), while the contention outcomes
must agree within pinned tolerances — paired-seed Wilson-interval
overlap on pooled delivery plus relative caps on attempts, energy and
latency (DESIGN §7 records the contract).

The full scenario × trial-kind matrix is heavy (every cell stages
sample-level exchanges twice), so it carries the ``slow`` marker and
runs in the full CI job; cheap smoke cells stay in the fast tier-1
suite.
"""

import math

import pytest

from repro.experiments import (
    ExperimentRunner,
    energy_trial,
    error_budget,
    feedback_ber_trial,
    forward_ber_trial,
    frame_delivery_trial,
    get_scenario,
    mac_trial,
)

#: Registry scenarios the golden suite sweeps (ISSUE requires >= 4).
#: Chosen to cover every batched code path: OFDM-like and tone ambient,
#: static and faded channels, compensation on and off, and a non-default
#: asymmetry ratio.
GOLDEN_SCENARIOS = [
    "calibrated-default",
    "fast-short-range",
    "rayleigh-mobile",
    "tone-source",
    "uncompensated",
    "fine-feedback",
]

#: The bitwise-equivalent trial kinds (every kind except ``mac``).
TRIALS = [forward_ber_trial, feedback_ber_trial, frame_delivery_trial,
          energy_trial]

#: The cheapest sample-level registry scenario (4 kbps → fewest samples
#: per bit), used for the fast smoke cell.
SMOKE_SCENARIO = "fast-short-range"


def assert_records_equivalent(serial, vectorized):
    """Per-trial record equality at the acceptance-criteria tolerance."""
    assert len(serial) == len(vectorized), (
        f"record counts differ: {len(serial)} serial vs "
        f"{len(vectorized)} vectorized"
    )
    for i, (s, v) in enumerate(zip(serial, vectorized)):
        assert set(s) == set(v), f"trial {i}: key sets differ"
        for key, sval in s.items():
            vval = v[key]
            if isinstance(sval, float) or isinstance(vval, float):
                assert math.isclose(sval, vval, rel_tol=0.0, abs_tol=1e-12), (
                    f"trial {i}, {key}: {sval!r} != {vval!r}"
                )
            else:
                assert sval == vval, f"trial {i}, {key}: {sval!r} != {vval!r}"


def run_both(trial, spec, seed, max_trials, **kwargs):
    serial = ExperimentRunner(
        trial=trial, max_trials=max_trials, **kwargs
    ).run(spec, seed=seed)
    vectorized = ExperimentRunner(
        trial=trial, max_trials=max_trials, backend="vectorized", **kwargs
    ).run(spec, seed=seed)
    return serial, vectorized


@pytest.mark.parametrize("trial", TRIALS, ids=lambda t: t.__name__)
def test_smoke_equivalence(trial):
    """Tier-1 cell: one cheap scenario, every trial kind."""
    serial, vectorized = run_both(
        trial, get_scenario(SMOKE_SCENARIO), seed=2024, max_trials=3
    )
    assert_records_equivalent(serial.records, vectorized.records)


@pytest.mark.slow
@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
@pytest.mark.parametrize("trial", TRIALS, ids=lambda t: t.__name__)
def test_golden_equivalence_matrix(name, trial):
    """Full matrix: every golden scenario × every standard trial kind."""
    serial, vectorized = run_both(
        trial, get_scenario(name), seed=1337, max_trials=6
    )
    assert serial.metadata["backend"] == "serial"
    assert vectorized.metadata["backend"] == "vectorized"
    assert_records_equivalent(serial.records, vectorized.records)


@pytest.mark.slow
def test_equivalence_survives_early_stop_and_chunking():
    """The stop rule truncates both backends at the same trial, and the
    vectorized chunk size never leaks into the records."""
    spec = get_scenario(SMOKE_SCENARIO).replace(distance_m=1.5)
    kwargs = dict(min_trials=2, stop_when=error_budget(5))
    serial, vectorized = run_both(
        forward_ber_trial, spec, seed=77, max_trials=60,
        chunk_size=7, **kwargs
    )
    assert_records_equivalent(serial.records, vectorized.records)
    rechunked = ExperimentRunner(
        trial=forward_ber_trial, max_trials=60, backend="vectorized",
        chunk_size=3, **kwargs
    ).run(spec, seed=77)
    assert_records_equivalent(serial.records, rechunked.records)


@pytest.mark.slow
def test_vectorized_matches_parallel_too():
    """All three backends agree — vectorized vs parallel closes the
    triangle the serial/parallel suite already covers."""
    spec = get_scenario(SMOKE_SCENARIO)
    parallel = ExperimentRunner(
        trial=forward_ber_trial, max_trials=6, workers=2
    ).run(spec, seed=31)
    vectorized = ExperimentRunner(
        trial=forward_ber_trial, max_trials=6, backend="vectorized"
    ).run(spec, seed=31)
    assert_records_equivalent(parallel.records, vectorized.records)


# ---------------------------------------------------------------------------
# Slotted MAC engine: statistical goldens (DESIGN §7).
# ---------------------------------------------------------------------------

#: (contention preset, policy arm) golden cells — the four contention
#: presets each paired with a distinct policy, so every LinkPolicy code
#: path crosses a different contention regime shape (light load, the
#: collision knee, heavy channel loss, skewed per-link load).
MAC_GOLDEN_CELLS = [
    ("sparse-mac", "hd-arq"),
    ("dense-bursty-mac", "fd-abort"),
    ("lossy-channel-mac", "fd-resume"),
    ("asymmetric-load-mac", "no-arq"),
]

#: Pinned statistical tolerances.  Calibrated against the measured
#: serial/slotted gap on the golden cells at seed 424 (worst observed:
#: attempts +3.7 %, total energy +9.9 %, mean latency +21 %, pooled
#: delivery gap 0.83 pp) with headroom so legitimate refactors don't
#: trip them, but a broken collision/backoff path does.
MAC_ATTEMPTS_REL_TOL = 0.06
MAC_ENERGY_REL_TOL = 0.13
MAC_LATENCY_REL_TOL = 0.30
#: Absolute dilation of each arm's 95 % Wilson interval on pooled
#: delivery before the overlap check — the budget for the slotted
#: engine's collision-geometry bias (a slotted timeline slightly
#: narrows the pairwise vulnerability window, so deep saturation shows
#: a small but systematic delivery offset).
MAC_DELIVERY_SLACK = 0.01


def _pool(table, key):
    return sum(r[key] for r in table.records)


def _rel_close(a, b, tol):
    return abs(b - a) <= tol * max(abs(a), 1e-12)


def assert_mac_statistically_equivalent(serial, vectorized):
    """The slotted-engine contract: exact workload, bounded outcomes."""
    from repro.analysis.theory import wilson_interval

    assert len(serial) == len(vectorized)
    # The workload realisation is replayed bitwise, lane for lane.
    for i, (s, v) in enumerate(zip(serial.records, vectorized.records)):
        assert set(s) == set(v), f"trial {i}: key sets differ"
        assert s["offered_packets"] == v["offered_packets"], f"trial {i}"
        assert s["duration_seconds"] == v["duration_seconds"], f"trial {i}"
    # Pooled contention outcomes agree within the pinned tolerances.
    att_s, att_v = _pool(serial, "attempts"), _pool(vectorized, "attempts")
    assert _rel_close(att_s, att_v, MAC_ATTEMPTS_REL_TOL), (att_s, att_v)
    off = _pool(serial, "offered_packets")
    lo_s, hi_s = wilson_interval(_pool(serial, "delivered_packets"), off)
    lo_v, hi_v = wilson_interval(_pool(vectorized, "delivered_packets"), off)
    assert (max(lo_s, lo_v) - MAC_DELIVERY_SLACK
            <= min(hi_s, hi_v) + MAC_DELIVERY_SLACK), (
        "pooled delivery intervals too far apart: "
        f"serial [{lo_s:.4f}, {hi_s:.4f}] vs "
        f"vectorized [{lo_v:.4f}, {hi_v:.4f}]"
    )
    en_s = _pool(serial, "total_energy_joule")
    en_v = _pool(vectorized, "total_energy_joule")
    assert _rel_close(en_s, en_v, MAC_ENERGY_REL_TOL), (en_s, en_v)
    lat_s = _pool(serial, "latency_sum_seconds")
    lat_v = _pool(vectorized, "latency_sum_seconds")
    if lat_s > 0:
        assert _rel_close(lat_s, lat_v, MAC_LATENCY_REL_TOL), (lat_s, lat_v)


def test_mac_smoke_statistical_equivalence():
    """Tier-1 cell: light contention, short horizon — runs in ~0.1 s."""
    spec = get_scenario("sparse-mac").replace(mac_horizon_seconds=60.0)
    serial, vectorized = run_both(mac_trial, spec, seed=99, max_trials=8)
    assert_mac_statistically_equivalent(serial, vectorized)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,policy", MAC_GOLDEN_CELLS, ids=lambda v: str(v)
)
def test_mac_golden_matrix(name, policy):
    """Full matrix: each contention preset × a rotated policy arm."""
    spec = get_scenario(name).replace(mac_policy=policy)
    serial, vectorized = run_both(mac_trial, spec, seed=424, max_trials=24)
    assert serial.metadata["backend"] == "serial"
    assert vectorized.metadata["backend"] == "vectorized"
    assert_mac_statistically_equivalent(serial, vectorized)


# ---------------------------------------------------------------------------
# Store round-trip: vectorized tables land on serial's result keys.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial_name", ["mac", "energy"])
def test_store_round_trip_shares_result_keys(tmp_path, trial_name):
    """Backend is an execution detail: the content address is the same
    whichever backend produced the table, so a vectorized campaign can
    serve (and be served by) serially-stored results."""
    from repro.store import ResultStore
    from repro.store.cache import cached_run

    if trial_name == "mac":
        trial = mac_trial
        spec = get_scenario("sparse-mac").replace(mac_horizon_seconds=30.0)
        n = 3
    else:
        trial = energy_trial
        spec = get_scenario(SMOKE_SCENARIO)
        n = 2
    serial_store = ResultStore(tmp_path / "serial")
    vec_store = ResultStore(tmp_path / "vectorized")
    done_s = cached_run(
        serial_store,
        ExperimentRunner(trial=trial, max_trials=n),
        spec, seed=5,
    )
    done_v = cached_run(
        vec_store,
        ExperimentRunner(trial=trial, max_trials=n, backend="vectorized"),
        spec, seed=5,
    )
    assert done_s.key == done_v.key
    assert done_s.outcome == done_v.outcome == "miss"
    # Each store now satisfies the *other* backend's request as a hit.
    again = cached_run(
        serial_store,
        ExperimentRunner(trial=trial, max_trials=n, backend="vectorized"),
        spec, seed=5,
    )
    assert again.outcome == "hit"
    assert again.table.records == done_s.table.records
    if trial_name == "energy":  # bitwise kinds: identical stored bytes
        assert done_s.table.records == done_v.table.records


def test_engine_caches_are_lru_bounded(monkeypatch):
    from repro.experiments import batch, runner

    # The batch engines are built over the runner's one stack cache, so
    # that cache bounds everything a vectorized campaign keeps per spec.
    assert batch._stack_for is runner._stack_for
    base = get_scenario(SMOKE_SCENARIO)
    specs = [
        base.replace(distance_m=0.1 * (i + 1))
        for i in range(runner.MAX_CACHED_STACKS + 5)
    ]
    runner._STACK_CACHE.clear()
    for spec in specs[:-1]:
        batch._stack_for(spec)
    assert len(runner._STACK_CACHE) == runner.MAX_CACHED_STACKS
    assert specs[0] not in runner._STACK_CACHE  # oldest four evicted
    assert specs[3] not in runner._STACK_CACHE
    # A hit rebuilds nothing and refreshes recency: specs[4] survives the
    # next eviction, the untouched specs[5] does not.
    with monkeypatch.context() as m:
        m.setattr(type(base), "build", lambda self: pytest.fail("hit rebuilt"))
        batch._stack_for(specs[4])
    batch._stack_for(specs[-1])
    assert specs[4] in runner._STACK_CACHE
    assert specs[5] not in runner._STACK_CACHE
    runner._STACK_CACHE.clear()
