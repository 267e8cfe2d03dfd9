"""Reproducible Monte-Carlo experiment driver: serial, parallel or vectorized.

:class:`ExperimentRunner` executes independent trials of a picklable
``trial(spec, rng) -> dict`` function with one of three backends:
``"serial"`` runs trials inline, ``"parallel"`` fans them out over a
``multiprocessing`` pool, and ``"vectorized"`` hands whole chunks of
trial seeds to a batched implementation that runs them as stacked numpy
arrays (:mod:`repro.experiments.batch`).  Reproducibility rests on
:class:`numpy.random.SeedSequence`: the root seed spawns one child
sequence per trial index *before* any work is dispatched, so trial ``i``
sees the same stream no matter which process — or which batch lane —
runs it.  Serial and parallel are **bitwise identical** for every trial
kind, and the vectorized backend matches them bitwise for every
sample-level kind; the ``mac`` kind's vectorized path runs on a slotted
engine that is statistically rather than bitwise equivalent (DESIGN
§7).

Adaptive stopping generalises the ``min_errors`` / ``max_trials`` logic
of :mod:`repro.analysis.ber`: a ``stop_when(records)`` predicate is
evaluated over the *ordered* prefix of results, and the run is truncated
at the earliest trial where it fires.  A parallel run may compute a few
trials beyond that point (they are in flight when the budget is met) but
discards them, keeping serial and parallel outputs identical.

The module also ships four standard trial functions (forward BER,
feedback BER, frame delivery, energy exchange) as module-level
picklable callables, with a per-process stack cache so workers build
each scenario only once.  The fifth standard trial kind — one seeded
MAC contention replication per trial — lives in
:mod:`repro.experiments.mac` (:func:`mac_trial`).  Every standard kind
runs on all three backends.
"""

from __future__ import annotations

import multiprocessing
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.experiments.results import ResultTable
from repro.experiments.spec import ScenarioSpec, ScenarioStack
from repro.utils.rng import ensure_rng, random_bits, spawn_rngs
from repro.utils.validation import check_positive

#: Upper bound on entries in the per-process spec-keyed stack cache.  A
#: campaign grid can visit hundreds of distinct specs; every entry pins
#: sample-rate state, so the cache evicts least-recently-used entries
#: past this cap instead of growing without limit.
MAX_CACHED_STACKS = 32

#: Per-process LRU cache of built stacks, keyed by the (hashable) spec.
_STACK_CACHE: OrderedDict[ScenarioSpec, ScenarioStack] = OrderedDict()


def _stack_for(spec: ScenarioSpec) -> ScenarioStack:
    """Build (or reuse) the simulation stack for ``spec`` in this process.

    An LRU lookup: build on a miss, refresh on a hit, evict the least
    recently used stacks past :data:`MAX_CACHED_STACKS`.  Counted as
    ``runner.stack.build`` / ``.hit`` / ``.evict``.
    """
    stack = _STACK_CACHE.get(spec)
    if stack is None:
        with obs.span("runner.stack.build"):
            stack = spec.build()
        _STACK_CACHE[spec] = stack
        obs.inc("runner.stack.build")
    else:
        _STACK_CACHE.move_to_end(spec)
        obs.inc("runner.stack.hit")
    while len(_STACK_CACHE) > MAX_CACHED_STACKS:
        _STACK_CACHE.popitem(last=False)
        obs.inc("runner.stack.evict")
    return stack


def _invoke(args) -> dict:
    """Pool-side shim: materialise the rng and stamp the trial index."""
    trial, spec, seed_seq, index = args
    rng = ensure_rng(seed_seq)
    record = trial(spec, rng)
    return {"trial": index, **record}


def error_budget(
    min_errors: int, key: str = "errors"
) -> Callable[[list[dict]], bool]:
    """Stop once the summed ``key`` column reaches ``min_errors``.

    The standard BER stopping rule: spend trials until enough errors
    have been observed for a tight estimate, then move on.
    """
    check_positive("min_errors", min_errors)

    def stop(records: list[dict]) -> bool:
        return sum(r[key] for r in records) >= min_errors

    return stop


def precision_budget(
    max_halfwidth: float,
    successes: str = "delivered_packets",
    trials: str = "offered_packets",
) -> Callable[[list[dict]], bool]:
    """Stop once the pooled proportion is known to ``±max_halfwidth``.

    The MAC counterpart of :func:`error_budget`: records carry count
    columns (deliveries and offered packets by default), and the run
    stops at the earliest prefix whose 95 % Wilson interval on the
    pooled ``successes / trials`` proportion is narrower than
    ``2 * max_halfwidth``.  Evaluated over the ordered prefix, so it
    preserves serial == parallel equivalence like every stop rule.

    Caveat: the Wilson interval treats the pooled counts as i.i.d.
    Bernoulli draws.  Packet outcomes *within* one contention
    replication share a collision domain and are positively correlated,
    so the interval understates replication-to-replication variance —
    treat ``max_halfwidth`` as a workload-sizing dial and keep a
    ``min_trials`` floor of several replications, not as an exact
    coverage guarantee.
    """
    from repro.analysis.theory import wilson_interval

    check_positive("max_halfwidth", max_halfwidth)

    def stop(records: list[dict]) -> bool:
        n = sum(r[trials] for r in records)
        k = sum(r[successes] for r in records)
        if n == 0:
            return False
        lo, hi = wilson_interval(k, n)
        return (hi - lo) <= 2.0 * max_halfwidth

    return stop


#: Recognised execution backends.
BACKENDS = ("serial", "parallel", "vectorized")

#: Lanes per batch when ``backend="vectorized"`` and no chunk size is
#: given — bounds peak memory (each lane stages full sample-rate
#: waveforms) while amortising per-batch setup.
DEFAULT_VECTORIZED_CHUNK = 64


@dataclass
class ExperimentRunner:
    """Runs independent trials of one scenario on a chosen backend.

    Attributes
    ----------
    trial:
        Picklable ``trial(spec, rng) -> dict`` callable.  Records from
        one runner must share a key set (they form one table).
    max_trials:
        Hard trial ceiling.
    min_trials:
        Floor before adaptive stopping may trigger.
    stop_when:
        Optional predicate over the ordered record prefix; see
        :func:`error_budget`.
    workers:
        ``<= 1`` runs inline; ``N > 1`` uses an ``N``-process pool
        (ignored by the vectorized backend, which is single-process).
    chunk_size:
        Trials dispatched between stop-rule checks in parallel and
        vectorized modes (defaults: ``2 * workers`` parallel,
        ``DEFAULT_VECTORIZED_CHUNK`` vectorized).
    backend:
        ``"serial"``, ``"parallel"`` or ``"vectorized"``; ``None``
        (default) infers serial/parallel from ``workers``, preserving
        the historical constructor.  ``"vectorized"`` requires the
        trial to have a batched implementation registered in
        :mod:`repro.experiments.batch` (every standard trial kind does).
    """

    trial: Callable[[ScenarioSpec, np.random.Generator], dict]
    max_trials: int = 100
    min_trials: int = 1
    stop_when: Callable[[list[dict]], bool] | None = None
    workers: int = 1
    chunk_size: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        check_positive("max_trials", self.max_trials)
        check_positive("min_trials", self.min_trials)
        if self.min_trials > self.max_trials:
            raise ValueError("min_trials must not exceed max_trials")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )

    def resolved_backend(self) -> str:
        """The backend this runner executes on."""
        if self.backend is not None:
            return self.backend
        return "parallel" if self.workers > 1 else "serial"

    def run(
        self,
        spec: ScenarioSpec,
        seed=0,
        *,
        first_trial: int = 0,
        store=None,
    ) -> ResultTable:
        """Execute up to ``max_trials`` trials of ``spec``.

        ``seed`` may be an int or a :class:`numpy.random.SeedSequence`;
        identical seeds give identical tables at any worker count.

        ``first_trial`` resumes the trial sequence mid-way: trials
        ``first_trial … max_trials-1`` run with exactly the seed
        streams a full run would have given them (the root sequence is
        fast-forwarded by spawning and discarding the first
        ``first_trial`` children), so a resumed run concatenated after
        a prior prefix is bitwise identical to one cold run.  Requires
        ``stop_when`` unset — a stop rule is defined over the full
        record prefix, which a partial run cannot see.

        ``store`` (a :class:`repro.store.ResultStore`) makes the run
        cache-aware: the result is served from the store when present,
        topped up from the longest stored prefix when partially
        present, and stored after computing otherwise.  See
        :func:`repro.store.cached_run` for the full contract (which a
        caller needing hit/miss accounting should use directly).
        """
        if store is not None:
            if first_trial:
                raise ValueError(
                    "first_trial and store are mutually exclusive: the "
                    "store computes resume offsets itself"
                )
            from repro.store.cache import cached_run

            return cached_run(store, self, spec, seed=seed).table
        if not 0 <= first_trial <= self.max_trials:
            raise ValueError(
                "first_trial must be in [0, max_trials], got "
                f"{first_trial} with max_trials={self.max_trials}"
            )
        if first_trial and self.stop_when is not None:
            raise ValueError(
                "first_trial requires stop_when=None: adaptive stopping "
                "is defined over the full record prefix, which a "
                "resumed run cannot evaluate"
            )
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # Child sequences are spawned lazily (per trial / per chunk) so a
        # huge ceiling with an error-budget stop rule costs O(chunk)
        # memory; incremental root.spawn() yields the same children as
        # one up-front root.spawn(max_trials), so results are unchanged.
        if first_trial:
            root.spawn(first_trial)
        backend = self.resolved_backend()
        with obs.span(
            "runner.run",
            backend=backend,
            workers=max(1, self.workers),
            max_trials=self.max_trials,
            first_trial=first_trial,
        ) as sp:
            if backend == "vectorized":
                records = self._run_vectorized(spec, root, first_trial)
            elif backend == "parallel":
                records = self._run_parallel(spec, root, first_trial)
            else:
                records = self._run_serial(spec, root, first_trial)
            sp.note(trials_run=len(records))
            obs.inc("runner.trials", len(records))
            obs.inc(f"runner.runs.{backend}")
        metadata = {
            "scenario": spec.to_dict(),
            "seed": _seed_repr(root),
            "backend": backend,
            "workers": max(1, self.workers),
            "max_trials": self.max_trials,
            "min_trials": self.min_trials,
            "trials_run": len(records),
            "stopped_early": len(records) < self.max_trials - first_trial,
        }
        if first_trial:
            metadata["first_trial"] = first_trial
        table = ResultTable(metadata=metadata)
        table.extend(records)
        return table

    def sweep(
        self,
        spec: ScenarioSpec,
        parameter: str,
        values,
        seed=0,
        aggregate: Callable[[ResultTable], dict] | None = None,
    ) -> ResultTable:
        """Run the trials at each value of one spec field.

        Each sweep point gets an independently spawned seed stream and is
        reduced to a single record by ``aggregate`` (default: the mean of
        every numeric column except ``trial``), prefixed with the swept
        value.
        """
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        reduce = aggregate if aggregate is not None else _mean_aggregate
        values = list(values)
        table = ResultTable(
            metadata={
                "scenario": spec.to_dict(),
                "parameter": parameter,
                "seed": _seed_repr(root),
                "backend": self.resolved_backend(),
                "workers": max(1, self.workers),
            }
        )
        point_trials: list[int] = []
        for value, child in zip(values, root.spawn(len(values))):
            point = self.run(spec.replace(**{parameter: value}), seed=child)
            record = {parameter: value, **reduce(point)}
            # Every sweep point carries its realised trial count: an
            # error-budget stop may truncate one point far below the
            # ceiling, and an aggregate computed over a short record
            # list must be visible as such, not silently comparable to
            # its fully-sampled neighbours.
            record.setdefault("n_trials", len(point))
            point_trials.append(len(point))
            table.append(record)
        table.metadata["point_trials"] = point_trials
        return table

    # -- execution strategies ----------------------------------------------

    def _run_serial(self, spec, root, first_trial=0) -> list[dict]:
        records: list[dict] = []
        for index in range(first_trial, self.max_trials):
            (child,) = root.spawn(1)
            records.append(_invoke((self.trial, spec, child, index)))
            if self._stop_index(records, len(records) - 1) is not None:
                break
        return records

    def _run_parallel(self, spec, root, first_trial=0) -> list[dict]:
        chunk = self.chunk_size or 2 * self.workers
        check_positive("chunk_size", chunk)
        records: list[dict] = []
        obs.set_gauge("runner.pool_workers", self.workers)
        with multiprocessing.Pool(processes=self.workers) as pool:
            for start in range(first_trial, self.max_trials, chunk):
                count = min(chunk, self.max_trials - start)
                batch = [
                    (self.trial, spec, child, start + offset)
                    for offset, child in enumerate(root.spawn(count))
                ]
                checked = len(records)
                with obs.span(
                    "runner.chunk", backend="parallel",
                    start=start, count=count,
                ):
                    records.extend(pool.map(_invoke, batch))
                stop = self._stop_index(records, checked)
                if stop is not None:
                    return records[:stop]
        return records

    def _run_vectorized(self, spec, root, first_trial=0) -> list[dict]:
        # Imported lazily: batch pulls in the full sample-level stack,
        # which serial/parallel runs of synthetic trials never need.
        from repro.experiments.batch import batched_trial_for

        batch_trial = batched_trial_for(self.trial)
        # A batched trial may declare its own sweet spot (the MAC slot
        # loop amortises per-slot cost over lanes and wants big chunks;
        # waveform-staging trials are memory-bound and want small ones).
        preferred = getattr(
            batch_trial, "preferred_chunk", DEFAULT_VECTORIZED_CHUNK
        )
        chunk = self.chunk_size or min(self.max_trials, preferred)
        check_positive("chunk_size", chunk)
        records: list[dict] = []
        for start in range(first_trial, self.max_trials, chunk):
            count = min(chunk, self.max_trials - start)
            with obs.span(
                "runner.chunk", backend="vectorized",
                start=start, count=count,
            ):
                batch = batch_trial(spec, root.spawn(count))
            if len(batch) != count:
                raise ValueError(
                    f"batched trial returned {len(batch)} records for "
                    f"{count} seeds"
                )
            checked = len(records)
            records.extend(
                {"trial": start + offset, **record}
                for offset, record in enumerate(batch)
            )
            stop = self._stop_index(records, checked)
            if stop is not None:
                return records[:stop]
        return records

    def _stop_index(self, records: list[dict], checked: int) -> int | None:
        """Earliest prefix length at which the stop rule fires, if any.

        Only the prefixes longer than ``checked`` are evaluated: the
        shorter ones were checked after an earlier trial or chunk, and a
        stop rule is a pure function of its prefix, so re-checking them
        could never fire.
        """
        if self.stop_when is None:
            return None
        for n in range(max(self.min_trials, checked + 1), len(records) + 1):
            if self.stop_when(records[:n]):
                return n
        return None


def _seed_repr(root: np.random.SeedSequence):
    """JSON-safe representation of the root seed."""
    entropy = root.entropy
    if isinstance(entropy, (int, np.integer)):
        return int(entropy)
    return [int(e) for e in entropy]


def ber_aggregate(table: ResultTable) -> dict:
    """Collapse per-trial error tallies into one exact rate record.

    Sums the ``errors`` and ``bits`` columns and recomputes the rate
    from the totals (never a mean of per-trial ratios).  The sweep and
    campaign drivers stamp ``n_trials`` onto each point themselves, so
    the aggregate only reports the error statistics.
    """
    errors = int(table.sum("errors"))
    bits = int(table.sum("bits"))
    return {
        "errors": errors,
        "bits": bits,
        "rate": errors / bits if bits else 0.0,
    }


def energy_aggregate(table: ResultTable) -> dict:
    """Collapse energy trials into the paper's duty-cycle economics.

    From the per-exchange records: the delivery ratio, the mean energy
    harvested by each side per exchange, the transmitter's energy per
    *delivered* frame (attempt cost over delivery ratio — the quantity
    early abort attacks), the harvest income rate, and the renewal-bound
    sustainable report rate
    (:func:`repro.hardware.dutycycle.sustainable_packet_rate`) scaled to
    reports per hour.  ``energy_per_delivered_joule`` and the rate are
    0.0 when nothing was delivered (mirrors the MAC flattening
    convention) — a dead link sustains no reports.
    """
    from repro.hardware.dutycycle import sustainable_packet_rate

    n = len(table)
    if not n:
        return {
            "delivered": 0.0,
            "harvested_a_joule": 0.0,
            "harvested_b_joule": 0.0,
            "tx_energy_joule": 0.0,
            "energy_per_delivered_joule": 0.0,
            "harvest_rate_watt": 0.0,
            "sustainable_reports_per_hour": 0.0,
        }
    delivery = table.mean("delivered")
    attempt = table.mean("tx_energy_joule")
    airtime = table.mean("airtime_seconds")
    harvested_a = table.mean("harvested_a_joule")
    per_delivered = attempt / delivery if delivery > 0.0 else 0.0
    harvest_rate = harvested_a / airtime if airtime > 0.0 else 0.0
    sustainable = (
        sustainable_packet_rate(per_delivered, harvest_rate) * 3600.0
        if per_delivered > 0.0
        else 0.0
    )
    return {
        "delivered": delivery,
        "harvested_a_joule": harvested_a,
        "harvested_b_joule": table.mean("harvested_b_joule"),
        "tx_energy_joule": attempt,
        "energy_per_delivered_joule": per_delivered,
        "harvest_rate_watt": harvest_rate,
        "sustainable_reports_per_hour": sustainable,
    }


def _mean_aggregate(table: ResultTable) -> dict:
    """Mean of every numeric column except the trial index.

    The realised trial count is *not* part of the aggregate:
    :meth:`ExperimentRunner.sweep` stamps ``n_trials`` onto every sweep
    record itself, so custom aggregates cannot hide an early-stopped
    point.
    """
    out: dict = {}
    for name in table.columns:
        if name == "trial":
            continue
        values = table.column(name)
        if values and all(isinstance(v, (int, float)) for v in values):
            out[name] = float(sum(values) / len(values))
    return out


# ---------------------------------------------------------------------------
# Standard trial functions (picklable module-level callables).
# ---------------------------------------------------------------------------

#: Raw bits exchanged per BER trial (matches the historical harnesses).
BITS_PER_TRIAL = 256


def forward_ber_trial(spec: ScenarioSpec, rng) -> dict:
    """One unframed A→B exchange; returns data-direction error tallies."""
    stack = _stack_for(spec)
    rng_ch, rng_bits, rng_run = spawn_rngs(rng, 3)
    gains = stack.realize(rng_ch)
    data = random_bits(rng_bits, BITS_PER_TRIAL)
    fb = random_bits(
        rng_bits, max(1, BITS_PER_TRIAL // spec.asymmetry_ratio)
    )
    decoded, _, _ = stack.link.run_raw_bits(gains, data, fb, rng=rng_run)
    errors = int(np.count_nonzero(decoded != data))
    return {"errors": errors, "bits": int(data.size),
            "ber": errors / data.size}


def feedback_ber_trial(spec: ScenarioSpec, rng) -> dict:
    """One unframed exchange; returns feedback-direction error tallies."""
    stack = _stack_for(spec)
    rng_ch, rng_bits, rng_run = spawn_rngs(rng, 3)
    gains = stack.realize(rng_ch)
    data = random_bits(rng_bits, BITS_PER_TRIAL)
    fb = random_bits(
        rng_bits, max(1, BITS_PER_TRIAL // spec.asymmetry_ratio)
    )
    _, fb_sent, fb_decoded = stack.link.run_raw_bits(
        gains, data, fb, rng=rng_run
    )
    errors = int(np.count_nonzero(fb_sent != fb_decoded))
    bits = int(fb_sent.size)
    return {"errors": errors, "bits": bits,
            "ber": errors / bits if bits else 0.0}


def frame_delivery_trial(spec: ScenarioSpec, rng) -> dict:
    """One framed exchange (sync + decode + CRC); 1 error = lost frame."""
    from repro.phy.framing import random_frame

    stack = _stack_for(spec)
    # One spawned stream per draw (channel, frame, feedback, run) — the
    # DESIGN §7 lane layout; the feedback stream is separate from the
    # frame's so the feedback realisation cannot depend on the payload
    # length.
    rng_ch, rng_frame, rng_fb, rng_run = spawn_rngs(rng, 4)
    gains = stack.realize(rng_ch)
    payload_bytes = 16
    frame = random_frame(payload_bytes, rng_frame)
    fb = random_bits(
        rng_fb,
        max(1, (payload_bytes * 8 + 64) // spec.asymmetry_ratio),
    )
    exchange = stack.link.run(gains, frame, fb, rng=rng_run)
    ok = exchange.data_delivered and np.array_equal(
        exchange.data_result.frame.payload_bits, frame.payload_bits
    )
    return {"errors": 0 if ok else 1, "bits": 1,
            "delivered": 1.0 if ok else 0.0}


def energy_trial(spec: ScenarioSpec, rng) -> dict:
    """One framed exchange with the energy books kept on both sides.

    Same seed-stream layout as :func:`frame_delivery_trial` (channel,
    frame, feedback, run — DESIGN §7), plus deterministic energy
    accounting: the harvested energy each tag banks during the exchange
    (from the staged incident fields) and the transmitter's spend for
    the over-the-air bits under the default
    :class:`~repro.hardware.energy.EnergyModel`.  Feeds the
    range-versus-duty-cycle campaign via :func:`energy_aggregate`; the
    vectorized backend runs it bitwise-identically through
    :func:`repro.experiments.batch.batch_energy_trials`.
    """
    from repro.hardware.energy import EnergyModel
    from repro.phy.framing import random_frame

    stack = _stack_for(spec)
    rng_ch, rng_frame, rng_fb, rng_run = spawn_rngs(rng, 4)
    gains = stack.realize(rng_ch)
    payload_bytes = 16
    frame = random_frame(payload_bytes, rng_frame)
    fb = random_bits(
        rng_fb,
        max(1, (payload_bytes * 8 + 64) // spec.asymmetry_ratio),
    )
    exchange = stack.link.run(gains, frame, fb, rng=rng_run)
    ok = exchange.data_delivered and np.array_equal(
        exchange.data_result.frame.payload_bits, frame.payload_bits
    )
    model = EnergyModel()
    air_bits = int(exchange.data_bits_sent.size)
    return {
        "delivered": 1.0 if ok else 0.0,
        "harvested_a_joule": float(exchange.harvested_a_joule),
        "harvested_b_joule": float(exchange.harvested_b_joule),
        "tx_energy_joule": float(model.tx_cost(air_bits)),
        "airtime_seconds": air_bits / spec.bit_rate_bps,
    }
