"""Run one part of a benchmark workload in this (fresh) process.

Launched by ``run.py``; not meant to be run by hand.  Prints one JSON
object as its last stdout line.  Set-up is imports, campaign expansion
and one untimed warm-up unit per trial kind; ``ready_cpu_s`` is this
process's CPU time when it ends (interpreter start-up included) and
``ready`` the ``time.monotonic()`` reading then, from which ``run.py``
subtracts its own reading taken just before the launch.

A timed run is two launches that share a hand-off directory: ``--phase
cold`` makes the cold passes and leaves the last pass's store there
with a digest of every cold table; ``--phase rounds`` then times
serial, warm and report samples against that store, the way a user's
later ``repro campaign run`` and ``report`` invocations find it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
from layers import LAYER_OF, LAYERS, STEMS, LayerTrace  # noqa: E402
from repro.campaigns.runner import CampaignRunner  # noqa: E402
from repro.experiments import (  # noqa: E402
    TRIAL_KINDS,
    ExperimentRunner,
    error_budget,
)
from repro.store.codec import encode  # noqa: E402
from repro.store.store import ResultStore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Error budget and floor of the serial BER segment, as ``repro ber``
#: and ``repro sweep`` run it.
SERIAL_MIN_ERRORS = 20
SERIAL_MIN_TRIALS = 5
BER_KINDS = ("forward-ber", "feedback-ber")

#: Trials of each warm-up unit.
WARMUP_TRIALS = 2


def pass_seed(seed: int, index: int) -> int:
    """Campaign seed number ``index`` derived from the run's ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1)
    return int(state[0])


class Ops:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, label: str, ok: bool, why: str = "check failed") -> None:
        self.attempted += 1
        if not ok:
            self.fail(label, why)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")
            print(f"perfbench: {label}: {why}", file=sys.stderr)


class Timer:
    """CPU and wall seconds summed over the ``with`` blocks it times.

    Metrics use CPU seconds of this process (user and system time, so
    the kernel's share of file I/O counts): the workload is
    single-threaded.  Wall seconds, which add the time the process
    waited on the disk or on the machine, are kept in the result file;
    their difference is ``off_cpu`` in the traced run.
    """

    def __init__(self) -> None:
        self.cpu = 0.0
        self.wall = 0.0

    def __enter__(self) -> "Timer":
        self._start = (time.process_time(), time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        self.cpu += time.process_time() - self._start[0]
        self.wall += time.perf_counter() - self._start[1]

    @property
    def off_cpu(self) -> float:
        return self.wall - self.cpu


def digest_of(table) -> str:
    """sha256 of a table's store codec bytes."""
    return hashlib.sha256(encode(table)).hexdigest()


def canonical(records) -> str:
    """Exact text of records (``repr``-precision floats, sorted keys)."""
    return json.dumps(
        [{k: getattr(v, "item", lambda: v)() for k, v in r.items()}
         for r in records],
        sort_keys=True,
    )


class Bench:
    """Set-up state and the timed segments of one workload run."""

    def __init__(self, workload, seed: int, scratch: str):
        self.workload = workload
        self.scratch = scratch
        self.ops = Ops()
        self.campaign = workload.campaign()
        self.run_seed = seed
        self.use_pass(0)
        self.stop_rule = None
        self.cold_digests: dict[str, str] = {}
        self.cold_tables: dict[str, object] = {}
        self.prefixes: dict[tuple[str, int], list[dict]] = {}
        self.warm_up(pass_seed(seed, 1_000_000))

    def use_pass(self, index: int) -> None:
        """Make pass ``index``'s campaign seed and units the current ones."""
        self.seed = pass_seed(self.run_seed, index)
        self.units = self.campaign.units(seed=self.seed)

    def warm_up(self, seed: int) -> None:
        """One untimed vectorized unit per trial kind, outside any store.

        Pays the lazy imports and the first spec's stack and engine
        builds before the first timed pass.
        """
        first = {}
        for unit in self.units:
            first.setdefault(unit.kind, unit)
        for kind, unit in first.items():
            ExperimentRunner(
                trial=TRIAL_KINDS[kind], max_trials=WARMUP_TRIALS,
                backend="vectorized",
            ).run(unit.spec, seed=seed)

    # -- cold pass -----------------------------------------------------------

    def new_runner(self, root: str | None = None):
        """Campaign runner on the store at ``root`` (a new one if None)."""
        if root is None:
            root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return CampaignRunner(
            store=ResultStore(root), backend="vectorized"
        )

    def cold_pass(self, root: str | None = None):
        """``(runner, Timer, trials computed)`` of one cold pass on an
        empty store (at ``root``, or a new temporary one)."""
        runner = self.new_runner(root)
        timer = Timer()
        gc.collect()
        try:
            with timer:
                result = runner.run(self.campaign, seed=self.seed)
        except Exception:
            for unit in self.units:
                self.ops.attempted += 1
                self.ops.fail(f"cold {unit.label()}", traceback.format_exc())
            return runner, timer, 0
        self.cold_digests.clear()
        self.cold_tables.clear()
        for unit, out in result.units:
            ok = (
                out.outcome == "miss"
                and out.trials_computed == unit.n_trials
                and len(out.table) == unit.n_trials
            )
            self.ops.check(f"cold {unit.label()}", ok)
            self.cold_digests[out.key.digest] = digest_of(out.table)
            self.cold_tables[unit.label()] = out.table
        missing = len(self.units) - len(result.units)
        for _ in range(missing):
            self.ops.attempted += 1
            self.ops.fail("cold", "unit missing from the run result")
        return runner, timer, result.trials_computed

    def drop(self, runner) -> None:
        shutil.rmtree(runner.store.root, ignore_errors=True)

    def adopt(self, runner, digests: dict[str, str]) -> None:
        """Take the current pass's cold tables from ``runner``'s store,
        filled by an earlier process whose cold tables had ``digests``.
        Each stored table is checked against its digest."""
        self.cold_digests = dict(digests)
        self.cold_tables.clear()
        for unit in self.units:
            key = unit.key()
            try:
                table = runner.store.get(key)
            except Exception:
                self.ops.attempted += 1
                self.ops.fail(f"stored {unit.label()}", traceback.format_exc())
                continue
            ok = table is not None and digest_of(table) == digests.get(
                key.digest)
            self.ops.check(f"stored {unit.label()}", ok,
                           "stored table differs from the cold pass's")
            if ok:
                self.cold_tables[unit.label()] = table

    # -- serial segment ------------------------------------------------------

    def serial_runner(self, unit):
        trial = TRIAL_KINDS[unit.kind]
        n = self.workload.serial_trials or unit.n_trials
        if unit.kind in BER_KINDS:
            stop = error_budget(SERIAL_MIN_ERRORS)
            if self.stop_rule is not None:
                stop = self.stop_rule(stop)
            return ExperimentRunner(
                trial=trial, max_trials=n,
                min_trials=min(SERIAL_MIN_TRIALS, n), stop_when=stop,
            )
        return ExperimentRunner(trial=trial, max_trials=n)

    def serial_segment(self) -> tuple[Timer, list]:
        """Timer and ``(unit, table)`` pairs of the serial re-runs."""
        timer = Timer()
        runs = []
        for unit in self.units:
            if not self.workload.serial_units(unit):
                continue
            runner = self.serial_runner(unit)
            gc.collect()
            try:
                with timer:
                    table = runner.run(unit.spec, seed=unit.seed)
            except Exception:
                self.ops.attempted += 1
                self.ops.fail(f"serial {unit.label()}", traceback.format_exc())
                continue
            runs.append((unit, table))
        return timer, runs

    def check_serial(self, runs) -> int:
        """Check serial records against the vectorized ones; trial count."""
        for unit, table in runs:
            prefix = self.vectorized_prefix(unit, len(table))
            if unit.kind == "mac":
                # DESIGN §7: the slotted engine replays the simulator's
                # offered workload exactly; the rest is statistical.
                ok = [r["offered_packets"] for r in table.records] == [
                    r["offered_packets"] for r in prefix
                ]
            else:
                ok = canonical(table.records) == canonical(prefix)
            self.ops.check(f"serial {unit.label()}", ok and len(table) > 0)
        return sum(len(table) for _, table in runs)

    def vectorized_prefix(self, unit, n: int) -> list[dict]:
        """First ``n`` vectorized records of ``unit``: from the cold
        pass when its budget covers them, else from an untimed
        vectorized run (records do not depend on the budget), made once
        per unit and budget."""
        cold = self.cold_tables.get(unit.label())
        if cold is not None and len(cold) >= n:
            return cold.records[:n]
        key = (unit.label(), n)
        if key not in self.prefixes:
            self.prefixes[key] = ExperimentRunner(
                trial=TRIAL_KINDS[unit.kind], max_trials=n,
                backend="vectorized",
            ).run(unit.spec, seed=unit.seed).records
        return self.prefixes[key]

    # -- warm passes and reports ---------------------------------------------

    def warm_sample(self, runner, reps: int) -> Timer:
        """Timer of ``reps`` warm passes (every unit a store hit)."""
        results = []
        timer = Timer()
        gc.collect()
        with timer:
            for _ in range(reps):
                try:
                    results.append(runner.run(self.campaign, seed=self.seed))
                except Exception:
                    results.append(traceback.format_exc())
        for result in results:
            if isinstance(result, str):
                for unit in self.units:
                    self.ops.attempted += 1
                    self.ops.fail(f"warm {unit.label()}", result)
                continue
            for unit, out in result.units:
                ok = (
                    out.outcome == "hit"
                    and out.trials_computed == 0
                    and digest_of(out.table)
                    == self.cold_digests.get(out.key.digest)
                )
                self.ops.check(f"warm {unit.label()}", ok)
        return timer

    def report_bytes(self, runner) -> str:
        tables = runner.report(self.campaign, seed=self.seed)
        return "\n".join(
            kind + "\n" + tables[kind].to_json() for kind in sorted(tables)
        )

    def report_sample(self, runner, reps: int, first) -> Timer:
        """Timer of ``reps`` reports; each is checked against ``first``."""
        outputs = []
        timer = Timer()
        gc.collect()
        with timer:
            for _ in range(reps):
                try:
                    outputs.append((self.report_bytes(runner), None))
                except Exception:
                    outputs.append((None, traceback.format_exc()))
        for out, error in outputs:
            self.ops.check(
                "report", out is not None and out == first,
                error or "report bytes differ from the first report",
            )
        return timer

    def first_report(self, runner):
        try:
            return self.report_bytes(runner)
        except Exception:
            self.ops.attempted += 1
            self.ops.fail("report", traceback.format_exc())
            return None


def cold_run(bench: Bench, handoff: str) -> tuple[dict, dict]:
    """Cold-pass metrics (tracing off) and their wall-clock twins.

    The last pass's store is left at ``<handoff>/store`` and its cold
    tables' digests in ``<handoff>/cold.json`` for the rounds launch.
    """
    work = bench.workload
    cold, trials = Timer(), 0
    for index in range(work.cold_passes):
        last = index == work.cold_passes - 1
        bench.use_pass(index)
        runner, timer, computed = bench.cold_pass(
            os.path.join(handoff, "store") if last else None)
        if not last:
            bench.drop(runner)
        cold.cpu += timer.cpu
        cold.wall += timer.wall
        trials += computed
    with open(os.path.join(handoff, "cold.json"), "w") as fh:
        json.dump(bench.cold_digests, fh, sort_keys=True)
    metrics = {"trials_per_s": (trials / cold.cpu, "1/s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    return metrics, {"trials_per_s": (trials / cold.wall, "1/s")}


def rounds_run(bench: Bench, seconds: float,
               handoff: str) -> tuple[dict, dict, dict]:
    """Serial, warm and report metrics (tracing off), their wall-clock
    twins, and the CPU-time samples each median was taken over.

    Works on the store the cold launch left in ``handoff``.  Each round
    times one serial segment, one warm sample and one report sample, so
    all three kinds sample the whole stretch of the run, and the median
    sample of each kind is reported.
    """
    work = bench.workload
    bench.use_pass(work.cold_passes - 1)
    runner = bench.new_runner(os.path.join(handoff, "store"))
    try:
        with open(os.path.join(handoff, "cold.json")) as fh:
            digests = json.load(fh)
    except (OSError, ValueError):
        digests = {}
    bench.adopt(runner, digests)
    first = bench.first_report(runner)
    serial, warm, report = [], [], []
    for _ in range(work.rounds(seconds)):
        timer, runs = bench.serial_segment()
        serial.append((timer, bench.check_serial(runs)))
        warm.append(bench.warm_sample(runner, work.warm_reps))
        report.append(bench.report_sample(runner, work.report_reps, first))

    def measured(clock: str) -> dict:
        def spent(timer: Timer) -> float:
            return getattr(timer, clock)

        return {
            "serial_trials_per_s": (statistics.median(
                trials / spent(t) for t, trials in serial), "1/s"),
            "warm_s": (statistics.median(
                spent(t) / work.warm_reps for t in warm), "s"),
            "report_s": (statistics.median(
                spent(t) / work.report_reps for t in report), "s"),
        }

    samples = {
        "serial_trials_per_s": [trials / t.cpu for t, trials in serial],
        "warm_s": [t.cpu / work.warm_reps for t in warm],
        "report_s": [t.cpu / work.report_reps for t in report],
    }
    return measured("cpu"), measured("wall"), samples


def untraced_cold_s(bench: Bench) -> float:
    """CPU seconds of one untraced cold pass on a fresh store."""
    runner, timer, _ = bench.cold_pass()
    bench.drop(runner)
    return timer.cpu


def traced_run(bench: Bench, trace_path: str) -> tuple[dict, list[str]]:
    """One traced pass: cold pass, serial segment, warm pass, report.

    Returns the per-layer metrics and the coverage problems found.  The
    traced cold pass's CPU seconds are returned as ``traced_cold_s``;
    ``run.py`` divides them by untraced cold passes made in fresh
    processes, which see the same cache state.
    """
    trace = LayerTrace()
    trace.install()
    bench.stop_rule = lambda stop: trace.wrap("experiments.stop_rule", stop)
    with trace.recording("cold"):
        runner, traced_cold, _ = bench.cold_pass()
    with trace.recording("serial"):
        serial, runs = bench.serial_segment()
    bench.check_serial(runs)
    with trace.recording("warm"):
        warm = bench.warm_sample(runner, 1)
    first = bench.first_report(runner)
    with trace.recording("report"):
        report = bench.report_sample(runner, 1, first)
    trace.uninstall()
    bench.stop_rule = None
    bench.drop(runner)
    traced_wall = sum(t.wall for t in (traced_cold, serial, warm, report))
    trace.dump(trace_path)

    stats = trace.self_times()
    metrics: dict[str, tuple] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for stem in STEMS:
        calls, busy = stats[stem]
        metrics[f"{stem}.calls"] = (calls, "count")
        metrics[f"{stem}.self_s"] = (busy, "s")
        layer_self[LAYER_OF[stem]] += busy
    for layer, busy in layer_self.items():
        metrics[f"{layer}.self_s"] = (busy, "s")
    metrics["other.self_s"] = (traced_wall - sum(layer_self.values()), "s")
    metrics["phy.sync.found"] = (trace.sync_found, "count")
    chunks = stats["mac.batch.run_chunk"][0]
    metrics["mac.lanes_per_chunk"] = (
        trace.mac_lanes / chunks if chunks else 0.0, "lanes"
    )
    metrics["store.hit_ratio"] = (trace.hit_ratio("warm"), "1")
    metrics["store.cold_hit_ratio"] = (trace.hit_ratio("cold"), "1")
    metrics["cold_pass.off_cpu_s"] = (traced_cold.off_cpu, "s")
    metrics["warm_pass.off_cpu_s"] = (warm.off_cpu, "s")
    metrics["traced_cold_s"] = (traced_cold.cpu, "s")
    return metrics, coverage_problems(bench.workload, stats, trace)


def coverage_problems(workload, stats, trace) -> list[str]:
    """Callables expected to fire that did not, and bypasses that fired."""
    problems = []
    for stem in workload.fires:
        if stats[stem][0] == 0:
            problems.append(f"{stem} expected to fire on {workload.name} "
                            "but recorded 0 calls (missed patch?)")
    for stem in workload.bypasses:
        if stats[stem][0] != 0:
            problems.append(f"{stem} predicted to be bypassed on "
                            f"{workload.name} but recorded "
                            f"{stats[stem][0]} calls")
    if trace.hit_ratio("warm") != 1.0:
        problems.append("warm pass store hit ratio is not 1.0")
    if trace.hit_ratio("cold") != 0.0:
        problems.append("cold pass store hit ratio is not 0.0")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Versions and thread settings this result was measured with."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = {}  # older numpy: no machine-readable build config
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--handoff", default=None,
                        help="directory shared by the cold and rounds phases")
    parser.add_argument("--phase", choices=("cold", "rounds"), default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--untraced-cold", action="store_true",
                        help="set up, then time one untraced cold pass")
    args = parser.parse_args(argv)
    timed = not (args.setup_only or args.untraced_cold or args.trace)
    if timed and (args.phase is None or args.handoff is None):
        parser.error("a timed run needs --phase and --handoff")

    bench = Bench(WORKLOADS[args.workload], args.seed, args.scratch)
    out = {"ready": time.monotonic(), "ready_cpu_s": time.process_time()}
    if not args.setup_only:
        wall: dict = {}
        samples: dict = {}
        problems: list[str] = []
        if args.untraced_cold:
            metrics = {"cold_s": (untraced_cold_s(bench), "s")}
        elif args.trace:
            metrics, problems = traced_run(bench, args.trace_out)
        elif args.phase == "cold":
            metrics, wall = cold_run(bench, args.handoff)
        else:
            metrics, wall, samples = rounds_run(bench, args.seconds,
                                                args.handoff)
        out.update(
            correct=bench.ops.failed == 0 and not problems,
            attempted=bench.ops.attempted,
            failed=bench.ops.failed,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            wall_metrics={k: v for k, (v, _) in wall.items()},
            samples=samples,
            problems=problems,
            errors=bench.ops.errors,
            env=environment(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
