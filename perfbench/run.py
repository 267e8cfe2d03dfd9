"""End-to-end campaign benchmark of the full-duplex backscatter reproduction.

Run from the root of a source checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload energy-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in fresh interpreters (a set-up probe, the cold
passes, then rounds of serial, warm and report samples) with BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the last stdout line is one JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up-only launches before the measured ones; ``setup_s`` is the
#: median over all launches of the run.
SETUP_PROBES = 1

#: Every run (all launches) must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: Threading pinned in every child: the ambient synthesis ``phase @
#: coeff`` would otherwise use multithreaded OpenBLAS on a small box.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = ("setup_s", "trials_per_s", "serial_trials_per_s", "warm_s",
              "report_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def source_stamp(root: pathlib.Path) -> dict:
    """Git commit (when run inside a work tree) and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def launch(args: list[str], root, deadline: float) -> tuple[dict, float]:
    """Run the worker to completion; ``(its JSON, launch monotonic time)``."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before a launch")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1]), started


def run_workload(name, seed, seconds, trace, root, deadline) -> dict:
    """One workload run: a set-up probe, then the measured launches.

    A timed run measures in two launches: one makes the cold passes,
    the next times rounds of serial, warm and report samples on the
    store the first one left, as a user's later ``repro`` invocation
    would find it.  Every launch also gives a set-up sample.

    A traced run instead brackets its traced launch with two launches
    that each time one untraced cold pass; ``trace.overhead_ratio``
    compares the traced cold pass with their median.  All three start
    from a fresh process, so their caches are in the same state.
    """
    work_dir = root / ".perfbench"
    tmp_root = work_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    trace_out = work_dir / "traces" / f"{name}-seed{seed}.jsonl"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--scratch", scratch,
            "--trace-out", str(trace_out)]
    try:
        setups, setup_walls, untraced = [], [], []
        for _ in range(0 if trace else SETUP_PROBES):
            out, started = launch(base + ["--setup-only"], root, deadline)
            setups.append(out["ready_cpu_s"])
            setup_walls.append(out["ready"] - started)
        if trace:
            untraced.append(launch(base + ["--untraced-cold"], root,
                                   deadline)[0])
            out, started = launch(base, root, deadline)
            setups.append(out["ready_cpu_s"])
            setup_walls.append(out["ready"] - started)
            untraced.append(launch(base + ["--untraced-cold"], root,
                                   deadline)[0])
        else:
            parts = []
            for phase in ("cold", "rounds"):
                part, started = launch(
                    base + ["--phase", phase, "--handoff", scratch], root,
                    deadline)
                setups.append(part["ready_cpu_s"])
                setup_walls.append(part["ready"] - started)
                parts.append(part)
            out = merge(parts)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = out["metrics"]
    if trace:
        for extra in untraced:
            out["attempted"] += extra["attempted"]
            out["failed"] += extra["failed"]
            out["errors"] += extra["errors"]
        out["correct"] = out["correct"] and out["failed"] == 0
        traced_cold = metrics.pop("traced_cold_s")["value"]
        baseline = statistics.median(e["metrics"]["cold_s"]["value"]
                                     for e in untraced)
        metrics["trace.overhead_ratio"] = {
            "value": traced_cold / baseline - 1.0, "unit": "1"}
        metrics["fail_ratio"] = {
            "value": out["failed"] / max(1, out["attempted"]), "unit": "1"}
        out["untraced_cold_s"] = [e["metrics"]["cold_s"]["value"]
                                  for e in untraced]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}, **metrics}
        out["wall_metrics"]["setup_s"] = statistics.median(setup_walls)
        missing = [m for m in END_TO_END if m not in metrics]
        if missing:
            raise BenchError(f"worker did not report {missing}")
    out["metrics"] = metrics
    out["setup_samples_s"] = {"cpu": setups, "wall": setup_walls}
    return out


def merge(parts: list[dict]) -> dict:
    """One result from the cold and rounds launches of a timed run."""
    out = dict(parts[-1])
    out["correct"] = all(p["correct"] for p in parts)
    for key in ("attempted", "failed"):
        out[key] = sum(p[key] for p in parts)
    for key in ("errors", "problems"):
        out[key] = [e for p in parts for e in p[key]]
    for key in ("metrics", "wall_metrics", "samples"):
        out[key] = {k: v for p in parts for k, v in p[key].items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    stamp = {**source_stamp(root), "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "pinned_env": PINNED_ENV}
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            results[name] = run_workload(
                name, args.seed, args.seconds, args.trace, root, deadline
            )
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        result = {**results[name], "stamp": stamp, "workload": name}
        out_dir = root / ".perfbench" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(json.dumps({"workload": name, "stamp": stamp,
                          "env": result["env"],
                          "problems": result["problems"]}))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {}
        for name, res in results.items():
            for metric, entry in res["metrics"].items():
                metrics[f"{name}/{metric}"] = entry
                print(f"{name:13s} {metric:24s} {entry['value']:.6g} "
                      f"{entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
