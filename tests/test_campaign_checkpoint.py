"""Campaign checkpoint: a per-unit journal, one snapshot per pass.

A pass appends one line per finished unit to ``<name>.journal`` and
publishes the ``<name>.json`` snapshot once, at the end.  Pinned here:

* checkpoint bytes written per pass grow linearly with the unit count
  (counted, not timed);
* a pass killed with SIGKILL leaves a journal of whole lines (save
  possibly the last), and the next run reports exactly what a clean
  run reports, with a finished snapshot and no journal left behind;
* a truncated snapshot or a torn journal from an earlier pass never
  stops the next one.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.store import ResultStore

TESTS_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _grid_campaign(kind, n_units, n_trials=1):
    return CampaignSpec(
        name="journal-test",
        kinds=(kind,),
        grid={
            "mac_loss_probability": tuple(
                (i + 0.5) / n_units for i in range(n_units)
            )
        },
        n_trials=n_trials,
        seed=5,
    )


def _report_bytes(runner, camp) -> str:
    return "".join(t.to_json() for t in runner.report(camp).values())


def _snapshot(runner, camp) -> dict:
    return json.loads(runner.checkpoint_path(camp).read_text())


class TestCheckpointBytes:
    @staticmethod
    def _bytes_per_pass(monkeypatch, root, camp) -> int:
        """Journal bytes through ``os.write`` plus snapshot bytes."""
        journal_fds: set[int] = set()
        written = [0]
        real_open, real_write = os.open, os.write
        real_atomic = runner_module._atomic_write

        def counting_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if str(path).endswith(".journal"):
                journal_fds.add(fd)
            return fd

        def counting_write(fd, data):
            if fd in journal_fds:
                written[0] += len(data)
            return real_write(fd, data)

        def counting_atomic(path, blob):
            written[0] += len(blob)
            real_atomic(path, blob)

        with monkeypatch.context() as m:
            m.setattr(os, "open", counting_open)
            m.setattr(os, "write", counting_write)
            m.setattr(runner_module, "_atomic_write", counting_atomic)
            CampaignRunner(store=ResultStore(root)).run(camp)
        return written[0]

    def test_bytes_grow_linearly_with_units(
        self, monkeypatch, tmp_path, bernoulli_kind
    ):
        small = self._bytes_per_pass(
            monkeypatch, tmp_path / "a", _grid_campaign(bernoulli_kind, 300)
        )
        large = self._bytes_per_pass(
            monkeypatch, tmp_path / "b", _grid_campaign(bernoulli_kind, 3000)
        )
        # Linear growth gives ~10x; rewriting the snapshot after every
        # unit (quadratic) gives ~100x.
        assert small > 0
        assert large / small <= 12


#: Child process: run a campaign whose trial hangs on one grid value,
#: so the parent can SIGKILL it mid-pass at a deterministic point.
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[3])
import repro.experiments as experiments
from conftest import bernoulli_trial
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments.runner import ber_aggregate
from repro.store import ResultStore

hang_at = float(sys.argv[4])

def trial(spec, rng):
    if spec.mac_loss_probability == hang_at:
        time.sleep(600)
    return bernoulli_trial(spec, rng)

experiments.TRIAL_KINDS["bernoulli-test"] = trial
experiments.TRIAL_AGGREGATES["bernoulli-test"] = ber_aggregate
camp = CampaignSpec.from_dict(json.loads(sys.argv[2]))
CampaignRunner(store=ResultStore(sys.argv[1])).run(camp)
"""


def _complete_lines(path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


class TestKillAndResume:
    def test_sigkilled_pass_resumes_to_clean_report(
        self, tmp_path, bernoulli_kind
    ):
        camp = _grid_campaign(bernoulli_kind, 8, n_trials=3)
        hang_at = camp.grid["mac_loss_probability"][5]
        killed = CampaignRunner(store=ResultStore(tmp_path / "killed"))
        journal = killed.journal_path(camp)
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        child = subprocess.Popen(
            [
                sys.executable, "-c", CHILD, str(killed.store.root),
                json.dumps(camp.to_dict()), str(TESTS_DIR), repr(hang_at),
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 120
            while _complete_lines(journal) < 2:
                assert child.poll() is None, "child exited before the kill"
                assert time.monotonic() < deadline, "journal never grew"
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait()

        lines = journal.read_bytes().split(b"\n")
        # Whole lines parse; only the last (unterminated) may be torn.
        records = [json.loads(line) for line in lines[:-1]]
        assert records[0]["campaign"] == camp.to_dict()
        assert all("digest" in r for r in records[1:])
        assert not killed.checkpoint_path(camp).exists()

        resumed = killed.run(camp)
        assert resumed.trials_computed < len(camp.units()) * 3
        clean = CampaignRunner(store=ResultStore(tmp_path / "clean"))
        clean.run(camp)
        assert _report_bytes(killed, camp) == _report_bytes(clean, camp)
        got, want = _snapshot(killed, camp), _snapshot(clean, camp)
        assert got["completed"] == got["total"] == len(camp.units())
        assert set(got["units"]) == set(want["units"])
        assert not journal.exists()

    @pytest.mark.parametrize("damage", ["snapshot", "journal"])
    def test_next_run_starts_cleanly_over_damaged_files(
        self, tmp_path, bernoulli_kind, damage
    ):
        camp = _grid_campaign(bernoulli_kind, 4)
        clean = CampaignRunner(store=ResultStore(tmp_path / "clean"))
        clean.run(camp)
        clean.run(camp)
        runner = CampaignRunner(store=ResultStore(tmp_path / "damaged"))
        runner.run(camp)
        snapshot = runner.checkpoint_path(camp)
        journal = runner.journal_path(camp)
        if damage == "snapshot":
            snapshot.write_bytes(snapshot.read_bytes()[:37])
        else:
            # a pass killed inside its second line's write
            journal.write_bytes(b'{"campaign":{}}\n{"digest":"ab')
        runner.run(camp)
        # both final snapshots come from an all-hit pass
        want = clean.checkpoint_path(camp).read_bytes()
        assert snapshot.read_bytes() == want
        assert not journal.exists()
        assert _report_bytes(runner, camp) == _report_bytes(clean, camp)

    def test_journal_removed_by_a_concurrent_pass(
        self, tmp_path, bernoulli_kind
    ):
        # Two passes of one campaign on one store share the journal
        # path; whichever finishes second finds it already gone.
        camp = _grid_campaign(bernoulli_kind, 3)
        runner = CampaignRunner(store=ResultStore(tmp_path))
        journal = runner.journal_path(camp)
        result = runner.run(
            camp, progress=lambda *_: journal.unlink(missing_ok=True)
        )
        assert result.outcome_counts() == {"miss": 3}
        assert _snapshot(runner, camp)["completed"] == 3
