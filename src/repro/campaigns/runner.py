"""Campaign execution: store-first dispatch, checkpoints, reports.

:class:`CampaignRunner` walks a campaign's units in declaration order
and satisfies each one through :func:`repro.store.cached_run` — so a
re-run is pure cache hits, a killed run resumes for free (the store
*is* the durable state; the checkpoint files are bookkeeping for
``status`` and CI artifacts), and raising ``--trials`` tops every unit
up from its stored prefix instead of recomputing it.

``report`` renders the campaign's aggregate tables **from the store
alone** — it never computes trials, and complains precisely about
what is missing.  Because stored tables are canonical (backend- and
history-independent bytes) and aggregation is deterministic, a
campaign reported twice produces bitwise-identical output.

Checkpoint: a pass truncates ``<store>/campaigns/<name>.journal``,
writes the run fingerprint (``campaign`` + ``run`` below) as its first
line, and appends one canonical JSON line per finished unit (the unit's
entry plus its ``digest``).  When the pass ends it publishes the
snapshot ``<store>/campaigns/<name>.json`` atomically from memory and
removes the journal::

    {
      "campaign": <CampaignSpec.to_dict()>,
      "run": {"n_trials": …, "seed": …, "code_version": …},
      "total": N, "completed": N,
      "units": {
        "<digest>": {"label": …, "kind": …, "arm": …, "point": {…},
                     "outcome": "hit|truncated|topup|miss",
                     "trials_computed": …, "n_trials": …}
      }
    }

Neither file is read back or fsynced: the store is the durable state
(DESIGN §8).  A journal left behind records how far a killed pass got,
and a stale or torn snapshot is simply overwritten by the next finished
pass.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from dataclasses import dataclass, field

from repro import obs
from repro.campaigns.spec import CampaignSpec, CampaignUnit
from repro.experiments import TRIAL_AGGREGATES, TRIAL_KINDS, ExperimentRunner
from repro.experiments.results import ResultTable
from repro.store.cache import cached_run
from repro.store.keys import CODE_VERSION
from repro.store.store import ResultStore, _atomic_write

log = logging.getLogger("repro.campaigns")


def write_snapshot(path, state: dict) -> None:
    """Atomically publish a checkpoint snapshot (campaign or adaptive)
    as indented, key-sorted, strict-finite JSON."""
    _atomic_write(
        path,
        (
            json.dumps(state, indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        ).encode(),
    )


@contextlib.contextmanager
def _journal(path):
    """Truncate ``path`` and yield ``append(record)``, which adds one
    canonical JSON line per call in a single ``O_APPEND`` write: the
    file grows by whole lines, save a last one torn by a kill."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(
        path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644
    )

    def append(record: dict) -> None:
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        os.write(fd, (line + "\n").encode())

    try:
        yield append
    finally:
        os.close(fd)


class MissingUnitsError(RuntimeError):
    """Raised by ``report`` when the store lacks some campaign units."""

    def __init__(self, missing: list[CampaignUnit]) -> None:
        self.missing = missing
        labels = ", ".join(u.label() for u in missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        super().__init__(
            f"{len(missing)} campaign unit(s) not in the store: "
            f"{labels}{more}; run the campaign first"
        )


@dataclass
class CampaignRunResult:
    """Outcome of one ``CampaignRunner.run`` invocation.

    Attributes
    ----------
    campaign / n_trials / seed:
        What ran, at which budget and root seed.
    units:
        ``(unit, cached_run outcome)`` pairs in execution order.
    """

    campaign: CampaignSpec
    n_trials: int
    seed: int
    units: list = field(default_factory=list)

    @property
    def trials_computed(self) -> int:
        """Trials actually executed (0 ⇒ the run was pure cache hits)."""
        return sum(r.trials_computed for _, r in self.units)

    def outcome_counts(self) -> dict[str, int]:
        """``outcome → unit count`` over the whole run."""
        counts: dict[str, int] = {}
        for _, r in self.units:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts


@dataclass
class CampaignRunner:
    """Runs, inspects and reports campaigns against one result store.

    Attributes
    ----------
    store:
        The :class:`~repro.store.store.ResultStore` consulted before any
        trial is dispatched.
    workers / backend:
        Execution knobs forwarded to each unit's
        :class:`~repro.experiments.runner.ExperimentRunner`.  Every
        standard kind has a batched implementation, so ``"vectorized"``
        applies across the board; a kind without one (none today) would
        silently fall back to the default backend.  For the sample-level
        kinds backends do not change results, only speed; ``mac`` units
        run the slotted engine, a statistically-equivalent estimator of
        the same contention process (DESIGN §7).
    """

    store: ResultStore
    workers: int = 1
    backend: str | None = None

    # -- unit plumbing -------------------------------------------------------

    def _backend_for(self, kind: str) -> str | None:
        if self.backend != "vectorized":
            return self.backend
        from repro.experiments.batch import batched_trial_for

        try:
            batched_trial_for(TRIAL_KINDS[kind])
        except ValueError:
            return None
        return "vectorized"

    def runner_for(self, unit: CampaignUnit) -> ExperimentRunner:
        """The fixed-budget runner executing ``unit`` on a miss/top-up."""
        return ExperimentRunner(
            trial=TRIAL_KINDS[unit.kind],
            max_trials=unit.n_trials,
            workers=self.workers,
            backend=self._backend_for(unit.kind),
        )

    def checkpoint_path(self, campaign: CampaignSpec):
        """Where this campaign's checkpoint snapshot lives in the store."""
        return self.store.campaign_dir() / f"{campaign.name}.json"

    def journal_path(self, campaign: CampaignSpec):
        """Where a running pass appends its per-unit checkpoint lines."""
        return self.store.campaign_dir() / f"{campaign.name}.journal"

    # -- execution -----------------------------------------------------------

    def run(
        self,
        campaign: CampaignSpec,
        *,
        n_trials: int | None = None,
        seed: int | None = None,
        progress=None,
    ) -> CampaignRunResult:
        """Execute every unit, store-first, journaling each as it ends.

        ``progress`` (optional callable) receives one
        ``(unit, CachedRun)`` pair per completed unit — the CLI's
        live ticker.  Killable at any point: completed units are in the
        store, and the next invocation reuses them as exact hits.  The
        checkpoint snapshot is published once, when the pass ends.
        """
        units = campaign.units(n_trials=n_trials, seed=seed)
        result = CampaignRunResult(
            campaign=campaign,
            n_trials=units[0].n_trials,
            seed=units[0].seed,
        )
        fingerprint = self._fingerprint(campaign, result)
        entries: dict[str, dict] = {}
        journal = self.journal_path(campaign)
        log.info(
            "campaign %s: %d units at %d trials (seed %d)",
            campaign.name, len(units), result.n_trials, result.seed,
        )
        with _journal(journal) as append, obs.span(
            "campaign.run",
            campaign=campaign.name,
            units=len(units),
            n_trials=result.n_trials,
        ):
            append(fingerprint)
            for unit in units:
                with obs.span(
                    "campaign.unit",
                    label=unit.label(),
                    kind=unit.kind,
                    arm=unit.arm,
                ) as sp:
                    outcome = cached_run(
                        self.store, self.runner_for(unit), unit.spec,
                        seed=unit.seed,
                    )
                    sp.note(
                        outcome=outcome.outcome,
                        trials_computed=outcome.trials_computed,
                    )
                obs.inc("campaign.units")
                obs.inc(f"campaign.unit.{outcome.outcome}")
                obs.inc("campaign.trials_computed", outcome.trials_computed)
                log.debug(
                    "campaign unit %s: %s (%d trials computed)",
                    unit.label(), outcome.outcome, outcome.trials_computed,
                )
                result.units.append((unit, outcome))
                entry = entries[outcome.key.digest] = {
                    "label": unit.label(),
                    "kind": unit.kind,
                    "arm": unit.arm,
                    "point": dict(unit.point),
                    "outcome": outcome.outcome,
                    "trials_computed": outcome.trials_computed,
                    "n_trials": unit.n_trials,
                }
                append({**entry, "digest": outcome.key.digest})
                if progress is not None:
                    progress(unit, outcome)
        write_snapshot(self.checkpoint_path(campaign), {
            **fingerprint,
            "total": len(units),
            "completed": len(result.units),
            "units": entries,
        })
        # a concurrent pass of the same campaign may have removed it
        journal.unlink(missing_ok=True)
        log.info(
            "campaign %s: done (%d trials computed)",
            campaign.name, result.trials_computed,
        )
        return result

    def _fingerprint(self, campaign, result) -> dict:
        return {
            "campaign": campaign.to_dict(),
            "run": {
                "n_trials": result.n_trials,
                "seed": result.seed,
                "code_version": CODE_VERSION,
            },
        }

    # -- inspection ----------------------------------------------------------

    def status(
        self,
        campaign: CampaignSpec,
        *,
        n_trials: int | None = None,
        seed: int | None = None,
    ) -> dict:
        """What the store already holds for this campaign, per kind.

        Pure inspection — touches no trial.  ``cached`` units are exact
        hits; ``reusable`` units have a stored prefix (or superset) of
        the same trial sequence, so running them costs only a top-up or
        a truncation; ``missing`` units would run cold.
        """
        units = campaign.units(n_trials=n_trials, seed=seed)
        per_kind: dict[str, dict] = {}
        for unit in units:
            slot = per_kind.setdefault(
                unit.kind, {"cached": 0, "reusable": 0, "missing": 0}
            )
            key = unit.key()
            if self.store.has(key):
                slot["cached"] += 1
            elif self.store.stored_budgets(key):
                slot["reusable"] += 1
            else:
                slot["missing"] += 1
        totals = {
            label: sum(slot[label] for slot in per_kind.values())
            for label in ("cached", "reusable", "missing")
        }
        return {
            "campaign": campaign.name,
            "n_trials": units[0].n_trials,
            "seed": units[0].seed,
            "total_units": len(units),
            "per_kind": per_kind,
            "checkpoint": self.checkpoint_path(campaign).is_file(),
            **totals,
        }

    def report(
        self,
        campaign: CampaignSpec,
        *,
        n_trials: int | None = None,
        seed: int | None = None,
        units: list[CampaignUnit] | None = None,
    ) -> dict[str, ResultTable]:
        """Aggregate tables per trial kind, from the store alone.

        One row per (grid point × arm): the grid coordinates, the arm,
        the kind's exact pooled aggregate
        (:data:`repro.experiments.TRIAL_AGGREGATES`) and the realised
        trial count.  Deterministic bytes for a given store state —
        running a campaign twice and reporting after each run yields
        identical output.

        ``units`` overrides the uniform-budget expansion — how an
        adaptive run (heterogeneous per-cell budgets,
        :func:`repro.campaigns.adaptive.adaptive_run`) reports: the
        per-row ``n_trials`` column then carries each cell's granted
        budget.
        """
        if units is None:
            units = campaign.units(n_trials=n_trials, seed=seed)
        keys = [unit.key() for unit in units]
        missing = [u for u, k in zip(units, keys) if not self.store.has(k)]
        if missing:
            raise MissingUnitsError(missing)
        tables: dict[str, ResultTable] = {}
        for unit, key in zip(units, keys):
            stored = self.store.get(key)
            aggregate = TRIAL_AGGREGATES[unit.kind]
            record = {
                **dict(unit.point),
                "arm": unit.arm,
                **aggregate(stored),
                "n_trials": len(stored),
            }
            table = tables.get(unit.kind)
            if table is None:
                table = tables[unit.kind] = ResultTable(
                    metadata={
                        "campaign": campaign.name,
                        "kind": unit.kind,
                        "n_trials": unit.n_trials,
                        "seed": unit.seed,
                        "code_version": CODE_VERSION,
                        "scenario": campaign.scenario,
                    }
                )
            table.append(record)
        return tables
