"""Adaptive trial allocation: spend budget where the intervals are wide.

A fixed campaign spends the same ``n_trials`` on every grid cell, so
the cell with the highest outcome variance dictates the budget for all
of them.  :func:`adaptive_run` instead grows each cell's budget
iteratively — successive-halving style — granting trials to the cells
whose pooled-proportion **Wilson intervals** are widest, until every
cell is precise to a target half-width or a total trial budget runs
out.

The scheduler is a thin loop over machinery that already exists:

* each round satisfies every cell at its current budget through
  :meth:`~repro.campaigns.runner.CampaignRunner.satisfy` — a
  :func:`repro.store.cached_run` per cell, so a grown budget computes
  **only the new suffix** (the runner's ``first_trial`` fast-forward +
  the store's ``best_prefix``), re-measuring an unchanged budget is a
  pure cache hit, and on the vectorized backend a round's ``mac``
  top-ups run as pooled slotted-engine calls;
* because every decision is a deterministic function of stored
  (bitwise-reproducible) tables, an interrupted adaptive run resumed
  later replays the same grant sequence against the store and lands on
  **bitwise-identical** final tables — the same resumability story as
  the fixed :class:`~repro.campaigns.runner.CampaignRunner`.

Precision is measured on the pooled success proportion of each kind
(:data:`WILSON_COUNTS`): bit errors over bits for the BER kinds,
delivered over offered packets for ``mac``, delivered exchanges over
trials for ``energy``/``frame-delivery``.  The caveat on
:func:`repro.experiments.runner.precision_budget` applies here too:
pooled counts within one replication are correlated, so treat the
target as a workload-sizing dial, not an exact coverage guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro import obs
from repro.analysis.theory import wilson_interval
from repro.campaigns.runner import write_snapshot
from repro.campaigns.spec import CampaignSpec, CampaignUnit
from repro.store.keys import CODE_VERSION
from repro.utils.validation import check_positive


def _ratio_counts(successes: str, trials: str):
    def counts(table) -> tuple[int, int]:
        return int(table.sum(successes)), int(table.sum(trials))

    return counts


def _delivered_counts(table) -> tuple[int, int]:
    return int(table.sum("delivered")), len(table)


#: kind → ``table -> (successes, trials)`` pooled-count extractor the
#: scheduler measures Wilson width on.  Extensible the same way as
#: ``TRIAL_KINDS``: register custom kinds with
#: :func:`register_wilson_counts`.
WILSON_COUNTS = {
    "forward-ber": _ratio_counts("errors", "bits"),
    "feedback-ber": _ratio_counts("errors", "bits"),
    "frame-delivery": _delivered_counts,
    "energy": _delivered_counts,
    "mac": _ratio_counts("delivered_packets", "offered_packets"),
}


def register_wilson_counts(kind: str, counts) -> None:
    """Register the pooled-count extractor of a custom trial kind."""
    WILSON_COUNTS[kind] = counts


def unit_width(kind: str, table) -> float:
    """Width of the 95 % Wilson interval on a unit's pooled proportion."""
    successes, trials = WILSON_COUNTS[kind](table)
    low, high = wilson_interval(successes, trials)
    return high - low


@dataclass(frozen=True)
class AdaptiveCell:
    """Final state of one grid cell after adaptive allocation."""

    unit: CampaignUnit  # at its final (granted) budget
    n_trials: int
    width: float
    successes: int
    trials: int  # Wilson denominator (bits / packets / exchanges)


@dataclass
class AdaptiveRunResult:
    """Outcome of one :func:`adaptive_run` invocation.

    Attributes
    ----------
    campaign / precision / budget / floor / seed:
        The request: target interval half-width, total trial cap,
        per-cell starting budget, root seed.
    cells:
        Per-cell final budgets and interval widths, in unit order.
    rounds:
        Measurement rounds executed (≥ 1).
    trials_computed:
        Trials actually executed across all rounds (cache hits are 0).
    converged:
        Whether every cell reached the precision target.
    """

    campaign: CampaignSpec
    precision: float | None
    budget: int | None
    floor: int
    seed: int
    cells: list = field(default_factory=list)
    rounds: int = 0
    trials_computed: int = 0
    converged: bool = False

    @property
    def total_trials(self) -> int:
        """Sum of final per-cell budgets (the allocation's spend)."""
        return sum(cell.n_trials for cell in self.cells)

    @property
    def max_width(self) -> float:
        """The widest final Wilson interval across cells."""
        return max((cell.width for cell in self.cells), default=0.0)

    def units(self) -> list[CampaignUnit]:
        """Final units (with granted budgets) — feed to ``report``."""
        return [cell.unit for cell in self.cells]


def adaptive_run(
    runner,
    campaign: CampaignSpec,
    *,
    precision: float | None = None,
    budget: int | None = None,
    n_initial: int | None = None,
    seed: int | None = None,
    progress=None,
    max_rounds: int = 40,
) -> AdaptiveRunResult:
    """Grow per-cell budgets until precise enough or out of budget.

    Parameters
    ----------
    runner:
        A :class:`~repro.campaigns.runner.CampaignRunner` — supplies
        the store and the per-unit execution knobs.
    campaign:
        The grid to allocate over.
    precision:
        Target Wilson half-width: a cell is converged once its pooled
        proportion is known to ``±precision`` at 95 %.
    budget:
        Cap on the summed per-cell budgets.  Every cell always runs
        the floor budget; grants stop once the cap is reached.
    n_initial:
        Per-cell starting budget (defaults to the campaign's
        ``n_trials``).  Doubled per grant, so total spend is within 2×
        of the oracle allocation for the same widths.
    seed / progress:
        As in :meth:`CampaignRunner.run`; ``progress`` receives
        ``(round_index, budgets, widths)`` after each round.
    max_rounds:
        Hard stop against pathological targets (a precision no budget
        can reach, e.g. on a proportion pinned near 0.5 forever).

    At least one of ``precision``/``budget`` is required.
    """
    if precision is None and budget is None:
        raise ValueError(
            "adaptive allocation needs a target: pass precision=, "
            "budget=, or both"
        )
    if precision is not None:
        check_positive("precision", precision)
    if budget is not None:
        check_positive("budget", budget)
    floor = campaign.n_trials if n_initial is None else n_initial
    units = campaign.units(n_trials=floor, seed=seed)
    unsupported = sorted(
        {u.kind for u in units if u.kind not in WILSON_COUNTS}
    )
    if unsupported:
        raise ValueError(
            f"no Wilson count extractor for trial kind(s) {unsupported}; "
            "register one with repro.campaigns.register_wilson_counts"
        )
    target = 2.0 * precision if precision is not None else 0.0
    budgets = [floor] * len(units)
    result = AdaptiveRunResult(
        campaign=campaign,
        precision=precision,
        budget=budget,
        floor=floor,
        seed=units[0].seed,
    )
    while True:
        with obs.span(
            "adaptive.round",
            campaign=campaign.name,
            round=result.rounds + 1,
            budget_total=sum(budgets),
        ) as round_span:
            cells = []
            round_computed = 0
            grown_units = [
                replace(unit, n_trials=n) for unit, n in zip(units, budgets)
            ]
            for grown, outcome in runner.satisfy(grown_units):
                result.trials_computed += outcome.trials_computed
                round_computed += outcome.trials_computed
                successes, trials = WILSON_COUNTS[grown.kind](outcome.table)
                low, high = wilson_interval(successes, trials)
                cells.append(
                    AdaptiveCell(
                        unit=grown,
                        n_trials=grown.n_trials,
                        width=high - low,
                        successes=successes,
                        trials=trials,
                    )
                )
            round_span.note(trials_computed=round_computed)
        obs.inc("adaptive.rounds")
        result.cells = cells
        result.rounds += 1
        widths = [cell.width for cell in cells]
        open_cells = [
            i for i in range(len(units))
            if precision is None or widths[i] > target
        ]
        result.converged = precision is not None and not open_cells
        _write_checkpoint(runner, result)
        if progress is not None:
            progress(result.rounds, list(budgets), widths)
        if result.converged or result.rounds >= max_rounds:
            break
        spent = sum(budgets)
        remaining = math.inf if budget is None else budget - spent
        if remaining <= 0:
            break
        if precision is not None:
            # Double every cell still above target, widest first, until
            # the cap bites.
            grant_order = sorted(
                open_cells, key=lambda i: (-widths[i], i)
            )
        else:
            # Budget-only mode: greedily equalise widths by growing
            # just the widest cell per round.
            grant_order = [max(open_cells, key=lambda i: (widths[i], -i))]
        granted = 0
        for i in grant_order:
            grant = min(budgets[i], remaining - granted)
            if grant <= 0:
                break
            budgets[i] += grant
            granted += grant
            obs.inc("adaptive.grants")
        obs.inc("adaptive.trials_granted", granted)
        if granted == 0:
            break
    return result


def adaptive_checkpoint_path(runner, campaign: CampaignSpec):
    """Where an adaptive run's checkpoint lives in the store."""
    return runner.store.campaign_dir() / f"{campaign.name}.adaptive.json"


def _write_checkpoint(runner, result: AdaptiveRunResult) -> None:
    # Bookkeeping only (status / CI artifacts) — resume state is the
    # store itself: a rerun replays the grant sequence as cache hits.
    state = {
        "campaign": result.campaign.to_dict(),
        "run": {
            "precision": result.precision,
            "budget": result.budget,
            "floor": result.floor,
            "seed": result.seed,
            "code_version": CODE_VERSION,
        },
        "rounds": result.rounds,
        "converged": result.converged,
        "trials_computed": result.trials_computed,
        "total_trials": result.total_trials,
        "cells": [
            {
                "label": cell.unit.label(),
                "kind": cell.unit.kind,
                "n_trials": cell.n_trials,
                "width": cell.width,
                "successes": cell.successes,
                "trials": cell.trials,
            }
            for cell in result.cells
        ],
    }
    write_snapshot(adaptive_checkpoint_path(runner, result.campaign), state)
