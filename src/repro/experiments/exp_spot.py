"""Spot sweep: interruption regime × bid aggressiveness × deadline slack.

The paper sticks to on-demand instances *because* of deadlines (§1.1);
this experiment measures what that caution costs.  Each cell runs the
same grep campaign as :mod:`~repro.experiments.exp_chaos` — identical
bins, identical deadline — but provisions every bin on spot capacity via
:func:`~repro.runner.spot.execute_plan_spot`, under one replayed
:data:`~repro.chaos.scenario.SPOT_REGIMES` interruption regime:

* **on** — the full :class:`~repro.resilience.spot.SpotLadder`:
  checkpoint into the two-minute warning, re-bid in another zone,
  re-type, queue, and escalate to on-demand preemptively when predicted
  remaining work plus the restart buffer no longer fits the deadline;
* **off** — a naive spot user (no ladder, no checkpoints, no
  escalation): every interruption restarts the bin from scratch in the
  same zone, which is how spot capacity got its reputation.

Two sensitivity axes ride along on the resilient side: **bid
aggressiveness** (how much of the market a bid covers — aggressive bids
exclude expensive zones from the fallback ladder) and **deadline slack**
(the user deadline scaled around the planner's; tighter deadlines force
earlier on-demand escalation, looser ones let the ladder ride out more
interruptions on cheap capacity).

Cost ratios compare against a pure on-demand run of the same plan on a
clean same-seed cloud, so "beats on-demand" is measured like-for-like.
A bin **misses** when boot latency plus processing (absorbed
interruptions, queue waits and restarts included) exceeds the user
deadline; bins that never got capacity count as missed.  Everything is
deterministic under ``(regime, policy, bid, slack, seed)``.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud
from repro.experiments.exp_chaos import _campaign
from repro.experiments.registry import register_slo_policy
from repro.experiments.sweep import (
    DEFAULT_SEEDS,
    Cell,
    aggregate,
    deadline_outcome,
    finish_sweep,
    plot_groups,
    run_grid,
    surface_row,
)
from repro.obs import get_logger
from repro.obs.slo import Objective, SloPolicy
from repro.report.figures import FigureResult
from repro.resilience import SpotFallbackPolicy
from repro.runner import execute_plan, execute_plan_spot

__all__ = ["run_cell", "spot_sweep", "DEFAULT_SEEDS", "BIDS", "SLACKS",
           "DEFAULT_BID", "DEFAULT_SLACK", "SPOT_SLOS"]

_log = get_logger("experiments.spot")

#: Reference-terms bid levels: reckless (half the mean market price —
#: whole markets become unaffordable and the ladder falls straight
#: through to on-demand), the shipped default, and conservative (= the
#: on-demand rate, the most a rational 2010 bidder would offer).
BIDS: tuple[float, ...] = (0.02, 0.06, 0.085)

#: User-deadline multipliers around the planning deadline: tight, the
#: shipped default, and loose.  Slack scales *only* the user deadline —
#: the plan (bins, predictions) is packed once per seed and shared, so
#: the axis isolates deadline pressure from packing.
SLACKS: tuple[float, ...] = (0.85, 1.0, 1.25)

DEFAULT_BID: float = 0.06
DEFAULT_SLACK: float = 1.0

#: The declared objectives, evaluated per policy side over the operating
#: point (default bid and slack) across every (regime, seed) cell: the
#: campaign keeps the paper's ≤ 10 % miss budget *and* lands well under
#: the pure on-demand bill.  The resilient ladder holds both; the naive
#: baseline burns the miss budget under the eviction-storm regime.
SPOT_SLOS = SloPolicy("spot-campaign", (
    Objective("miss-rate", "deadline", "<=", 0.10, aggregate="ratio",
              num="deadline.missed", den="deadline.bins"),
    Objective("cost-vs-on-demand", "extra.cost_ratio", "<=", 0.90,
              aggregate="mean"),
))


@lru_cache(maxsize=8)
def _on_demand_baseline(seed: int) -> float:
    """Pure on-demand counterfactual bill for one seed.

    The same cached plan executed by :func:`~repro.runner.execute
    .execute_plan` on a clean same-seed cloud — the §5 regime the paper
    actually ran; returns its total ceil-hour bill.
    """
    cloud = Cloud(seed=seed)
    execute_plan(cloud, *_campaign(seed))
    return cloud.ledger.total_cost


def run_cell(regime_name: str, *, resilience: bool = True,
             bid: float = DEFAULT_BID, slack: float = DEFAULT_SLACK,
             seed: int = 11) -> dict:
    """Run one (regime, policy, bid, slack, seed) cell; returns the outcome.

    ``resilience=False`` strips the ladder, checkpoints and escalation
    from the fallback policy, leaving a naive spot user who waits out
    every interruption in place and restarts from scratch.
    """
    regime = get_spot_regime(regime_name)
    injector = FaultInjector([regime.scenario(seed)], seed=seed)
    cloud = Cloud(seed=seed, chaos=injector)
    wl, plan = _campaign(seed)
    plan = dataclasses.replace(plan, deadline=plan.deadline * slack)

    if resilience:
        policy = SpotFallbackPolicy(bid=bid)
    else:
        policy = SpotFallbackPolicy(bid=bid, ladder=False, checkpoint=False,
                                    escalate=False)
    result = execute_plan_spot(cloud, wl, plan, policy=policy)
    report, stats = result.report, result.stats

    n_failed = report.n_failed
    total_bins = len(report.runs) + n_failed
    missed = n_failed + sum(
        1 for run in report.runs
        if run.boot_delay + run.duration > plan.deadline)
    od_cost = _on_demand_baseline(seed)

    return {
        "regime": regime_name,
        "policy": "on" if resilience else "off",
        "seed": seed,
        "bid": bid,
        "slack": slack,
        **deadline_outcome(total_bins, missed, n_failed),
        "cost_usd": round(stats.total_cost, 4),
        "on_demand_baseline_usd": round(od_cost, 4),
        "cost_ratio": round(stats.total_cost / od_cost, 4) if od_cost else 0.0,
        "interruptions": stats.interruptions,
        "escalations": stats.escalations,
        "preemptive_escalations": stats.preemptive_escalations,
        "rebids": stats.rebids,
        "retypes": stats.retypes,
        "queued": stats.queued,
        "spot_cost_usd": round(stats.spot_cost, 4),
        "on_demand_cost_usd": round(stats.on_demand_cost, 4),
        "faults_injected": injector.fault_counts(),
    }


def spot_sweep(
    regimes: list[str] | None = None,
    *,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    bids: tuple[float, ...] = BIDS,
    slacks: tuple[float, ...] = SLACKS,
    policies: tuple[bool, ...] = (True, False),
    processes: int | None = 1,
) -> tuple[FigureResult, dict]:
    """Sweep regimes × bids × slacks × seeds; aggregate misses and cost.

    Returns ``(figure, stats)``.  ``stats["regimes"][name]`` holds the
    ``on``/``off`` aggregates at the operating point (default bid and
    slack) — the shipped configuration the SLOs judge; the naive side
    only runs there.  ``stats["grid"]`` holds one aggregated row per
    ``(regime, bid, slack)`` combination on the resilient side — the
    sensitivity surface.

    Every cell is an independent seeded run, so the grid fans out over
    the :mod:`~repro.experiments.sweep` harness exactly like the chaos
    sweep; results are bit-identical at any process count.
    """
    from repro.chaos import SPOT_REGIMES

    names = list(SPOT_REGIMES) if regimes is None else regimes
    bids = tuple(bids) if DEFAULT_BID in bids else tuple(bids) + (DEFAULT_BID,)
    slacks = (tuple(slacks) if DEFAULT_SLACK in slacks
              else tuple(slacks) + (DEFAULT_SLACK,))
    # The naive side runs only at the operating point; the ladder side
    # covers the whole bid × slack surface.
    points = ([(False, DEFAULT_BID, DEFAULT_SLACK)] if False in policies
              else []) + ([(True, bid, slack) for bid in bids
                           for slack in slacks] if True in policies else [])
    grid = [Cell("repro.experiments.exp_spot:run_cell",
                 {"regime_name": name, "resilience": on, "bid": bid,
                  "slack": slack, "seed": seed},
                 tag=(name, "on" if on else "off", bid, slack))
            for name in names for seed in seeds for on, bid, slack in points]
    by_tag = run_grid(grid, processes)

    stats: dict = {"regimes": {}, "grid": []}
    for name in names:
        per_policy: dict = {}
        for policy in ("on", "off"):
            cells = by_tag.get((name, policy, DEFAULT_BID, DEFAULT_SLACK))
            if cells:
                per_policy[policy] = aggregate(cells)
        stats["regimes"][name] = per_policy
        _log.info("spot %-16s miss %s", name, " ".join(
            f"{p}={agg['miss_rate']:.3f}" for p, agg in per_policy.items()))
    if True in policies:
        stats["grid"] = [
            surface_row(by_tag[(name, "on", bid, slack)], regime=name,
                        bid=bid, slack=slack)
            for name in names for bid in bids for slack in slacks
            if by_tag.get((name, "on", bid, slack))]

    fig = FigureResult(
        "Spot", "deadline misses and cost on spot capacity: "
        "fallback ladder on vs naive spot")
    per_name = stats["regimes"]
    worst = plot_groups(
        fig, (("miss rate", "miss_rate"),
              ("cost vs on-demand", "mean_cost_ratio")),
        [(p, [(n, per_name[n][p]) for n in names if p in per_name[n]])
         for p in ("on", "off")])
    # Sensitivity series: one point per grid value, aggregated over the
    # other axes — how the resilient side moves with bid and slack.
    for axis, values in (("bid", bids), ("slack", slacks)):
        rows = []
        for v in values:
            sub = [g for g in stats["grid"] if g[axis] == v]
            if sub:
                rows.append((f"{axis}={v:g}", sum(
                    g["miss_rate"] for g in sub) / len(sub)))
        if len(rows) > 1:
            fig.add(f"miss rate by {axis} [on]",
                    [lbl for lbl, _ in rows], [val for _, val in rows])
    if len(worst) == 2:
        fig.note(f"ladder-on worst miss {worst['on']:.3f}; "
                 f"naive-spot worst miss {worst['off']:.3f} "
                 f"over {len(names)} regimes x {len(seeds)} seeds")

    finish_sweep(
        "spot", stats,
        config={"regimes": names, "seeds": list(seeds),
                "bids": list(bids), "slacks": list(slacks),
                "policies": ["on" if p else "off" for p in policies]},
        extra={"worst_miss": {p: worst.get(p, 0.0) for p in ("on", "off")}},
    )
    return fig, stats


# `repro runs slo --policy spot` and the sweep's own records resolve this;
# only operating-point cells (default bid and slack) become records.
register_slo_policy(
    "spot", slos=SPOT_SLOS, group_key="config.policy",
    label_keys=("regime", "policy"),
    config_keys=("regime", "policy", "seed", "bid", "slack"),
    extra_keys=("cost_ratio", "interruptions", "escalations", "rebids",
                "faults_injected"),
    cost_key="cost_usd",
    cells=lambda stats: [cell for per_policy in stats["regimes"].values()
                         for agg in per_policy.values()
                         for cell in agg["cells"]])
