"""Per-campaign sweep record, aggregate and SLO code, frozen as differential oracles.

Verbatim copies of what the chaos, spot, DAG and matrix sweeps each
carried before they shared one implementation in
``repro.experiments.sweep`` and ``repro.experiments.registry``: the four
``_cell_records`` projections, the spot and matrix ``_aggregate``
helpers, the chaos sweep's inline per-policy aggregation, the DAG
sweep's per-shape roll-up, the deadline fields every ``run_cell`` built
inline, the four ``evaluate_*_slos`` functions, and the grouping loop
``repro.cli runs slo`` used.  Only the names and imports are adjusted; the SLO objective
sets are passed in instead of imported so the oracle cannot drift with
them.  ``tests/test_sweep_differential.py`` asserts ``==`` between these
and the shared code.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from repro.obs.ledger import RunRecord
from repro.obs.slo import SloPolicy, SloReport

__all__ = [
    "cell_deadline_fields", "dag_shape_agg", "chaos_cell_records",
    "spot_cell_records", "dag_cell_records", "matrix_cell_records", "spot_aggregate", "matrix_aggregate",
    "chaos_aggregate", "evaluate_chaos_slos", "evaluate_spot_slos",
    "evaluate_dag_slos", "evaluate_matrix_slos", "runs_slo_sides",
]


# -- the four run_cell outcome dicts ---------------------------------------

def cell_deadline_fields(total_bins: int, missed: int, n_failed: int) -> dict:
    """The deadline fields every ``run_cell`` built inline."""
    return {
        "bins": total_bins,
        "missed": missed,
        "failed": n_failed,
        "miss_rate": round(missed / total_bins, 4) if total_bins else 0.0,
    }


# -- exp_chaos -------------------------------------------------------------

def chaos_cell_records(stats: dict) -> dict[str, list[RunRecord]]:
    """Cell-level run records per policy side, in scenario-then-seed order."""
    records: dict[str, list[RunRecord]] = {}
    for name, per_policy in stats.items():
        for policy, agg in per_policy.items():
            for cell in agg["cells"]:
                records.setdefault(policy, []).append(RunRecord(
                    kind="sweep-cell",
                    label=f"exp_chaos.{name}.{policy}",
                    config={"scenario": name, "policy": policy,
                            "seed": cell["seed"]},
                    billing={"cost_usd": cell["cost_usd"]},
                    deadline={"missed": cell["missed"],
                              "failed": cell["failed"],
                              "bins": cell["bins"],
                              "miss_rate": cell["miss_rate"]},
                    extra={"replaced": cell["replaced"],
                           "retrieval_s": cell["retrieval_s"],
                           "faults_injected": cell["faults_injected"]},
                ))
    return records


def evaluate_chaos_slos(stats: dict, *,
                        slos: SloPolicy) -> dict[str, SloReport]:
    """Evaluate the campaign SLOs per policy side over a sweep's stats."""
    return {policy: slos.evaluate(records)
            for policy, records in chaos_cell_records(stats).items()}


def chaos_aggregate(cells: list[dict]) -> dict:
    """The chaos sweep's inline per-(scenario, policy) aggregation."""
    bins = sum(c["bins"] for c in cells)
    missed = sum(c["missed"] for c in cells)
    return {
        "miss_rate": round(missed / bins, 4) if bins else 0.0,
        "missed": missed,
        "bins": bins,
        "mean_cost_usd": round(
            sum(c["cost_usd"] for c in cells) / len(cells), 4),
        "cells": cells,
    }


# -- exp_spot --------------------------------------------------------------

def spot_aggregate(cells: list[dict]) -> dict:
    """Miss rate over all cells' bins plus mean cost and cost ratio."""
    bins = sum(c["bins"] for c in cells)
    missed = sum(c["missed"] for c in cells)
    return {
        "miss_rate": round(missed / bins, 4) if bins else 0.0,
        "missed": missed,
        "bins": bins,
        "mean_cost_usd": round(
            sum(c["cost_usd"] for c in cells) / len(cells), 4),
        "mean_cost_ratio": round(
            sum(c["cost_ratio"] for c in cells) / len(cells), 4),
        "cells": cells,
    }


def spot_cell_records(stats: dict) -> dict[str, list[RunRecord]]:
    """Operating-point run records per policy side, regime-then-seed order."""
    records: dict[str, list[RunRecord]] = {}
    for name, per_policy in stats["regimes"].items():
        for policy, agg in per_policy.items():
            for cell in agg["cells"]:
                records.setdefault(policy, []).append(RunRecord(
                    kind="sweep-cell",
                    label=f"exp_spot.{name}.{policy}",
                    config={"regime": name, "policy": policy,
                            "seed": cell["seed"], "bid": cell["bid"],
                            "slack": cell["slack"]},
                    billing={"cost_usd": cell["cost_usd"]},
                    deadline={"missed": cell["missed"],
                              "failed": cell["failed"],
                              "bins": cell["bins"],
                              "miss_rate": cell["miss_rate"]},
                    extra={"cost_ratio": cell["cost_ratio"],
                           "interruptions": cell["interruptions"],
                           "escalations": cell["escalations"],
                           "rebids": cell["rebids"],
                           "faults_injected": cell["faults_injected"]},
                ))
    return records


def evaluate_spot_slos(stats: dict, *,
                       slos: SloPolicy) -> dict[str, SloReport]:
    """Evaluate the campaign SLOs per policy side over a sweep's stats."""
    return {policy: slos.evaluate(records)
            for policy, records in spot_cell_records(stats).items()}


# -- exp_dag ---------------------------------------------------------------

def dag_cell_records(stats: dict) -> dict[str, list[RunRecord]]:
    """Cell-level run records per backend, concurrent cells only."""
    records: dict[str, list[RunRecord]] = {}
    for cell in stats["cells"]:
        if cell["mode"] != "concurrent":
            continue
        records.setdefault(cell["backend"], []).append(RunRecord(
            kind="sweep-cell",
            label=f"exp_dag.{cell['backend']}.{cell['shape']}",
            config={"backend": cell["backend"], "shape": cell["shape"],
                    "seed": cell["seed"], "mode": cell["mode"]},
            billing={"cost_usd": cell["total_usd"]},
            deadline={"missed": cell["missed"], "failed": cell["failed"],
                      "bins": cell["bins"], "miss_rate": cell["miss_rate"]},
            extra={"makespan_s": cell["makespan_s"],
                   "transfer_s": cell["transfer_s"],
                   "transfer_usd": cell["transfer_usd"]},
        ))
    return records


def dag_shape_agg(cells: list[dict]) -> dict:
    """``dag_sweep``'s per-(backend, shape) roll-up of concurrent cells."""
    def _mean(cells: list[dict], key: str) -> float:
        return sum(c[key] for c in cells) / len(cells)

    return {
        "mean_makespan_s": round(_mean(cells, "makespan_s"), 1),
        "mean_total_usd": round(_mean(cells, "total_usd"), 4),
        "mean_transfer_s": round(_mean(cells, "transfer_s"), 1),
        "miss_rate": round(
            sum(c["missed"] for c in cells)
            / max(1, sum(c["bins"] for c in cells)), 4),
    }


def evaluate_dag_slos(stats: dict, *,
                      slos: SloPolicy) -> dict[str, SloReport]:
    """Evaluate the workflow SLOs per backend over a sweep's stats."""
    return {backend: slos.evaluate(records)
            for backend, records in dag_cell_records(stats).items()}


# -- exp_matrix ------------------------------------------------------------

def matrix_aggregate(cells: list[dict]) -> dict:
    """Miss rate over all cells' bins plus mean cost ratio."""
    bins = sum(c["bins"] for c in cells)
    missed = sum(c["missed"] for c in cells)
    return {
        "miss_rate": round(missed / bins, 4) if bins else 0.0,
        "missed": missed,
        "bins": bins,
        "mean_cost_usd": round(
            sum(c["total_usd"] for c in cells) / len(cells), 4),
        "mean_cost_ratio": round(
            sum(c["cost_ratio"] for c in cells) / len(cells), 4),
        "cells": cells,
    }


def matrix_cell_records(stats: dict) -> dict[str, list[RunRecord]]:
    """Cell-level run records per broker stack."""
    records: dict[str, list[RunRecord]] = {}
    for stack, agg in stats["stacks"].items():
        for cell in agg["cells"]:
            records.setdefault(stack, []).append(RunRecord(
                kind="sweep-cell",
                label=f"exp_matrix.{stack}.{cell['regime']}",
                config={"stack": stack, "shape": cell["shape"],
                        "regime": cell["regime"], "seed": cell["seed"]},
                billing={"cost_usd": cell["total_usd"]},
                deadline={"missed": cell["missed"],
                          "failed": cell["failed"],
                          "bins": cell["bins"],
                          "miss_rate": cell["miss_rate"]},
                extra={"cost_ratio": cell["cost_ratio"],
                       "interruptions": cell["interruptions"],
                       "escalations": cell["escalations"],
                       "pool_hits": cell["pool_hits"],
                       "faults_injected": cell["faults_injected"]},
            ))
    return records


def evaluate_matrix_slos(stats: dict, *,
                         slos: SloPolicy) -> dict[str, SloReport]:
    """Evaluate the campaign SLOs per broker stack over a sweep's stats."""
    return {stack: slos.evaluate(records)
            for stack, records in matrix_cell_records(stats).items()}


# -- repro.cli runs slo ----------------------------------------------------

def runs_slo_sides(ledger_records: list[RunRecord], *, slos: SloPolicy,
                   group_key: str, label_prefix: str | None,
                   label: str | None = None) -> list[tuple[str, SloReport]]:
    """``cmd_runs_slo``'s filter, grouping and per-side evaluation.

    ``ledger_records`` stands for ``ledger.records(kind="sweep-cell",
    label=label)``; the sides come back in the order the command printed
    them.
    """
    records = [r for r in ledger_records
               if r.get(group_key) is not None
               and (label_prefix is None or label
                    or r.label.startswith(label_prefix))]
    sides: dict[str, list] = {}
    for r in records:
        sides.setdefault(str(r.get(group_key)), []).append(r)
    return [(side, slos.evaluate(sides[side])) for side in sorted(sides)]
