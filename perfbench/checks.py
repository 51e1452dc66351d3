"""Output checks the benchmark runs on every op, through public APIs only.

Each check raises :class:`CheckFailed` naming what broke; ``run.py``
counts the op as failed.  The checks restate the simulator's invariants
from the outside: volume is conserved from catalogue to units to bins,
every planned bin either completed or failed, and the bill is the
ceil-hour timeline the ledger recorded.
"""

from __future__ import annotations

import math
from collections import Counter


class CheckFailed(AssertionError):
    """An op's outputs broke an invariant the benchmark checks."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def ceil_hours(seconds: float) -> int:
    """Hours a RUNNING interval bills: ceil, zero only for zero seconds."""
    return math.ceil(seconds / 3600.0) if seconds > 0 else 0


def files_in_units_once(catalogue, units) -> None:
    """Every catalogue file sits in exactly one unit, and nothing else does.

    A unit is either a file kept in its original segmentation or a
    reshaped segment whose ``members`` are files.
    """
    seen = [f.path for u in units for f in getattr(u, "members", (u,))]
    expected = [f.path for f in catalogue]
    if len(seen) != len(expected) or set(seen) != set(expected):
        diff = Counter(expected)
        diff.subtract(seen)
        bad = sorted(p for p, n in diff.items() if n)[:3]
        raise CheckFailed(f"units do not partition the catalogue: {len(seen)} "
                          f"placements for {len(expected)} files, off at {bad}")


def units_in_bins_once(units, plan) -> None:
    """Every unit is assigned to exactly one bin of the plan."""
    placed = [id(u) for b in plan.assignments for u in b]
    if len(placed) != len(units) or set(placed) != {id(u) for u in units}:
        raise CheckFailed(f"plan places {len(placed)} unit slots "
                          f"for {len(units)} units")


def bins_hold_volume(plan, total_bytes: int) -> None:
    """Bin volumes sum to the catalogue's bytes."""
    vol = sum(u.size for b in plan.assignments for u in b)
    if vol != total_bytes:
        raise CheckFailed(f"bins hold {vol} B, catalogue has {total_bytes} B")


def every_bin_accounted(report, n_bins: int, volume: int) -> None:
    """Completed plus failed bins equal the planned bins, in count and bytes."""
    done = len(report.runs) + len(report.failures)
    if done != n_bins:
        raise CheckFailed(f"{len(report.runs)} completed + "
                          f"{len(report.failures)} failed bins != {n_bins} planned")
    vol = sum(r.volume for r in report.runs) + sum(f.volume for f in report.failures)
    if vol != volume:
        raise CheckFailed(f"report accounts for {vol} B of {volume} B planned")


def records_are_ceil_hour(ledger) -> None:
    """Each usage record costs its ceil-hour count times its rate."""
    for rec in ledger.records:
        want = ceil_hours(rec.end - rec.start) * rec.hourly_rate
        if not _close(rec.cost, want):
            raise CheckFailed(f"{rec.instance_id} billed {rec.cost} for "
                              f"[{rec.start}, {rec.end}] at {rec.hourly_rate}/h, "
                              f"ceil-hour says {want}")


def on_demand_bill_matches(ledger, report) -> None:
    """The plan's instances' records sum to the execution's bill.

    Charges for any other instance (the vetted probe instance) are
    separate records, so the plan's instances never share a record with
    them.
    """
    records_are_ceil_hour(ledger)
    ids = {r.instance_id for r in report.runs}
    if len(ids) != len(report.runs):
        raise CheckFailed("two bins report the same instance")
    billed = sum(rec.cost for rec in ledger.records if rec.instance_id in ids)
    if not _close(billed, report.cost):
        raise CheckFailed(f"ledger bills the plan's instances {billed}, "
                          f"report says {report.cost}")
    if not any(rec.instance_id not in ids for rec in ledger.records):
        raise CheckFailed("no separate probe-instance record in the ledger")


def spot_bill_matches(ledger, stats) -> None:
    """A spot run's own cost accounting equals the ledger total."""
    records_are_ceil_hour(ledger)
    if not _close(stats.total_cost, ledger.total_cost):
        raise CheckFailed(f"spot stats total {stats.total_cost} != "
                          f"ledger total {ledger.total_cost}")


def dag_volumes_match(graph, input_bytes: int, report) -> None:
    """Each stage processed exactly the volume the graph's ratios predict."""
    want = graph.stage_volumes(input_bytes)
    for name, res in report.stages.items():
        got = (sum(r.volume for r in res.report.runs)
               + sum(f.volume for f in res.report.failures))
        if got != want[name]:
            raise CheckFailed(f"stage {name} processed {got} B, "
                              f"plan says {want[name]} B")
    if set(report.stages) != set(want):
        raise CheckFailed(f"stages run {sorted(report.stages)} != "
                          f"graph stages {sorted(want)}")


def dag_bill_matches(ledger, report) -> None:
    """The DAG's compute bill is the ledger's ceil-hour total."""
    records_are_ceil_hour(ledger)
    if not _close(report.compute_cost_usd, ledger.total_cost):
        raise CheckFailed(f"DAG compute bill {report.compute_cost_usd} != "
                          f"ledger total {ledger.total_cost}")
