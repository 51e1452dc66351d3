"""Columnar plan execution: one engine event advances N instances.

The scalar runners schedule one completion event per bin — fine at 64
instances, hopeless at 100k.  This runner applies the PR-1 reshaping move
to fleet *state*: the fleet is an :class:`~repro.cloud.instance.InstanceColumn`
(parallel numpy arrays of boot delays and hidden factors), reference work
per bin is a numpy vector, and the whole campaign is exactly **two**
engine events —

1. ``column-ready`` at the fleet boot barrier: marks the column RUNNING
   and computes every member's measured duration in one vectorized
   :meth:`~repro.cloud.service.ExecutionService.run_column` call;
2. ``column-complete`` at the makespan: bulk-fills the
   :class:`~repro.runner.core.FleetTimeline` (one ``argsort`` instead of
   N callbacks), retires the column and writes one aggregate
   :class:`~repro.cloud.billing.ColumnUsage` ledger record.

Determinism: everything descends from ``column.*`` / ``exec.column.*``
RNG forks — namespaces the scalar path never touches — so columnar runs
are reproducible per seed *and* adding them to a campaign leaves every
scalar runner's draws byte-identical.  They are not draw-identical to N
scalar launches (different fork shapes, by design); the scalar-vs-columnar
contract is semantic, pinned by ``tests/test_columnar.py``: identical
duration composition given identical hidden state, identical ceil-hour
billing arithmetic, identical timeline ordering.

Scalar-path nuance that does **not** exist here, by design: per-instance
chaos faults, EBS placement factors, straggler/crash recovery.  Columnar
fleets model the homogeneous happy path whose cost is pure scale — the
regime where the paper's 100k-fleet questions live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.billing import ColumnUsage
from repro.cloud.cluster import Cloud
from repro.cloud.instance import InstanceColumn
from repro.cloud.service import ExecutionService, Workload
from repro.cloud.types import SMALL, InstanceType
from repro.core.planner import ProvisioningPlan
from repro.obs.ledger import (
    RunRecord,
    encode_metrics_dump,
    get_run_ledger,
    span_rollup,
)
from repro.runner.core import FleetTimeline

__all__ = ["ColumnarReport", "execute_plan_columnar", "execute_uniform_fleet"]


@dataclass
class ColumnarReport:
    """Outcome of one columnar fleet run.

    The vector analogue of :class:`~repro.runner.execute.ExecutionReport`:
    per-member durations stay a numpy array instead of ``InstanceRun``
    objects, and billing is the single aggregate ledger record.
    """

    column_id: str
    deadline: float
    work_start: float             # the fleet boot barrier (absolute)
    durations: np.ndarray         # measured processing seconds per member
    ends: np.ndarray              # absolute completion times per member
    timeline: FleetTimeline = field(default_factory=FleetTimeline)
    billing: ColumnUsage | None = None

    @property
    def n_instances(self) -> int:
        return int(self.durations.size)

    @property
    def makespan(self) -> float:
        return float(self.durations.max()) if self.durations.size else 0.0

    @property
    def n_missed(self) -> int:
        """Members whose processing time exceeded the deadline."""
        return int((self.durations > self.deadline).sum())

    @property
    def instance_hours(self) -> int:
        return self.billing.hours if self.billing is not None else 0

    @property
    def cost(self) -> float:
        return self.billing.cost if self.billing is not None else 0.0


def _reference_vectors(workload: Workload,
                       plan: ProvisioningPlan) -> tuple[list, np.ndarray, np.ndarray]:
    """Per-occupied-bin reference (io, cpu) seconds from the ground truth."""
    occupied = [(i, units) for i, units in enumerate(plan.assignments) if units]
    io_ref = np.empty(len(occupied))
    cpu_ref = np.empty(len(occupied))
    for row, (_, units) in enumerate(occupied):
        b = workload.breakdown(units)
        io_ref[row] = b.io
        cpu_ref[row] = b.cpu
    return occupied, io_ref, cpu_ref


def _execute_column(
    cloud: Cloud,
    workload: Workload,
    column: InstanceColumn,
    io_ref: np.ndarray,
    cpu_ref: np.ndarray,
    *,
    deadline: float,
    service: ExecutionService | None,
    bill: bool,
    label: str = "columnar",
) -> ColumnarReport:
    """Drive one column through its two engine events; return the report."""
    svc = service or ExecutionService(cloud)
    engine = cloud.engine
    wall0 = time.perf_counter()
    sim0, fired0 = engine.now, engine.events_fired
    report = ColumnarReport(
        column_id=column.column_id, deadline=deadline,
        work_start=column.barrier,
        durations=np.empty(0), ends=np.empty(0),
    )

    def column_ready() -> None:
        column.mark_running_all(engine.now)
        durations = svc.run_column(column, workload, io_ref, cpu_ref)
        report.work_start = engine.now
        report.durations = durations
        report.ends = engine.now + durations
        engine.schedule_at(float(report.ends.max()), column_complete,
                           label=f"column-complete:{column.column_id}")

    def column_complete() -> None:
        # Bulk timeline fill: the argsort is the N completion callbacks
        # of the scalar runners collapsed into one event.  Ties keep
        # member order (stable sort), matching scalar (time, seq) order.
        ends = report.ends
        order = np.argsort(ends, kind="stable")
        n = ends.size
        record = report.timeline.record
        for rank, i in enumerate(order):
            record(float(ends[i]), n - rank - 1, rank + 1)
        if bill:
            report.billing = cloud.terminate_column(column, ends)
        else:
            column.terminate_all(ends)

    engine.schedule_at(column.barrier, column_ready,
                       label=f"column-ready:{column.column_id}")
    engine.run(until=column.barrier)
    if report.ends.size:
        engine.run(until=float(report.ends.max()))
    ledger = get_run_ledger()
    if ledger is not None:
        obs = cloud.obs
        wall_s = time.perf_counter() - wall0
        fired = engine.events_fired - fired0
        n = report.n_instances
        ledger.append(RunRecord(
            kind="columnar",
            label=label,
            config={
                "seed": getattr(cloud.rng, "seed", None),
                "scheduler": engine.scheduler,
                "instances": n,
                "itype": column.itype.name,
                "bill": bill,
            },
            metrics=(encode_metrics_dump(obs.metrics.dump())
                     if obs.metrics.enabled else []),
            spans=span_rollup(obs.tracer) if obs.tracer.enabled else {},
            billing=cloud.ledger.summary(),
            deadline={
                "deadline_s": deadline,
                "makespan_s": report.makespan,
                "margin_s": deadline - report.makespan,
                "missed": report.n_missed,
                "bins": n,
                "miss_rate": (report.n_missed / n) if n else 0.0,
            },
            profile={
                "wall_s": wall_s,
                "sim_start": sim0,
                "sim_end": engine.now,
                "sim_s": engine.now - sim0,
                "events_fired": fired,
                "events_per_s": fired / wall_s if wall_s > 0 else 0.0,
            },
        ))
    return report


def execute_plan_columnar(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    itype: InstanceType = SMALL,
    service: ExecutionService | None = None,
    bill: bool = True,
) -> ColumnarReport:
    """Run a provisioning plan with one column instead of per-bin instances.

    One column member per occupied bin; reference breakdowns come from the
    same ground-truth profile the scalar runners charge, so per-member
    durations have the identical composition (setup + io/io_factor +
    cpu/cpu_factor, noised) over columnar-drawn hidden state.
    """
    occupied, io_ref, cpu_ref = _reference_vectors(workload, plan)
    if not occupied:
        return ColumnarReport(column_id="c-empty", deadline=plan.deadline,
                              work_start=cloud.now,
                              durations=np.empty(0), ends=np.empty(0))
    column = cloud.launch_column(len(occupied), itype=itype)
    return _execute_column(cloud, workload, column, io_ref, cpu_ref,
                           deadline=plan.deadline, service=service, bill=bill,
                           label="execute_plan_columnar")


def execute_uniform_fleet(
    cloud: Cloud,
    workload: Workload,
    n_instances: int,
    units: list,
    *,
    deadline: float = float("inf"),
    itype: InstanceType = SMALL,
    service: ExecutionService | None = None,
    bill: bool = True,
) -> ColumnarReport:
    """Run ``n_instances`` members over one shared bin of ``units``.

    The homogeneous-fleet fast path: the reference breakdown is computed
    once and broadcast, so cost is O(n) numpy work — this is what the
    100k-instance bench drives.
    """
    if n_instances <= 0:
        raise ValueError(f"fleet size must be positive, got {n_instances}")
    b = workload.breakdown(units)
    io_ref = np.full(n_instances, b.io)
    cpu_ref = np.full(n_instances, b.cpu)
    column = cloud.launch_column(n_instances, itype=itype)
    return _execute_column(cloud, workload, column, io_ref, cpu_ref,
                           deadline=deadline, service=service, bill=bill,
                           label="execute_uniform_fleet")
