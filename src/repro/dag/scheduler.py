"""Event-driven DAG scheduling over the execution core.

The single-plan runners drive one fleet from launch to wind-down; this
scheduler runs a whole :class:`~repro.dag.graph.WorkflowGraph`, every
*ready* stage concurrently, on one simulation engine:

* each stage is an ``acquire → work → complete`` chain of engine events
  under a :class:`~repro.runner.core.StagePolicy` (the same
  acquisition/progress/completion protocols a single-plan run uses —
  the core's :meth:`~repro.runner.core.ExecutionCore.build_context` /
  :meth:`~repro.runner.core.ExecutionCore.process` split is what lets
  several stages be in flight at once);
* inter-stage data moves through a pluggable
  :class:`~repro.dag.backends.DataBackend` — one ``put`` per producer
  (fan-out broadcasts the stored copy), one ``get`` per consuming edge,
  each priced and timed on the cloud's deterministic streams;
* subdeadlines come from the §7 full-hour apportionment
  (:func:`~repro.core.workflow.assign_subdeadlines`), so each stage's
  provisioner plans against an hour-aligned budget;
* the clock is driven exclusively through ``cloud.advance`` toward a
  monotone horizon, so chaos AZ-outage onsets step exactly as they do
  for every other runner.

``mode="serial"`` adds a control dependency from each stage to its
topological predecessor — stages never overlap, which is the §7 barrier
baseline the concurrent scheduler is measured against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cloud.cluster import Cloud
from repro.cloud.instance import InstanceState
from repro.cloud.service import ExecutionService
from repro.core.planner import StaticProvisioner
from repro.core.workflow import (
    WorkflowError,
    WorkflowStage,
    assign_subdeadlines,
    derived_catalogue,
)
from repro.dag.backends import DataBackend, LocalDiskBackend, TransferRecord
from repro.dag.graph import WorkflowGraph
from repro.fleet.lease import LeaseManager
from repro.obs.ledger import (
    RunRecord,
    encode_metrics_dump,
    get_run_ledger,
    span_rollup,
)
from repro.runner.core import CoreContext, ExecutionCore, StagePolicy
from repro.runner.execute import ExecutionReport
from repro.vfs.files import Catalogue, VirtualFile

__all__ = ["DagReport", "DagScheduler", "StageResult", "execute_dag"]


@dataclass
class StageResult:
    """One stage's execution facts inside a DAG run."""

    name: str
    report: ExecutionReport
    ready_at: float           # all inputs arrived
    work_start: float         # fleet barrier / first lease grant
    stage_end: float          # last bin completion
    available_at: float       # output persisted (stage_end + put time)
    put: TransferRecord | None = None

    @property
    def span_seconds(self) -> float:
        """Ready-to-available wall of this stage on the simulated clock."""
        return self.available_at - self.ready_at


@dataclass
class DagReport:
    """Everything one DAG run produced."""

    deadline: float
    subdeadlines: dict[str, float]
    backend: str
    mode: str
    started_at: float = 0.0
    finished_at: float = 0.0
    compute_cost_usd: float = 0.0
    stages: dict[str, StageResult] = field(default_factory=dict)
    transfers: list[TransferRecord] = field(default_factory=list)
    lease_stats: dict | None = None
    spot_stats: dict | None = None

    @property
    def makespan(self) -> float:
        """End-to-end simulated seconds, transfers included."""
        return self.finished_at - self.started_at

    @property
    def transfer_cost(self) -> float:
        return sum(t.cost_usd for t in self.transfers)

    @property
    def transfer_seconds(self) -> float:
        return sum(t.seconds for t in self.transfers)

    @property
    def total_cost(self) -> float:
        """Compute bill (ceil-hour ledger delta) plus data-sharing cost."""
        return self.compute_cost_usd + self.transfer_cost

    @property
    def n_bins(self) -> int:
        return sum(len(s.report.runs) + len(s.report.failures)
                   for s in self.stages.values())

    @property
    def n_missed(self) -> int:
        """Instances that overran their stage's subdeadline."""
        return sum(s.report.n_missed for s in self.stages.values())

    @property
    def n_failed(self) -> int:
        return sum(s.report.n_failed for s in self.stages.values())

    @property
    def met_deadline(self) -> bool:
        return self.makespan <= self.deadline and self.n_failed == 0

    def summary(self) -> dict:
        """Headline DAG facts in one flat dict."""
        return {
            "backend": self.backend,
            "mode": self.mode,
            "stages": len(self.stages),
            "makespan_s": round(self.makespan, 1),
            "deadline_s": self.deadline,
            "met": self.met_deadline,
            "missed": self.n_missed,
            "failed": self.n_failed,
            "transfer_s": round(self.transfer_seconds, 1),
            "compute_usd": round(self.compute_cost_usd, 4),
            "transfer_usd": round(self.transfer_cost, 4),
            "total_usd": round(self.total_cost, 4),
        }


@dataclass
class _StageState:
    """Scheduler-internal bookkeeping for one stage in flight."""

    stage: WorkflowStage
    ready_at: float = 0.0
    core: ExecutionCore | None = None
    ctx: CoreContext | None = None
    policy: StagePolicy | None = None
    stage_input: Catalogue | None = None
    wall_s: float = 0.0


class DagScheduler:
    """Run a workflow graph, ready stages concurrently, on one engine."""

    def __init__(
        self,
        cloud: Cloud,
        graph: WorkflowGraph,
        catalogue: Catalogue,
        deadline: float,
        *,
        backend: DataBackend | None = None,
        mode: str = "concurrent",
        policy: str = "fleet",
        stage_policies: dict[str, StagePolicy] | None = None,
        lease_manager: LeaseManager | None = None,
        spot_policy=None,
        strategy: str = "uniform",
        hour_align: bool = True,
        service: ExecutionService | None = None,
        label: str = "dag",
    ) -> None:
        if mode not in ("concurrent", "serial"):
            raise WorkflowError("mode must be 'concurrent' or 'serial'")
        if policy not in ("fleet", "leased", "spot", "spot-lease"):
            raise WorkflowError(
                "policy must be 'fleet', 'leased', 'spot' or 'spot-lease'")
        if not len(graph):
            raise WorkflowError("empty workflow")
        self.cloud = cloud
        self.graph = graph
        self.catalogue = catalogue
        self.deadline = deadline
        self.backend = backend if backend is not None else LocalDiskBackend()
        self.mode = mode
        self.policy = policy
        self.stage_policies = stage_policies or {}
        self.strategy = strategy
        self.hour_align = hour_align
        self.svc = service or ExecutionService(cloud)
        self.label = label
        self._own_manager = (policy in ("leased", "spot-lease")
                             and lease_manager is None)
        self.manager = (lease_manager if lease_manager is not None
                        else LeaseManager(cloud, tag=label)
                        if policy in ("leased", "spot-lease") else None)
        # Spot policies share one market board, ladder and stats object
        # across every stage, so the whole DAG sees a coherent market;
        # "spot-lease" escalates interrupted segments into the shared
        # warm pool before paying list price.
        self.spot_stats = None
        self._spot = None
        if policy in ("spot", "spot-lease"):
            from repro.capacity import (
                LadderBroker,
                OnDemandBroker,
                WarmLeaseBroker,
            )
            from repro.cloud.spot import SpotMarketBoard
            from repro.resilience.spot import SpotFallbackPolicy, SpotLadder
            from repro.runner.spot import SpotRunStats

            board = SpotMarketBoard.for_cloud(cloud)
            ladder = SpotLadder(
                board,
                policy=(spot_policy if spot_policy is not None
                        else SpotFallbackPolicy()),
                chaos=cloud.chaos)
            self.spot_stats = SpotRunStats()
            escalation = None
            if policy == "spot-lease":
                escalation = LadderBroker([
                    WarmLeaseBroker(self.manager, tenant="spot-escalation"),
                    OnDemandBroker(),
                ])
            self._spot = (board, ladder, escalation)
        # run state
        self._states: dict[str, _StageState] = {}
        self._produced: dict[str, Catalogue] = {}
        self._arrival: dict[str, float] = {}
        self._pending: dict[str, int] = {}
        self._results: dict[str, StageResult] = {}
        self._transfers: list[TransferRecord] = []
        self._horizon = 0.0
        self._topo = [s.name for s in graph.stages()]
        # Serial mode: a control edge chains each stage to its topological
        # predecessor (no data moves along it), so stages never overlap.
        self._control: dict[str, list[str]] = {n: [] for n in self._topo}
        if mode == "serial":
            for prev, nxt in zip(self._topo, self._topo[1:]):
                if prev not in graph.predecessors(nxt):
                    self._control[prev].append(nxt)

    # -- plumbing ----------------------------------------------------------

    def _schedule(self, at: float, fn, label: str) -> None:
        """Engine schedule that keeps the drain horizon monotone."""
        self._horizon = max(self._horizon, at)
        self.cloud.engine.schedule_at(at, fn, label=label)

    def _policy_for(self, name: str) -> StagePolicy:
        override = self.stage_policies.get(name)
        if override is not None:
            return override
        if self._spot is not None:
            # Fresh acquisition per stage (per-bin offers must not collide
            # across stages), shared board/ladder/stats underneath.
            board, ladder, escalation = self._spot
            return StagePolicy.spot(board, ladder, stats=self.spot_stats,
                                    chaos=self.cloud.chaos,
                                    escalation=escalation)
        if self.manager is not None:
            return StagePolicy.leased(self.manager, tenant=name,
                                      campaign=f"stage:{name}")
        return StagePolicy.fleet()

    def _control_preds(self, name: str) -> list[str]:
        return [p for p, succs in self._control.items() if name in succs]

    # -- the run -----------------------------------------------------------

    def run(self) -> DagReport:
        """Execute the whole graph; returns the DAG report.

        When a run ledger is active the run also emits one
        :class:`~repro.obs.ledger.RunRecord` of kind ``"dag"`` whose
        profile carries per-stage wall/sim phases.
        """
        cloud = self.cloud
        wall0 = time.perf_counter()
        fired0 = cloud.engine.events_fired
        t0 = cloud.now
        cost0 = cloud.ledger.total_cost
        subdeadlines = assign_subdeadlines(
            self.graph, self.catalogue.total_size, self.deadline,
            hour_align=self.hour_align)
        self._horizon = t0
        for name in self._topo:
            self._states[name] = _StageState(stage=self.graph.stage(name))
            self._arrival[name] = t0
            self._pending[name] = (len(self.graph.predecessors(name))
                                   + len(self._control_preds(name)))
        self._subdeadlines = subdeadlines
        for name in self._topo:
            if self._pending[name] == 0:
                self._schedule(t0, self._handler(name, self._acquire),
                               f"dag.acquire:{name}")
        engine = cloud.engine
        while engine.pending:
            target = max(self._horizon, cloud.now)
            cloud.advance(target - cloud.now)
        if self.manager is not None and self._own_manager:
            self.manager.shutdown()
        report = DagReport(
            deadline=self.deadline,
            subdeadlines=subdeadlines,
            backend=self.backend.name,
            mode=self.mode,
            started_at=t0,
            finished_at=max((r.available_at for r in self._results.values()),
                            default=t0),
            compute_cost_usd=cloud.ledger.total_cost - cost0,
            stages=dict(self._results),
            transfers=list(self._transfers),
            lease_stats=self.manager.stats() if self.manager else None,
            spot_stats=(self.spot_stats.summary()
                        if self.spot_stats is not None else None),
        )
        ledger = get_run_ledger()
        if ledger is not None:
            self._emit_record(ledger, report,
                              wall_s=time.perf_counter() - wall0,
                              events_fired=engine.events_fired - fired0)
        return report

    def _handler(self, name: str, fn):
        """Wrap a stage event handler with per-stage wall accounting."""
        def handle() -> None:
            t = time.perf_counter()
            try:
                fn(name)
            finally:
                self._states[name].wall_s += time.perf_counter() - t
        return handle

    # -- stage events ------------------------------------------------------

    def _acquire(self, name: str) -> None:
        """All inputs arrived: plan the stage and obtain its capacity."""
        st = self._states[name]
        st.ready_at = self.cloud.now
        preds = self.graph.predecessors(name)
        if preds:
            merged: list[VirtualFile] = []
            for p in preds:
                merged.extend(self._produced[p])
            st.stage_input = Catalogue(merged, name=f"input->{name}")
        else:
            st.stage_input = self.catalogue
        units = list(st.stage_input)
        sub = self._subdeadlines[name]
        if not units:
            # Nothing survived the upstream filters: the stage is a no-op.
            st.ctx = None
            self._finish_stage(name, ExecutionReport(deadline=sub,
                                                     strategy=self.strategy),
                               stage_end=self.cloud.now)
            return
        plan = StaticProvisioner(st.stage.predictor).plan(
            units, sub, strategy=self.strategy)
        st.policy = self._policy_for(name)
        st.core = ExecutionCore(
            self.cloud, st.stage.workload, plan,
            acquisition=st.policy.acquisition,
            progress=st.policy.progress,
            completion=st.policy.completion,
            service=self.svc,
            label=f"{self.label}.{name}",
        )
        st.ctx = st.core.build_context()
        st.policy.acquisition.acquire_fleet(st.ctx)
        st.policy.completion.after_acquisition(st.ctx)
        start = st.policy.acquisition.work_start_time(st.ctx)
        if start is None:
            self._finish_stage(name, st.ctx.report, stage_end=self.cloud.now)
            return
        self._schedule(max(start, self.cloud.now),
                       self._handler(name, self._work), f"dag.work:{name}")

    def _work(self, name: str) -> None:
        """Fleet barrier: process every bin; schedule stage completion."""
        st = self._states[name]
        st.core.process(st.ctx)
        stage_end = max(st.ctx.ends, default=self.cloud.now)
        self._schedule(stage_end, self._handler(name, self._complete),
                       f"dag.complete:{name}")

    def _complete(self, name: str) -> None:
        """Last bin done: wind the stage down and persist its output."""
        st = self._states[name]
        ctx = st.ctx
        if st.policy is not None and st.policy.terminate_at_stage_end:
            # Billing already happened per bin in settle_bin; this is the
            # state-only retirement StaticCompletion.finalize performs.
            for g in ctx.grants:
                if g.instance.state is InstanceState.RUNNING:
                    g.instance.terminate(self.cloud.now)
        self._finish_stage(name, ctx.report, stage_end=self.cloud.now,
                           work_start=ctx.work_start)

    def _finish_stage(self, name: str, report: ExecutionReport, *,
                      stage_end: float, work_start: float | None = None) -> None:
        """Persist output, notify successors, record the stage result."""
        st = self._states[name]
        consumers = self.graph.successors(name)
        put_rec: TransferRecord | None = None
        available = stage_end
        if consumers:
            # Only data successors read the output; a sink's volume is
            # already predicted by stage_volumes, so it is never derived.
            out = derived_catalogue(st.stage_input, st.stage, seed_tag=name)
            self._produced[name] = out
            put_rec = self.backend.put(self.cloud, name, out.total_size,
                                       len(out))
            self._transfers.append(put_rec)
            available = stage_end + put_rec.seconds
        result = StageResult(
            name=name, report=report, ready_at=st.ready_at,
            work_start=work_start if work_start is not None else st.ready_at,
            stage_end=stage_end, available_at=available, put=put_rec)
        self._results[name] = result
        obs = self.cloud.obs
        if obs.enabled:
            track = f"stage:{name}"
            obs.tracer.add_span("dag.stage.run", st.ready_at, stage_end,
                                cat="dag", track=track,
                                bins=len(report.runs),
                                missed=report.n_missed,
                                subdeadline=self._subdeadlines[name])
            obs.metrics.counter("dag.stages.completed",
                                backend=self.backend.name).inc()
            if put_rec is not None:
                if put_rec.seconds > 0:
                    obs.tracer.add_span("dag.transfer.put", stage_end,
                                        available, cat="dag", track=track,
                                        backend=put_rec.backend,
                                        bytes=put_rec.volume)
                obs.metrics.counter("dag.transfers", kind="put",
                                    backend=put_rec.backend).inc()
                obs.metrics.counter("dag.transfer.bytes", kind="put",
                                    backend=put_rec.backend
                                    ).inc(put_rec.volume)
        for c in consumers:
            get_rec = self.backend.get(self.cloud, name, c, out.total_size,
                                       len(out))
            self._transfers.append(get_rec)
            arrived = available + get_rec.seconds
            if obs.enabled:
                if get_rec.seconds > 0:
                    obs.tracer.add_span("dag.transfer.get", available,
                                        arrived, cat="dag",
                                        track=f"stage:{c}",
                                        backend=get_rec.backend,
                                        producer=name, bytes=get_rec.volume)
                obs.metrics.counter("dag.transfers", kind="get",
                                    backend=get_rec.backend).inc()
                obs.metrics.counter("dag.transfer.bytes", kind="get",
                                    backend=get_rec.backend
                                    ).inc(get_rec.volume)
            self._arrive(c, arrived)
        for c in self._control[name]:
            self._arrive(c, available)

    def _arrive(self, consumer: str, at: float) -> None:
        """One dependency of ``consumer`` satisfied at time ``at``."""
        self._arrival[consumer] = max(self._arrival[consumer], at)
        self._pending[consumer] -= 1
        if self._pending[consumer] == 0:
            self._schedule(max(self._arrival[consumer], self.cloud.now),
                           self._handler(consumer, self._acquire),
                           f"dag.acquire:{consumer}")

    # -- flight recording --------------------------------------------------

    def _emit_record(self, ledger, report: DagReport, *, wall_s: float,
                     events_fired: int) -> None:
        """One RunRecord for the whole DAG, per-stage phases in profile."""
        obs = self.cloud.obs
        n_bins = report.n_bins
        ledger.append(RunRecord(
            kind="dag",
            label=self.label,
            config={
                "backend": self.backend.name,
                "mode": self.mode,
                "policy": self.policy,
                "strategy": self.strategy,
                "seed": getattr(self.cloud.rng, "seed", None),
                "stages": list(self._topo),
                "edges": [list(e) for e in self.graph.edges()],
                "input_bytes": self.catalogue.total_size,
                "subdeadlines": {n: round(v, 1)
                                 for n, v in report.subdeadlines.items()},
            },
            metrics=(encode_metrics_dump(obs.metrics.dump())
                     if obs.metrics.enabled else []),
            spans=span_rollup(obs.tracer) if obs.tracer.enabled else {},
            billing=self.cloud.ledger.summary(),
            deadline={
                "deadline_s": report.deadline,
                "makespan_s": report.makespan,
                "margin_s": report.deadline - report.makespan,
                "missed": report.n_missed,
                "failed": report.n_failed,
                "bins": n_bins,
                "miss_rate": (report.n_missed / n_bins) if n_bins else 0.0,
            },
            profile={
                "wall_s": wall_s,
                "sim_s": report.makespan,
                "events_fired": events_fired,
                "events_per_s": events_fired / wall_s if wall_s > 0 else 0.0,
                "phases": {
                    name: {
                        "wall_s": self._states[name].wall_s,
                        "sim_s": res.span_seconds,
                    }
                    for name, res in report.stages.items()
                },
            },
            extra={
                "transfers": {
                    "count": len(report.transfers),
                    "seconds": report.transfer_seconds,
                    "bytes": sum(t.volume for t in report.transfers),
                    "cost_usd": report.transfer_cost,
                },
                "total_cost_usd": report.total_cost,
                **({"lease_stats": report.lease_stats}
                   if report.lease_stats else {}),
                **({"spot_stats": report.spot_stats}
                   if report.spot_stats else {}),
            },
        ))


def execute_dag(
    cloud: Cloud,
    graph: WorkflowGraph,
    catalogue: Catalogue,
    deadline: float,
    *,
    backend: DataBackend | None = None,
    mode: str = "concurrent",
    policy: str = "fleet",
    spot_policy=None,
    strategy: str = "uniform",
    hour_align: bool = True,
    service: ExecutionService | None = None,
    label: str = "dag",
) -> DagReport:
    """Plan and run a workflow graph end to end (one-call convenience).

    ``policy`` picks the per-stage broker stack: ``"fleet"`` private
    on-demand boots, ``"leased"`` a shared warm pool, ``"spot"`` the
    market behind the fallback ladder, ``"spot-lease"`` spot with
    escalated segments drawing warm leases before paying list price.
    """
    return DagScheduler(cloud, graph, catalogue, deadline, backend=backend,
                        mode=mode, policy=policy, spot_policy=spot_policy,
                        strategy=strategy, hour_align=hour_align,
                        service=service, label=label).run()
