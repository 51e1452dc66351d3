"""Tests for the DAG scheduler: stage chaining, policies, flight record."""

import numpy as np
import pytest

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, Workload
from repro.core import WorkflowError, WorkflowStage
from repro.core.planner import StaticProvisioner
from repro.corpus import html_18mil_like
from repro.dag import (
    DagScheduler,
    EbsBackend,
    LocalDiskBackend,
    S3Backend,
    WorkflowGraph,
    execute_dag,
    fanout_pipeline,
    linear_pipeline,
)
from repro.fleet import LeaseManager
from repro.obs import configure, disable
from repro.obs.ledger import capture_runs
from repro.perfmodel.regression import fit_affine
from repro.runner.execute import execute_plan
from repro.units import HOUR

SCALE = 5e-5


def _affine(a, b):
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def _grep_stage(name="grep", ratio=1.0):
    return WorkflowStage(
        name=name,
        workload=Workload("grep", GrepApplication("economy"),
                          GrepCostProfile()),
        predictor=_affine(0.2, 1.3e-8), output_ratio=ratio)


def _single_stage_graph():
    g = WorkflowGraph()
    g.add_stage(_grep_stage())
    return g


class TestBasicRuns:
    def test_linear_pipeline_runs_every_stage(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        rep = execute_dag(cloud, linear_pipeline(), cat, 6 * HOUR)
        assert set(rep.stages) == {"filter", "extract", "tokenize", "tag",
                                   "aggregate"}
        assert rep.makespan > 0
        assert rep.compute_cost_usd > 0
        assert rep.backend == "local" and rep.mode == "concurrent"

    def test_consumers_start_after_producer_output_is_available(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        rep = execute_dag(cloud, linear_pipeline(), cat, 6 * HOUR,
                          backend=S3Backend())
        order = ["filter", "extract", "tokenize", "tag", "aggregate"]
        for prod, cons in zip(order, order[1:]):
            assert rep.stages[cons].ready_at >= rep.stages[prod].available_at

    def test_transfers_one_put_per_producer_one_get_per_edge(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        g = fanout_pipeline()
        rep = execute_dag(cloud, g, cat, 6 * HOUR, backend=S3Backend())
        puts = [t for t in rep.transfers if t.kind == "put"]
        gets = [t for t in rep.transfers if t.kind == "get"]
        # every stage with successors puts once; every edge gets once
        producers = {p for p, _ in g.edges()}
        assert len(puts) == len(producers)
        assert len(gets) == len(g.edges())

    def test_empty_stage_is_a_noop(self):
        g = WorkflowGraph()
        g.add_stage(_grep_stage("drop", ratio=0.0))
        g.add_stage(_grep_stage("starved"), after=["drop"])
        cloud = Cloud(seed=3)
        cat = html_18mil_like(scale=SCALE, seed=3)
        rep = execute_dag(cloud, g, cat, 2 * HOUR)
        assert rep.stages["starved"].report.runs == []
        assert rep.n_failed == 0

    def test_deterministic(self):
        def run(seed):
            cloud = Cloud(seed=seed)
            cat = html_18mil_like(scale=SCALE, seed=seed)
            return execute_dag(cloud, fanout_pipeline(), cat, 6 * HOUR,
                               backend=EbsBackend()).summary()

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_validation(self):
        cloud = Cloud(seed=1)
        cat = html_18mil_like(scale=SCALE, seed=1)
        with pytest.raises(WorkflowError):
            DagScheduler(cloud, linear_pipeline(), cat, 6 * HOUR, mode="bogus")
        with pytest.raises(WorkflowError):
            DagScheduler(cloud, linear_pipeline(), cat, 6 * HOUR,
                         policy="bogus")
        with pytest.raises(WorkflowError):
            DagScheduler(cloud, WorkflowGraph(), cat, 6 * HOUR)


class TestDifferentialBilling:
    def test_local_disk_single_stage_matches_execute_plan_exactly(self):
        """A one-stage DAG over the free backend IS a single-plan run:
        same instances, same durations, same ceil-hour bill."""
        stage = _grep_stage()
        cat = html_18mil_like(scale=SCALE, seed=21)
        units = list(cat)

        ref_cloud = Cloud(seed=21)
        plan = StaticProvisioner(stage.predictor).plan(units, 1 * HOUR)
        ref = execute_plan(ref_cloud, stage.workload, plan)

        dag_cloud = Cloud(seed=21)
        rep = execute_dag(dag_cloud, _single_stage_graph(), cat, 1 * HOUR,
                          backend=LocalDiskBackend())
        got = rep.stages["grep"].report

        assert rep.transfer_cost == 0.0 and rep.transfer_seconds == 0.0
        assert got.instance_hours == ref.instance_hours
        assert got.cost == ref.cost
        assert got.makespan == ref.makespan
        assert [(r.instance_id, r.duration, r.volume) for r in got.runs] == \
               [(r.instance_id, r.duration, r.volume) for r in ref.runs]
        assert dag_cloud.ledger.total_cost == ref_cloud.ledger.total_cost

    def test_compute_identical_across_backends(self):
        """Backend draws live on their own forks, so swapping the backend
        moves only the transfers — never the compute."""
        def stage_runs(backend):
            cloud = Cloud(seed=11)
            cat = html_18mil_like(scale=SCALE, seed=11)
            rep = execute_dag(cloud, linear_pipeline(), cat, 6 * HOUR,
                              backend=backend)
            return {n: [(r.instance_id, r.duration) for r in s.report.runs]
                    for n, s in rep.stages.items()}, rep.compute_cost_usd

        local = stage_runs(LocalDiskBackend())
        s3 = stage_runs(S3Backend())
        ebs = stage_runs(EbsBackend())
        assert local == s3 == ebs


class TestModes:
    def test_concurrent_beats_serial_on_the_fanout_dag(self):
        def run(mode):
            cloud = Cloud(seed=11)
            cat = html_18mil_like(scale=SCALE, seed=11)
            return execute_dag(cloud, fanout_pipeline(), cat, 6 * HOUR,
                               mode=mode).makespan

        assert run("concurrent") < run("serial")

    def test_serial_stages_never_overlap(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        rep = execute_dag(cloud, fanout_pipeline(), cat, 6 * HOUR,
                          mode="serial")
        spans = sorted((s.ready_at, s.stage_end) for s in rep.stages.values())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end


class TestSinkOutput:
    @pytest.mark.parametrize("mode", ["concurrent", "serial"])
    @pytest.mark.parametrize("shape", [linear_pipeline, fanout_pipeline])
    def test_only_stages_with_data_successors_derive_output(
            self, monkeypatch, shape, mode):
        from repro.dag import scheduler

        real = scheduler.derived_catalogue
        calls = []

        def counting(source, stage, seed_tag):
            calls.append(stage.name)
            return real(source, stage, seed_tag=seed_tag)

        monkeypatch.setattr(scheduler, "derived_catalogue", counting)
        g = shape()
        rep = execute_dag(Cloud(seed=11), g, html_18mil_like(scale=SCALE, seed=11),
                          6 * HOUR, backend=S3Backend(), mode=mode)
        producers = {p for p, _ in g.edges()}
        assert len(producers) == 4
        assert sorted(calls) == sorted(producers)
        assert g.sinks() == ["aggregate"] and "aggregate" not in calls
        assert rep.stages["aggregate"].put is None


class TestLeasedPolicy:
    def test_leased_dag_reuses_instances_across_stages(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        rep = execute_dag(cloud, linear_pipeline(), cat, 6 * HOUR,
                          policy="leased")
        assert rep.lease_stats is not None
        # Warm hand-offs between stage campaigns are the whole point.
        assert rep.lease_stats["cross_campaign_hits"] > 0

    def test_shared_manager_is_not_shut_down(self):
        cloud = Cloud(seed=11)
        cat = html_18mil_like(scale=SCALE, seed=11)
        manager = LeaseManager(cloud, tag="shared")
        DagScheduler(cloud, linear_pipeline(), cat, 6 * HOUR,
                     policy="leased", lease_manager=manager).run()
        # caller owns the manager: leases drained but pool still usable
        manager.shutdown()


class TestFlightRecorder:
    def test_run_emits_a_dag_record_with_stage_phases(self):
        configure(trace=True, metrics=True)
        try:
            with capture_runs() as ledger:
                cloud = Cloud(seed=11)
                cat = html_18mil_like(scale=SCALE, seed=11)
                execute_dag(cloud, fanout_pipeline(), cat, 6 * HOUR,
                            backend=S3Backend(), label="dag.test")
            recs = [r for r in ledger.records() if r.kind == "dag"]
            assert len(recs) == 1
            rec = recs[0]
            assert rec.label == "dag.test"
            assert set(rec.profile["phases"]) == {
                "filter", "extract", "tokenize", "tag", "aggregate"}
            assert rec.deadline["bins"] > 0
            assert rec.extra["transfers"]["count"] == len(
                fanout_pipeline().edges()) + 4  # gets + one put per producer
            assert rec.config["backend"] == "s3"
        finally:
            disable()

    def test_stage_spans_land_on_the_tracer(self):
        configure(trace=True, metrics=True)
        try:
            cloud = Cloud(seed=11)
            cat = html_18mil_like(scale=SCALE, seed=11)
            execute_dag(cloud, linear_pipeline(), cat, 6 * HOUR,
                        backend=S3Backend())
            names = {s.name for s in cloud.obs.tracer.spans}
            assert "dag.stage.run" in names
            assert "dag.transfer.put" in names
            assert "dag.transfer.get" in names
        finally:
            disable()
