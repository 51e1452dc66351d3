"""Tests for WorkflowGraph: DAG topology and edge-volume accounting."""

import networkx as nx
import numpy as np
import pytest

from repro.core import WorkflowError, WorkflowStage
from repro.dag import WorkflowGraph, fanout_pipeline, linear_pipeline
from repro.perfmodel.regression import fit_affine


class TestTopology:
    def test_linear_shape(self):
        g = linear_pipeline()
        assert [s.name for s in g.stages()] == [
            "filter", "extract", "tokenize", "tag", "aggregate"]
        assert g.roots() == ["filter"]
        assert g.sinks() == ["aggregate"]
        assert g.successors("tokenize") == ["tag"]
        assert len(g.edges()) == 4

    def test_fanout_shape(self):
        g = fanout_pipeline()
        assert g.successors("extract") == ["tag", "tokenize"]
        assert g.predecessors("aggregate") == ["tag", "tokenize"]
        assert g.roots() == ["filter"]
        assert g.sinks() == ["aggregate"]
        assert ("extract", "tag") in g.edges()
        assert ("extract", "tokenize") in g.edges()

    def test_unknown_stage_raises(self):
        with pytest.raises(WorkflowError):
            linear_pipeline().successors("nope")

    def test_empty_graph(self):
        g = WorkflowGraph()
        assert g.roots() == [] and g.sinks() == [] and g.edges() == []


class TestVolumes:
    def test_output_volumes_follow_ratios(self):
        g = linear_pipeline(keep=0.5)
        vin = 1_000_000
        outs = g.output_volumes(vin)
        vols = g.stage_volumes(vin)
        for s in g.stages():
            assert outs[s.name] == int(s.output_ratio * vols[s.name])

    def test_edge_volume_is_broadcast_producer_output(self):
        g = fanout_pipeline()
        vin = 2_000_000
        outs = g.output_volumes(vin)
        edges = g.edge_volumes(vin)
        # Fan-out: both consumers see the producer's FULL output (one
        # stored copy read twice), not a split of it.
        assert edges[("extract", "tokenize")] == outs["extract"]
        assert edges[("extract", "tag")] == outs["extract"]

    def test_fan_in_consumes_sum_of_producers(self):
        g = fanout_pipeline()
        vin = 2_000_000
        outs = g.output_volumes(vin)
        vols = g.stage_volumes(vin)
        assert vols["aggregate"] == outs["tokenize"] + outs["tag"]


class TestSetUpCaching:
    def test_stage_models_are_fit_once_and_equal(self):
        a, b = linear_pipeline(), fanout_pipeline()
        grid = np.array([0.0, 1.0, 1e3, 1e5, 1e6, 1e7, 1e9, 3.7e10])
        for name in ("filter", "extract", "tokenize", "tag", "aggregate"):
            pa, pb = a.stage(name).predictor, b.stage(name).predictor
            assert (pa.a, pa.b) == (pb.a, pb.b)
            assert np.array_equal(pa.predict(grid), pb.predict(grid))

    def test_cached_model_equals_a_fresh_fit(self):
        x = np.array([1e5, 1e6, 1e7])
        fresh = fit_affine(x, 3.0 + 1.4e-4 * x)
        cached = linear_pipeline().stage("tag").predictor
        assert (cached.a, cached.b) == (fresh.a, fresh.b)
        grid = np.linspace(0.0, 1e9, 17)
        assert np.array_equal(cached.predict(grid), fresh.predict(grid))

    def test_stage_order_follows_added_stages(self):
        g = linear_pipeline()
        before = [s.name for s in g.stages()]
        extra = g.stage("aggregate")
        g.add_stage(WorkflowStage("report", extra.workload, extra.predictor),
                    after=["aggregate"])
        assert [s.name for s in g.stages()] == before + ["report"]
        g.add_stage(WorkflowStage("audit", extra.workload, extra.predictor))
        assert [s.name for s in g.stages()][0] == "audit"
        # Callers get their own list: mutating it leaves the graph alone.
        g.stages().clear()
        assert len(g.stages()) == 7

    def test_stage_order_after_a_rejected_stage(self):
        g = linear_pipeline()
        extra = g.stage("aggregate")
        with pytest.raises(WorkflowError):
            g.add_stage(WorkflowStage("late", extra.workload, extra.predictor),
                        after=["nope"])
        assert [s.name for s in g.stages()] == list(
            nx.lexicographical_topological_sort(g._graph))

