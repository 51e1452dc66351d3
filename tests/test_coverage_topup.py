"""Targeted tests for corners the broader suites leave uncovered."""

import numpy as np
import pytest

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
    UnitColumns,
    UnitMeta,
)
from repro.cloud import Cloud, Workload
from repro.cloud.spot import SpotMarket
from repro.core import TextWorkflow, WorkflowStage, execute_workflow
from repro.corpus import html_18mil_like
from repro.perfmodel.regression import XLogXPredictor, fit_affine
from repro.sim.random import RngStream
from repro.units import HOUR
from repro.vfs import Segment, TextStats, VirtualFile


class TestWorkflowFanIn:
    def test_fan_in_execution_merges_inputs(self):
        def affine(a, b):
            x = np.array([1e5, 1e6, 1e7])
            return fit_affine(x, a + b * x)

        wf = TextWorkflow()
        wf.add_stage(WorkflowStage(
            "left", Workload("grep", GrepApplication("alpha"), GrepCostProfile()),
            affine(0.2, 1.3e-8), output_ratio=0.3))
        wf.add_stage(WorkflowStage(
            "right", Workload("grep", GrepApplication("beta"), GrepCostProfile()),
            affine(0.2, 1.3e-8), output_ratio=0.2))
        wf.add_stage(WorkflowStage(
            "merge", Workload("extract", ExtractorApplication(), ExtractCostProfile()),
            affine(0.3, 3e-8)), after=["left", "right"])
        cat = html_18mil_like(scale=1e-5)
        report = execute_workflow(Cloud(seed=4), wf, cat, 3 * HOUR)
        v_merge = sum(r.volume for r in report.stage_reports["merge"].runs)
        assert v_merge == pytest.approx(int(0.3 * cat.total_size)
                                        + int(0.2 * cat.total_size), rel=0.01)


class TestSpotStartPrice:
    def test_start_price_honoured(self):
        m = SpotMarket(rng=RngStream(2), start_price=0.09)
        assert m.price(0) == 0.09

    def test_reversion_pulls_toward_mean(self):
        m = SpotMarket(rng=RngStream(2), start_price=0.2, volatility=0.0)
        prices = m.prices(30)
        assert prices[-1] == pytest.approx(m.mean_price, rel=0.05)
        assert all(a >= b for a, b in zip(prices, prices[1:]))

    def test_market_validation(self):
        with pytest.raises(ValueError):
            SpotMarket(rng=RngStream(1), reversion=0.0)
        with pytest.raises(ValueError):
            SpotMarket(rng=RngStream(1), mean_price=0.0)


class TestXLogXCorners:
    def test_inverse_with_zero_a_falls_back_to_power(self):
        p = XLogXPredictor(a=0.0, b=2.0)
        p.x = np.array([1.0, 2.0])
        p.y = p._f(p.x)
        assert p.inverse(p.predict(9.0)) == pytest.approx(9.0, rel=1e-9)

    def test_inverse_rejects_nonpositive(self):
        from repro.perfmodel.regression import FitError

        p = XLogXPredictor(a=0.1, b=0.5)
        with pytest.raises(FitError):
            p.inverse(0.0)


class TestUnitMetaValidation:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnitMeta(size=-1, stats=TextStats())

    def test_unit_columns_reject_foreign_types(self):
        with pytest.raises(TypeError):
            UnitColumns.of(["not a unit"])

    def test_unit_columns_of_segment_aggregate(self):
        a = VirtualFile(path="a", size=100,
                        stats=TextStats(avg_sentence_words=10.0), content_seed=0)
        b = VirtualFile(path="b", size=300,
                        stats=TextStats(avg_sentence_words=30.0), content_seed=1)
        cols = UnitColumns.of([Segment("s", (a, b))])
        assert cols.n_members[0] == 2
        assert cols.avg_sentence_words[0] == pytest.approx(25.0)


class TestWorkAccountValidation:
    def test_negative_counter_rejected(self):
        from repro.apps import WorkAccount

        w = WorkAccount(files_opened=-1)
        with pytest.raises(ValueError):
            w.validate()

    def test_addition(self):
        from repro.apps import WorkAccount

        total = WorkAccount(tokens=3, context_ops=1.5) + WorkAccount(tokens=4)
        assert total.tokens == 7 and total.context_ops == 1.5


class TestProfilesMatchesKwargParity:
    def test_pos_profile_accepts_matches(self):
        """Interface parity: both profiles take the matches kwarg."""
        p = PosCostProfile()
        meta = UnitMeta(size=1000, stats=TextStats())
        assert p.breakdown([meta], matches=5).total == p.breakdown([meta]).total


class TestInstanceRunBoot:
    def test_missed_with_boot_included(self):
        from repro.runner import InstanceRun

        run = InstanceRun(instance_id="i", n_units=1, volume=1,
                          boot_delay=200.0, duration=3500.0, predicted=3000.0)
        assert not run.missed(3600.0)
        assert run.missed(3600.0, include_boot=True)
