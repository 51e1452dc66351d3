"""One sweep path vs the four per-campaign copies it replaced: exact equality.

The chaos, spot, DAG and matrix sweeps share one aggregate, one
cell→record projection and one SLO evaluator (``repro.experiments.sweep``
and ``repro.experiments.registry``); the per-campaign code they replaced
is frozen in ``tests/reference_sweeps.py``.  Two parts:

* hypothesis over synthetic cell dicts in each campaign's stats shape:
  aggregates, record sequences (every field, in order, key order
  included) and per-side SLO reports must be ``==``, and ``repro.cli
  runs slo`` must print what the old grouping loop printed;
* each real sweep on a reduced grid: its stats cells are the cells
  ``run_cell`` returns in the documented order, its aggregates and
  figure match, and the records it appends to the ledger are the
  oracle's records, one side after the other, followed by a roll-up
  carrying the oracle's SLO verdicts.

Record order matters: the SLO ``mean`` aggregates are order-sensitive
float sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.experiments import exp_chaos, exp_dag, exp_matrix, exp_spot
from repro.experiments.registry import cell_records, evaluate_slos
from repro.experiments.sweep import aggregate, deadline_outcome
from repro.obs.ledger import RunLedger, capture_runs
from repro.obs.slo import render_slo_table

from tests import reference_sweeps as ref

_SLOS = {"chaos": exp_chaos.CHAOS_SLOS, "spot": exp_spot.SPOT_SLOS,
         "dag": exp_dag.DAG_SLOS, "matrix": exp_matrix.MATRIX_SLOS}
_REF_RECORDS = {"chaos": ref.chaos_cell_records, "spot": ref.spot_cell_records,
                "dag": ref.dag_cell_records,
                "matrix": ref.matrix_cell_records}
_REF_SLOS = {"chaos": ref.evaluate_chaos_slos, "spot": ref.evaluate_spot_slos,
             "dag": ref.evaluate_dag_slos,
             "matrix": ref.evaluate_matrix_slos}
#: What ``runs slo`` grouped by and filtered on before the shared entry.
_REF_GROUPING = {"chaos": ("config.policy", "policy", "exp_chaos."),
                 "spot": ("config.policy", "policy", "exp_spot."),
                 "dag": ("config.backend", "backend", None),
                 "matrix": ("config.stack", "stack", "exp_matrix.")}


def _flat(by_side: dict) -> list:
    return [r for records in by_side.values() for r in records]


def _dumps(records) -> list[str]:
    """Every record field, key order included (no ``sort_keys``)."""
    return [json.dumps(r.to_dict()) for r in records]


def _deterministic(records) -> list[str]:
    return [json.dumps({k: v for k, v in r.to_dict().items()
                        if k not in ("run_id", "created_at", "profile")})
            for r in records]


def _reports(reports: dict) -> list:
    return [(side, rep.to_dict()) for side, rep in reports.items()]


# -- synthetic cells ---------------------------------------------------------

_money = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_ratio = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_faults = st.dictionaries(st.sampled_from(["launch", "boot", "ebs"]),
                          st.integers(0, 5), max_size=2)


@st.composite
def _outcome(draw, **fields) -> dict:
    bins = draw(st.integers(0, 30))
    missed = draw(st.integers(0, bins))
    cell = {k: draw(v) for k, v in fields.items()}
    cell.update(seed=draw(st.sampled_from([11, 23, 47, 111])), bins=bins,
                missed=missed, failed=draw(st.integers(0, missed)),
                miss_rate=round(missed / bins, 4) if bins else 0.0)
    return cell


def _sides(draw, names: list, sides: list, make) -> dict:
    """``{name: {side: aggregate-like}}`` with 1-3 cells per present side."""
    out: dict = {}
    for name in names:
        present = draw(st.permutations(sides).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda n: p[:n])))
        out[name] = {side: draw(st.lists(make(name, side), min_size=1,
                                         max_size=3))
                     for side in present}
    return out


_names = st.lists(st.sampled_from(["a", "b-2", "c.c", "d"]), min_size=1,
                  max_size=3, unique=True)


@st.composite
def chaos_stats(draw) -> dict:
    def make(name, policy):
        return _outcome(replaced=st.integers(0, 4),
                        retrieval_s=st.floats(0, 900, allow_nan=False),
                        cost_usd=_money, faults_injected=_faults).map(
            lambda c: {"scenario": name, "policy": policy, **c})
    cells = _sides(draw, draw(_names), ["on", "off"], make)
    return {name: {p: ref.chaos_aggregate(cs) for p, cs in per.items()}
            for name, per in cells.items()}


@st.composite
def spot_stats(draw) -> dict:
    def make(name, policy):
        return _outcome(bid=st.sampled_from([0.02, 0.06]),
                        slack=st.sampled_from([0.85, 1.0]),
                        cost_usd=_money, cost_ratio=_ratio,
                        interruptions=st.integers(0, 9),
                        escalations=st.integers(0, 3),
                        rebids=st.integers(0, 3),
                        faults_injected=_faults).map(
            lambda c: {"regime": name, "policy": policy, **c})
    cells = _sides(draw, draw(_names), ["on", "off"], make)
    return {"regimes": {name: {p: ref.spot_aggregate(cs)
                               for p, cs in per.items()}
                        for name, per in cells.items()},
            "grid": []}


@st.composite
def dag_stats(draw) -> dict:
    cell = _outcome(backend=st.sampled_from(["local", "s3", "ebs"]),
                    shape=st.sampled_from(["linear", "fanout"]),
                    mode=st.sampled_from(["concurrent", "serial"]),
                    makespan_s=st.floats(0, 9e4, allow_nan=False),
                    transfer_s=st.floats(0, 9e3, allow_nan=False),
                    transfer_usd=_money, total_usd=_money)
    return {"agg": {}, "speedup": {},
            "cells": draw(st.lists(cell, max_size=12))}


@st.composite
def matrix_stats(draw) -> dict:
    def make(stack, _):
        return _outcome(shape=st.sampled_from(["linear", "fanout"]),
                        regime=st.sampled_from(["calm", "choppy"]),
                        total_usd=_money, cost_ratio=_ratio,
                        interruptions=st.integers(0, 9),
                        escalations=st.integers(0, 3),
                        pool_hits=st.integers(0, 5),
                        faults_injected=_faults).map(
            lambda c: {"stack": stack, **c})
    stacks = draw(st.lists(st.sampled_from(["fleet", "spot", "spot-lease"]),
                           min_size=1, max_size=3, unique=True))
    cells = _sides(draw, stacks, ["all"], make)
    return {"stacks": {s: ref.matrix_aggregate(per["all"])
                       for s, per in cells.items()},
            "grid": []}


_STATS = {"chaos": chaos_stats, "spot": spot_stats, "dag": dag_stats,
          "matrix": matrix_stats}


class TestAggregate:
    @given(st.integers(0, 500).flatmap(lambda bins: st.tuples(
        st.just(bins), st.integers(0, bins), st.integers(0, bins))))
    def test_cell_deadline_fields(self, counts):
        bins, missed, failed = counts
        assert deadline_outcome(bins, missed, failed) == \
            ref.cell_deadline_fields(bins, missed, failed)

    @given(st.lists(_outcome(total_usd=_money,
                             makespan_s=st.floats(0, 9e4, allow_nan=False)),
                    min_size=1, max_size=8))
    def test_dag_shape_rollup_parts(self, cells):
        # dag_sweep takes its per-shape miss rate and mean bill from the
        # shared aggregate.
        want = ref.dag_shape_agg([dict(c, transfer_s=0.0) for c in cells])
        got = aggregate(cells, "total_usd")
        assert got["miss_rate"] == want["miss_rate"]
        assert got["mean_cost_usd"] == want["mean_total_usd"]

    @given(st.lists(_outcome(cost_usd=_money), min_size=1, max_size=8))
    def test_chaos_inline_aggregation(self, cells):
        assert aggregate(cells) == ref.chaos_aggregate(cells)
        assert list(aggregate(cells)) == list(ref.chaos_aggregate(cells))

    @given(st.lists(_outcome(cost_usd=_money, cost_ratio=_ratio),
                    min_size=1, max_size=8))
    def test_spot_aggregate(self, cells):
        assert aggregate(cells) == ref.spot_aggregate(cells)
        assert list(aggregate(cells)) == list(ref.spot_aggregate(cells))

    @given(st.lists(_outcome(total_usd=_money, cost_ratio=_ratio),
                    min_size=1, max_size=8))
    def test_matrix_aggregate(self, cells):
        got = aggregate(cells, "total_usd")
        assert got == ref.matrix_aggregate(cells)
        assert list(got) == list(ref.matrix_aggregate(cells))


class TestRecordsAndSlos:
    @pytest.mark.parametrize("name", sorted(_STATS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_records_and_verdicts_match(self, name, data):
        stats = data.draw(_STATS[name]())
        expected = _flat(_REF_RECORDS[name](stats))
        records = cell_records(name, stats)
        assert _dumps(records) == _dumps(expected)
        got = evaluate_slos(name, records)
        want = _REF_SLOS[name](stats, slos=_SLOS[name])
        assert _reports(got) == _reports(want)

    @pytest.mark.parametrize("name", sorted(_STATS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_cli_runs_slo_matches_old_grouping(self, name, data):
        # A ledger mixing every campaign's cells, as a shared ledger would.
        ledger_records = [r for n, make in _STATS.items()
                          for r in cell_records(n, data.draw(make()))]
        group_key, group_name, prefix = _REF_GROUPING[name]
        want = "".join(
            f"{group_name}={side}\n{render_slo_table(report)}\n\n"
            for side, report in ref.runs_slo_sides(
                ledger_records, slos=_SLOS[name], group_key=group_key,
                label_prefix=prefix))
        with tempfile.TemporaryDirectory() as root:
            ledger = RunLedger(root)
            for record in ledger_records:
                ledger.append(record)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main(["runs", "slo", "--policy", name,
                               "--runs-dir", root])
        assert rc == 0
        if want:
            assert out.getvalue() == want
        else:
            assert "no matching sweep-cell records" in out.getvalue()


# -- the real sweeps on reduced grids ----------------------------------------

SEEDS = (11,)


def _captured(sweep, *args, **kwargs):
    with capture_runs() as ledger:
        fig, stats = sweep(*args, seeds=SEEDS, **kwargs)
    return fig, stats, ledger.records()


def _assert_ledger(name, stats, records, kind="experiment"):
    """Oracle cell records, side by side, directly before the roll-up."""
    expected = _flat(_REF_RECORDS[name](stats))
    rollup = records[-1]
    cells = records[-1 - len(expected):-1]
    assert (rollup.kind, rollup.label) == (kind, f"exp_{name}")
    assert all(r.kind == "sweep-cell" for r in cells)
    assert sum(r.kind == "sweep-cell" for r in records) == len(expected)
    assert _deterministic(cells) == _deterministic(expected)
    want = _REF_SLOS[name](stats, slos=_SLOS[name])
    assert list(rollup.extra["slo"]) == list(want)
    assert rollup.extra["slo"] == {s: r.to_dict() for s, r in want.items()}


def _series(fig) -> dict:
    return {s.label: (list(s.x), list(s.y)) for s in fig.series}


class TestChaosSweep:
    # slow-ebs second: its resilience-on miss rate is the side's worst.
    NAMES = ["az-blackout", "slow-ebs"]

    @pytest.fixture(scope="class")
    def run(self):
        return _captured(exp_chaos.chaos_sweep, list(self.NAMES))

    def test_stats_cells_and_aggregates(self, run):
        _, stats, _ = run
        assert list(stats) == self.NAMES
        for name in self.NAMES:
            assert list(stats[name]) == ["on", "off"]
            for policy, agg in stats[name].items():
                assert agg["cells"] == [exp_chaos.run_cell(
                    name, resilience=policy == "on", seed=s) for s in SEEDS]
                assert agg == ref.chaos_aggregate(agg["cells"])

    def test_figure(self, run):
        fig, stats, _ = run
        series = _series(fig)
        for metric, key in (("miss rate", "miss_rate"),
                            ("mean cost (USD)", "mean_cost_usd")):
            for p in ("on", "off"):
                assert series[f"{metric} [{p}]"] == (
                    self.NAMES, [stats[n][p][key] for n in self.NAMES])
        worst = {p: max(stats[n][p]["miss_rate"] for n in self.NAMES)
                 for p in ("on", "off")}
        assert fig.notes == [
            f"resilience-on worst miss {worst['on']:.3f}; "
            f"resilience-off worst miss {worst['off']:.3f} "
            f"over 2 scenarios x 1 seeds"]

    def test_ledger(self, run):
        _, stats, records = run
        _assert_ledger("chaos", stats, records)
        assert records[-1].extra["worst_miss"] == {
            p: max(stats[n][p]["miss_rate"] for n in self.NAMES)
            for p in ("on", "off")}


class TestSpotSweep:
    NAMES = ["calm", "eviction-storm"]
    BIDS = (0.02, exp_spot.DEFAULT_BID)
    SLACKS = (exp_spot.DEFAULT_SLACK,)

    @pytest.fixture(scope="class")
    def run(self):
        return _captured(exp_spot.spot_sweep, list(self.NAMES),
                         bids=self.BIDS, slacks=self.SLACKS)

    @staticmethod
    def _cells(name, resilience, bid=exp_spot.DEFAULT_BID,
               slack=exp_spot.DEFAULT_SLACK):
        return [exp_spot.run_cell(name, resilience=resilience, bid=bid,
                                  slack=slack, seed=s) for s in SEEDS]

    def test_operating_point_cells_and_aggregates(self, run):
        _, stats, _ = run
        assert list(stats["regimes"]) == self.NAMES
        for name in self.NAMES:
            per = stats["regimes"][name]
            assert list(per) == ["on", "off"]
            for policy, agg in per.items():
                assert agg["cells"] == self._cells(name, policy == "on")
                assert agg == ref.spot_aggregate(agg["cells"])

    def test_sensitivity_grid(self, run):
        _, stats, _ = run
        rows = []
        for name in self.NAMES:
            for bid in self.BIDS:
                for slack in self.SLACKS:
                    agg = ref.spot_aggregate(
                        self._cells(name, True, bid, slack))
                    rows.append({"regime": name, "bid": bid, "slack": slack,
                                 "miss_rate": agg["miss_rate"],
                                 "mean_cost_usd": agg["mean_cost_usd"],
                                 "mean_cost_ratio": agg["mean_cost_ratio"]})
        assert stats["grid"] == rows

    def test_figure(self, run):
        fig, stats, _ = run
        series = _series(fig)
        for metric, key in (("miss rate", "miss_rate"),
                            ("cost vs on-demand", "mean_cost_ratio")):
            for p in ("on", "off"):
                assert series[f"{metric} [{p}]"] == (
                    self.NAMES,
                    [stats["regimes"][n][p][key] for n in self.NAMES])
        by_bid = [sum(g["miss_rate"] for g in stats["grid"]
                      if g["bid"] == b) / len(self.NAMES) for b in self.BIDS]
        assert series["miss rate by bid [on]"] == (
            [f"bid={b:g}" for b in self.BIDS], by_bid)
        assert "miss rate by slack [on]" not in series   # one slack only
        worst = {p: max(stats["regimes"][n][p]["miss_rate"]
                        for n in self.NAMES) for p in ("on", "off")}
        assert fig.notes == [
            f"ladder-on worst miss {worst['on']:.3f}; "
            f"naive-spot worst miss {worst['off']:.3f} "
            "over 2 regimes x 1 seeds"]

    def test_ledger_holds_operating_point_records_only(self, run):
        _, stats, records = run
        _assert_ledger("spot", stats, records)
        cells = [r for r in records if r.kind == "sweep-cell"]
        assert {r.get("config.bid") for r in cells} == {exp_spot.DEFAULT_BID}
        assert [r.get("config.policy") for r in cells] == \
            ["on", "on", "off", "off"]
        assert records[-1].extra["worst_miss"] == {
            p: max(stats["regimes"][n][p]["miss_rate"] for n in self.NAMES)
            for p in ("on", "off")}


class TestDagSweep:
    BACKENDS = ("local", "s3")
    SHAPES = ("fanout",)

    @pytest.fixture(scope="class")
    def run(self):
        return _captured(exp_dag.dag_sweep, self.BACKENDS, self.SHAPES)

    def test_cells_in_tag_order(self, run):
        _, stats, _ = run
        assert stats["cells"] == [
            exp_dag.run_cell(b, shape, seed=s, mode=mode)
            for b in self.BACKENDS for shape in self.SHAPES
            for mode in ("concurrent", "serial") for s in SEEDS]

    def test_rollups(self, run):
        _, stats, _ = run
        for b in self.BACKENDS:
            for shape in self.SHAPES:
                assert stats["agg"][b][shape] == ref.dag_shape_agg(
                    [c for c in stats["cells"] if c["backend"] == b
                     and c["shape"] == shape and c["mode"] == "concurrent"])
            serial = [c["makespan_s"] for c in stats["cells"]
                      if c["backend"] == b and c["mode"] == "serial"]
            assert stats["speedup"][b] == round(
                sum(serial) / len(serial)
                / stats["agg"][b]["fanout"]["mean_makespan_s"], 4)

    def test_figure(self, run):
        fig, stats, _ = run
        series = _series(fig)
        agg = stats["agg"]
        assert series["makespan s [fanout]"] == (
            list(self.BACKENDS),
            [agg[b]["fanout"]["mean_makespan_s"] for b in self.BACKENDS])
        assert series["total USD [fanout]"] == (
            list(self.BACKENDS),
            [agg[b]["fanout"]["mean_total_usd"] for b in self.BACKENDS])
        assert fig.notes == [
            "stage-concurrent vs serial on the fan-out DAG: " + ", ".join(
                f"{b} {s:.2f}x" for b, s in stats["speedup"].items())]

    def test_ledger_holds_concurrent_records_only(self, run):
        _, stats, records = run
        _assert_ledger("dag", stats, records)
        cells = [r for r in records if r.kind == "sweep-cell"]
        assert [r.get("config.mode") for r in cells] == ["concurrent"] * 2
        assert records[-1].extra["speedup"] == stats["speedup"]


class TestMatrixSweep:
    STACKS = ["fleet", "spot"]
    SHAPES = ("linear", "fanout")
    REGIMES = ("calm", "eviction-storm")

    @pytest.fixture(scope="class")
    def run(self):
        return _captured(exp_matrix.matrix_sweep, list(self.STACKS),
                         shapes=self.SHAPES, regimes=self.REGIMES)

    def test_cells_in_tag_insertion_order(self, run):
        # Per stack: regime, then shape, then seed — not the grid's
        # shape-then-regime order.
        _, stats, _ = run
        assert list(stats["stacks"]) == self.STACKS
        for stack, agg in stats["stacks"].items():
            assert agg["cells"] == [
                exp_matrix.run_cell(stack, shape, regime, seed=s)
                for regime in self.REGIMES for shape in self.SHAPES
                for s in SEEDS]
            assert agg == ref.matrix_aggregate(agg["cells"])

    def test_grid_and_figure(self, run):
        fig, stats, _ = run
        rows = []
        for stack in self.STACKS:
            for regime in self.REGIMES:
                agg = ref.matrix_aggregate(
                    [c for c in stats["stacks"][stack]["cells"]
                     if c["regime"] == regime])
                rows.append({"stack": stack, "regime": regime,
                             "miss_rate": agg["miss_rate"],
                             "mean_cost_usd": agg["mean_cost_usd"],
                             "mean_cost_ratio": agg["mean_cost_ratio"]})
        assert stats["grid"] == rows
        series = _series(fig)
        for metric, key in (("miss rate", "miss_rate"),
                            ("cost vs on-demand", "mean_cost_ratio")):
            for stack in self.STACKS:
                assert series[f"{metric} [{stack}]"] == (
                    list(self.REGIMES),
                    [g[key] for g in rows if g["stack"] == stack])
        spot = [g["mean_cost_ratio"] for g in rows if g["stack"] == "spot"]
        assert fig.notes == [
            f"spot stacks cost {min(spot):.3f}-{max(spot):.3f} of "
            "on-demand over 2 regimes x 2 shapes x 1 seeds"]

    def test_ledger(self, run):
        _, stats, records = run
        _assert_ledger("matrix", stats, records, kind="matrix")
        cells = [r for r in records if r.kind == "sweep-cell"]
        assert [(r.get("config.regime"), r.get("config.shape"))
                for r in cells[:4]] == [
            (regime, shape) for regime in self.REGIMES
            for shape in self.SHAPES]
        assert records[-1].extra["cost_ratio_vs_on_demand"] == {
            s: stats["stacks"][s]["mean_cost_ratio"] for s in self.STACKS}
        assert records[-1].extra["worst_miss"] == {
            s: max(g["miss_rate"] for g in stats["grid"] if g["stack"] == s)
            for s in self.STACKS}
