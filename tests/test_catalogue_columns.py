"""Columnar catalogues behave like catalogues built from their files.

A catalogue from :func:`derived_catalogue`, :meth:`Catalogue.take` or
:meth:`Catalogue.concat` holds columns and builds its rows on demand; a
catalogue built from a list of files holds the rows.  Given the same
files, both must agree on everything a caller can see, and the planner
must lay a catalogue out exactly as it lays out the list of its files.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import GrepApplication, GrepCostProfile
from repro.apps.base import UnitColumns
from repro.cloud import Workload
from repro.core import StaticProvisioner, WorkflowStage, derived_catalogue
from repro.core.planner import ProvisioningPlan
from repro.perfmodel.regression import fit_affine
from repro.sim.random import RngStream
from repro.units import HOUR
from repro.vfs.files import Catalogue, TextStats, VirtualFile

_X = np.array([1e5, 1e6, 1e7])
_PREDICTOR = fit_affine(_X, 0.1 + 1e-5 * _X)
_STAGE = WorkflowStage("s", Workload("grep", GrepApplication(), GrepCostProfile()),
                       _PREDICTOR, output_ratio=1.0)

stats = st.builds(
    TextStats,
    avg_word_len=st.floats(0.5, 20.0),
    avg_sentence_words=st.floats(1.0, 80.0),
    markup_fraction=st.floats(0.0, 0.999),
)
files = st.lists(st.tuples(st.integers(1, 200_000), stats,
                           st.integers(0, 2**64 - 1)), max_size=40)


def _source(rows) -> Catalogue:
    return Catalogue([VirtualFile(f"d/{i:03d}", n, s, seed)
                      for i, (n, s, seed) in enumerate(rows)], name="src")


def _pair(rows):
    """(columnar catalogue, catalogue built from copies of the same files)."""
    lazy = derived_catalogue(_source(rows), _STAGE, seed_tag="t")
    twin = derived_catalogue(_source(rows), _STAGE, seed_tag="t")
    eager = Catalogue([VirtualFile(f.path, f.size, f.stats, f.content_seed)
                       for f in twin], name=lazy.name)
    return lazy, eager


def _facts(cat) -> list[tuple]:
    return [(f.path, f.size, f.stats, f.content_seed, type(f)) for f in cat]


class TestSameFilesSameCatalogue:
    @given(files, st.integers(-1, 3_000_000), st.integers(0, 2**32),
           st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_columnar_agrees_with_rows(self, rows, volume, seed, parts):
        lazy, eager = _pair(rows)
        assert len(lazy) == len(eager)
        assert np.array_equal(lazy.sizes(), eager.sizes())
        assert lazy.sizes().dtype == eager.sizes().dtype == np.int64
        assert lazy.total_size == eager.total_size
        assert lazy.fingerprint() == eager.fingerprint()
        assert lazy.paths() == eager.paths()
        for a, b in zip(lazy.stat_columns(), eager.stat_columns()):
            assert np.array_equal(a, b) and a.dtype == b.dtype == np.float64
        assert _facts(lazy.head_by_volume(volume)) == _facts(
            eager.head_by_volume(volume))
        v = max(volume, 0)
        exclude = set(lazy.paths()[::3])
        for ex in (None, exclude):
            a = lazy.sample_by_volume(v, RngStream(seed, name="s"), exclude=ex)
            b = eager.sample_by_volume(v, RngStream(seed, name="s"), exclude=ex)
            assert _facts(a) == _facts(b)
        big = lambda f: f.size > 1000  # noqa: E731
        assert _facts(lazy.filter(big)) == _facts(eager.filter(big))
        assert ([_facts(p) for p in lazy.partition_volumes(parts)]
                == [_facts(p) for p in eager.partition_volumes(parts)])
        assert _facts(lazy.sorted_by_size(descending=True)) == _facts(
            eager.sorted_by_size(descending=True))
        assert _facts(lazy) == _facts(eager)
        assert lazy.items() == eager.items()

    @given(files, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_views_share_rows(self, rows, rnd):
        for cat in _pair(rows):
            order = list(range(len(cat)))
            rnd.shuffle(order)
            view = cat.take(order)
            assert [f.path for f in view] == [cat.paths()[j] for j in order]
            assert all(view[k] is cat[j] for k, j in enumerate(order))
            if len(cat):
                assert cat[-1] is cat[len(cat) - 1]
            with pytest.raises(IndexError):
                cat[len(cat)]

    @given(files.filter(bool))
    @settings(max_examples=30, deadline=None)
    def test_repeated_positions_raise(self, rows):
        for cat in _pair(rows):
            with pytest.raises(ValueError, match="distinct"):
                cat.take([0, 0])
            with pytest.raises(ValueError, match="distinct"):
                cat.derive([0, 0], [1, 1], prefix="x/", seed_tag="t", name="x")


class TestConcat:
    @given(files.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_colliding_path_raises(self, rows):
        lazy, eager = _pair(rows)
        with pytest.raises(ValueError, match="duplicate path"):
            Catalogue.concat([lazy, lazy])
        with pytest.raises(ValueError, match="duplicate path"):
            Catalogue.concat([lazy, eager.take([len(eager) - 1])])

    @given(files, files)
    @settings(max_examples=60, deadline=None)
    def test_concat_agrees_with_rows(self, left, right):
        a = derived_catalogue(_source(left), _STAGE, seed_tag="t")
        b = derived_catalogue(_source(right), WorkflowStage(
            "r", _STAGE.workload, _PREDICTOR), seed_tag="u")
        joined = Catalogue.concat([a, b], name="j")
        eager = Catalogue(list(a) + list(b), name="j")
        assert np.array_equal(joined.sizes(), eager.sizes())
        assert joined.paths() == eager.paths()
        assert _facts(joined) == _facts(eager)


class TestPickle:
    @given(files.filter(bool))
    @settings(max_examples=30, deadline=None)
    def test_lazy_catalogues_and_bins_pickle(self, rows):
        lazy, eager = _pair(rows)
        joined = Catalogue.concat([lazy.take(range(0, len(lazy), 2)),
                                   lazy.take(range(1, len(lazy), 2))])
        for cat in (lazy, joined):
            back = pickle.loads(pickle.dumps(cat))
            assert _facts(back) == _facts(cat)
        plan = StaticProvisioner(_PREDICTOR).plan(lazy, HOUR, strategy="uniform")
        bins = pickle.loads(pickle.dumps(plan.assignments))
        for got, want in zip(bins, plan.assignments):
            assert np.array_equal(got.size, want.size)
            assert _facts(got) == _facts(want)


class TestPlanner:
    @given(files.filter(bool), st.sampled_from(["first-fit", "uniform", "hour-pack"]),
           st.floats(0.2, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_catalogue_and_its_list_plan_alike(self, rows, strategy, hours):
        lazy, _ = _pair(rows)
        prov = StaticProvisioner(_PREDICTOR)
        deadline = max(hours, 1.0) * HOUR if strategy == "hour-pack" else hours * HOUR
        by_cat = prov.plan(lazy, deadline, strategy=strategy)
        by_list = prov.plan(list(lazy), deadline, strategy=strategy)
        assert by_cat.predicted_times == by_list.predicted_times
        assert by_cat.n_instances == by_list.n_instances
        for a, b in zip(by_cat.assignments, by_list.assignments):
            assert isinstance(a, UnitColumns) and isinstance(b, UnitColumns)
            assert [u is v for u, v in zip(a, b)] == [True] * len(b)
            assert len(a) == len(b)
            for col in ("size", "avg_word_len", "avg_sentence_words",
                        "markup_fraction", "n_members"):
                assert np.array_equal(getattr(a, col), getattr(b, col))
        assert by_cat.total_volume == by_list.total_volume == lazy.total_size


class TestBins:
    @given(files.filter(bool), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_popping_a_bin_drops_its_unit_everywhere(self, rows, seed):
        for units in _pair(rows):
            plan = StaticProvisioner(_PREDICTOR).plan(units, HOUR,
                                                      strategy="uniform")
            b = plan.assignments[0]
            i = seed % len(b)
            want = list(b)
            sizes = b.size.tolist()
            assert b.pop(i) is want.pop(i)
            assert list(b) == want and len(b) == len(want)
            assert b.size.tolist() == sizes[:i] + sizes[i + 1:]
            assert np.array_equal(b.size, UnitColumns.of(want).size)
            assert plan.total_volume == units.total_size - sizes[i]

    def test_plan_bins_given_as_lists_become_columns(self):
        lazy, eager = _pair([(100, TextStats(4.0, 10.0, 0.0), 1),
                             (250, TextStats(5.0, 12.0, 0.2), 2)])
        bins = StaticProvisioner(_PREDICTOR).plan(lazy, HOUR).assignments
        plan = ProvisioningPlan(
            deadline=HOUR, planning_deadline=HOUR, strategy="first-fit",
            predictor_name="affine", assignments=[list(eager), bins[0], []])
        assert all(isinstance(b, UnitColumns) for b in plan.assignments)
        assert plan.assignments[1] is bins[0]
        assert [len(b) for b in plan.assignments] == [2, len(bins[0]), 0]
        assert plan.total_volume == 350 + bins[0].volume
