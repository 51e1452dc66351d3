"""Numpy byte split and one-shot seed vs the frozen per-file loops: bit equality.

``derived_catalogue`` apportions a stage's output bytes in numpy and
``stable_seed`` hashes its input in one BLAKE2b call; the seed versions
they replaced live on in ``tests/reference_derived.py``.  Every output
file's path, size, stats, content seed and type, and the catalogue's
name and total, must be ``==`` to the reference: DAG bills, transfer
volumes and every derived corpus seed are pure functions of them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Workload
from repro.core import WorkflowStage, derived_catalogue
from repro.perfmodel.regression import fit_affine
from repro.sim.random import stable_seed
from repro.vfs.files import Catalogue, TextStats, VirtualFile

from tests.reference_derived import (
    reference_derived_catalogue,
    reference_stable_seed,
)

_WORKLOAD = Workload("grep", GrepApplication(), GrepCostProfile())
_X = np.array([1e5, 1e6, 1e7])
_PREDICTOR = fit_affine(_X, 0.1 + 1e-8 * _X)

HTML = TextStats(avg_word_len=5.5, avg_sentence_words=20.0, markup_fraction=0.4)
PLAIN = TextStats()
MAX_SEED = 2**128 - 1


def _stage(ratio: float, *, strips: bool = False, name: str = "s") -> WorkflowStage:
    return WorkflowStage(name, _WORKLOAD, _PREDICTOR, output_ratio=ratio,
                         strips_markup=strips)


def _catalogue(sizes, stats=PLAIN, seeds=None, name="cat") -> Catalogue:
    seeds = seeds if seeds is not None else range(len(sizes))
    return Catalogue([VirtualFile(f"f{i:03d}", n, stats, seed)
                      for i, (n, seed) in enumerate(zip(sizes, seeds))],
                     name=name)


def _rows(cat: Catalogue) -> list[tuple]:
    return [(f.path, f.size, f.stats, f.content_seed, type(f), type(f.size),
             type(f.content_seed)) for f in cat]


def assert_same(source: Catalogue, stage: WorkflowStage, tag: str) -> Catalogue:
    got = derived_catalogue(source, stage, seed_tag=tag)
    want = reference_derived_catalogue(source, stage, seed_tag=tag)
    assert got.name == want.name
    assert got.total_size == want.total_size
    assert _rows(got) == _rows(want)
    return got


sizes = st.one_of(
    st.sampled_from([0, 1, 10, 40, 50, 99, 100]),
    st.integers(0, 10_000),
    st.integers(0, 2 * 10**9),
)
stats = st.builds(
    TextStats,
    avg_word_len=st.floats(0.5, 20.0),
    avg_sentence_words=st.floats(1.0, 80.0),
    markup_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.999999)),
)
ratios = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-9, 0.1, 0.3, 0.7, 0.95, 1.0 - 2**-52]),
    st.floats(0.0, 1.0),
)
seeds = st.one_of(st.sampled_from([0, 2**64 - 1, MAX_SEED]),
                  st.integers(0, MAX_SEED))
names = st.text(min_size=0, max_size=12)
files = st.tuples(sizes, stats, seeds)


class TestDerivedCatalogueProperties:
    @given(st.lists(files, max_size=40), ratios, st.booleans(), names)
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_reference(self, rows, ratio, strips, tag):
        source = Catalogue(
            [VirtualFile(f"d/{i}", n, s, seed)
             for i, (n, s, seed) in enumerate(rows)], name="src")
        assert_same(source, _stage(ratio, strips=strips), tag)

    @given(st.lists(st.integers(0, 200).map(lambda k: 10 * k), min_size=1,
                    max_size=30), st.sampled_from([0.1, 0.3, 0.7, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_round_sizes_hit_both_rounding_directions(self, rows, ratio):
        # Multiples of ten at decimal ratios land shares on exact integers
        # or a ulp off them, which is where the claw-back loop triggers.
        assert_same(_catalogue(rows), _stage(ratio), "t")

    @given(seeds, names)
    @settings(max_examples=300, deadline=None)
    def test_stable_seed_matches_two_update_hash(self, parent, name):
        assert stable_seed(parent, name) == reference_stable_seed(parent, name)


class TestPinnedCases:
    def test_claw_back_takes_a_byte_back(self):
        # int(50*.7) + int(40*.7) == 63 but int(90*.7) == 62.
        out = assert_same(_catalogue([50, 40]), _stage(0.7), "t")
        assert out.total_size == 62
        assert [f.size for f in out] == [35, 27]

    def test_claw_back_skips_zero_size_files(self):
        out = assert_same(_catalogue([50, 40, 0]), _stage(0.7), "t")
        assert [f.size for f in out] == [35, 27]

    def test_leftover_bytes_break_ties_in_catalogue_order(self):
        # Equal fractional parts: the leftover goes to the first files.
        out = assert_same(_catalogue([3] * 7), _stage(0.5), "t")
        assert out.total_size == 10
        assert [f.size for f in out] == [2, 2, 2, 1, 1, 1, 1]

    def test_zero_size_files_are_dropped(self):
        out = assert_same(_catalogue([0, 5, 0, 9]), _stage(1.0), "t")
        assert [f.path for f in out] == ["s/f001", "s/f003"]

    def test_empty_catalogue(self):
        out = assert_same(_catalogue([]), _stage(0.7), "t")
        assert len(out) == 0 and out.total_size == 0

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1e-9])
    def test_edge_ratios(self, ratio):
        assert_same(_catalogue([0, 1, 7, 10**6, 2 * 10**9]), _stage(ratio), "t")

    @pytest.mark.parametrize("stats", [PLAIN, HTML])
    def test_strips_markup(self, stats):
        out = assert_same(_catalogue([100, 200], stats), _stage(0.9, strips=True),
                          "t")
        assert all(f.stats.markup_fraction == 0.0 for f in out)
        if stats is PLAIN:
            assert all(f.stats is PLAIN for f in out)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, MAX_SEED])
    def test_extreme_seeds(self, seed):
        assert_same(_catalogue([10, 20], seeds=[seed, seed]), _stage(0.5), "t")
        assert stable_seed(seed, "x") == reference_stable_seed(seed, "x")

    def test_non_ascii_names(self):
        assert_same(_catalogue([10, 20], name="Korpus-ß"),
                    _stage(0.5, name="étape-语"), "résumé-⌈P⌉")
        assert stable_seed(7, "ünïcode-语") == reference_stable_seed(7, "ünïcode-语")


# -- chains, fan-in and bytes -------------------------------------------------
#
# The columnar catalogue builds a derived row only when one is asked for,
# from its source's row: a chain of derivations resolves through every
# ancestor.  Each check below compares those lazily built rows with the
# reference applied stage by stage to materialised rows.


def _reference_concat(parts, name):
    return Catalogue([f for p in parts for f in p], name=name)


stage_specs = st.tuples(ratios, st.booleans(), names)


def _chain(source, specs, derive):
    out = source
    for k, (ratio, strips, tag) in enumerate(specs):
        out = derive(out, _stage(ratio, strips=strips, name=f"s{k}"), tag)
    return out


class TestChainsAndFanIn:
    @given(st.lists(files, max_size=25), st.lists(stage_specs, min_size=2,
                                                  max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_derive_of_derive_matches_reference_chain(self, rows, specs):
        source = Catalogue(
            [VirtualFile(f"d/{i}", n, s, seed)
             for i, (n, s, seed) in enumerate(rows)], name="src")
        got = _chain(source, specs, lambda c, s, t: derived_catalogue(c, s, seed_tag=t))
        want = _chain(source, specs, reference_derived_catalogue)
        assert got.name == want.name
        assert got.total_size == want.total_size
        assert _rows(got) == _rows(want)

    @given(st.lists(files, min_size=1, max_size=25), stage_specs, stage_specs,
           stage_specs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_fan_in_concat_matches_reference(self, rows, up, left, right, rnd):
        source = Catalogue(
            [VirtualFile(f"d/{i}", n, s, seed)
             for i, (n, s, seed) in enumerate(rows)], name="src")

        def diamond(derive, concat):
            mid = derive(source, _stage(up[0], strips=up[1], name="mid"), up[2])
            a = derive(mid, _stage(left[0], strips=left[1], name="a"), left[2])
            b = derive(mid, _stage(right[0], strips=right[1], name="b"), right[2])
            joined = concat([a, b], "input->join")
            return derive(joined, _stage(0.5, name="join"), "join")

        got = diamond(lambda c, s, t: derived_catalogue(c, s, seed_tag=t),
                      Catalogue.concat)
        want = diamond(reference_derived_catalogue, _reference_concat)
        # Ask for rows out of order first: a row is the same whichever
        # order rows are built in, and is built once.
        order = list(range(len(got)))
        rnd.shuffle(order)
        for i in order:
            assert got[i] is got[i]
        assert _rows(got) == _rows(want)

    def test_materialized_bytes_match_reference(self):
        source = _catalogue([800, 3000, 0, 1200, 5000, 64, 2048], HTML,
                            seeds=[7, 2**64 - 1, 3, MAX_SEED, 11, 0, 99])
        specs = [(0.9, True, "x"), (0.7, False, "y"), (0.95, False, "z")]
        got = _chain(source, specs, lambda c, s, t: derived_catalogue(c, s, seed_tag=t))
        want = _chain(source, specs, reference_derived_catalogue)
        assert _rows(got) == _rows(want)
        for i in (0, 2, len(want) - 1):
            data = got[i].materialize()
            assert data == want[i].materialize()
            assert len(data) == want[i].size

    def test_lazy_rows_share_source_stats(self):
        # A derived row carries its source row's stats object unless markup
        # is stripped, exactly as the per-file loop did.
        source = _catalogue([100, 200, 300], PLAIN)
        out = derived_catalogue(derived_catalogue(source, _stage(0.9), "a"),
                                _stage(0.9, strips=True, name="t"), "b")
        assert all(f.stats is PLAIN for f in out)
