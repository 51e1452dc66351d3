"""Columnar cost models vs the frozen per-unit scalar loops: bit equality.

The cost models price a bin's units as numpy columns; the seed loops they
replaced live on in ``tests/reference_cost_models.py``.  Every
``WorkAccount`` counter, ``TimeBreakdown.io``/``cpu`` and segment statistic
must be ``==`` to the reference — not approximately equal — because the
simulator's bills, deadlines and EXPERIMENTS.md are pure functions of them.
"""

from __future__ import annotations

from dataclasses import astuple, fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
    UnitColumns,
    UnitMeta,
    WorkAccount,
)
from repro.vfs.files import Segment, TextStats, VirtualFile

from tests.reference_cost_models import (
    reference_breakdown,
    reference_estimate_work,
    reference_memory_penalty,
    reference_meta,
    reference_segment_size,
    reference_segment_stats,
)

KNEE = PosCostProfile().mem_penalty_knee

sizes = st.one_of(
    st.sampled_from([0, 1, KNEE - 1, KNEE, KNEE + 1]),
    st.integers(0, 10_000),
    st.integers(0, 2 * 10**9),
)
stats = st.builds(
    TextStats,
    avg_word_len=st.floats(0.5, 20.0),
    # Below one word per sentence the tagger floors the context length.
    avg_sentence_words=st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 80.0)),
    markup_fraction=st.one_of(
        st.floats(0.0, 0.999999),
        st.sampled_from([0.0, 0.5, 0.9999999, 1.0 - 2**-40, 1.0 - 2**-52]),
    ),
)
files = st.builds(VirtualFile, path=st.just("f"), size=sizes, stats=stats)
member_lists = st.lists(files, max_size=12)


@st.composite
def segments(draw):
    members = tuple(draw(member_lists))
    try:
        reference_segment_stats(members)
    except ValueError:
        # Aggregated markup rounded up to 1.0: both versions reject it.
        with pytest.raises(ValueError):
            Segment("s", members)
        assume(False)
    return Segment("s", members)


metas = st.builds(UnitMeta, size=sizes, stats=stats, n_members=st.integers(0, 50))
units = st.lists(st.one_of(files, segments(), metas), max_size=30)

apps = st.one_of(
    st.builds(GrepApplication,
              expected_hit_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.05))),
    st.just(PosTaggerApplication()),
    st.just(ExtractorApplication()),
)
profiles = st.one_of(
    st.just(GrepCostProfile()),
    st.builds(PosCostProfile, mem_penalty_knee=st.sampled_from([KNEE, 1, 4096])),
    st.just(ExtractCostProfile()),
)

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


def _as_reference(us):
    return [reference_meta(u) if not isinstance(u, UnitMeta) else u for u in us]


def _assert_same_work(got: WorkAccount, want: WorkAccount) -> None:
    for f in fields(WorkAccount):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g == w, f.name
        assert type(g) is type(w), f.name


@SETTINGS
@given(members=member_lists)
def test_segment_size_and_stats_match_reference(members):
    members = tuple(members)
    try:
        want = reference_segment_stats(members)
    except ValueError:
        with pytest.raises(ValueError):
            Segment("s", members)
        return
    seg = Segment("s", members)
    assert seg.size == reference_segment_size(members)
    assert type(seg.size) is int
    assert astuple(seg.stats()) == astuple(want)


@SETTINGS
@given(app=apps, us=units)
def test_estimate_work_matches_reference(app, us):
    want = reference_estimate_work(app, _as_reference(us))
    _assert_same_work(app.estimate_work(us), want)
    _assert_same_work(app.estimate_work(UnitColumns.of(us)), want)


@SETTINGS
@given(profile=profiles, us=units, matches=st.integers(0, 10**6))
def test_breakdown_matches_reference(profile, us, matches):
    want = reference_breakdown(profile, _as_reference(us), matches=matches)
    got = profile.breakdown(us, matches=matches)
    assert (got.setup, got.io, got.cpu) == (want.setup, want.io, want.cpu)
    assert type(got.io) is float and type(got.cpu) is float


@SETTINGS
@given(size_list=st.lists(sizes, max_size=30),
       knee=st.sampled_from([KNEE, 1, 4096]))
def test_memory_penalty_matches_reference(size_list, knee):
    p = PosCostProfile(mem_penalty_knee=knee)
    got = p.memory_penalty(size_list).tolist()
    assert got == [reference_memory_penalty(p, s) for s in size_list]


def test_memory_penalty_dense_sweep():
    """Every size up to 200 kB: vectorised ``log2`` disagrees with libm on
    a few hundred sizes per million, too rare for random draws to find."""
    p = PosCostProfile()
    size_list = list(range(200_001))
    got = p.memory_penalty(size_list).tolist()
    assert got == [reference_memory_penalty(p, s) for s in size_list]


EDGE_UNITS = {
    "empty": [],
    "zero-size": [VirtualFile("z0", 0), VirtualFile("z1", 0),
                  Segment("zs", (VirtualFile("z2", 0),))],
    "at-knee": [VirtualFile("k", KNEE), VirtualFile("k1", KNEE + 1)],
    "short-sentences": [VirtualFile("s", 5000, TextStats(avg_sentence_words=0.4))],
    "markup-near-1": [VirtualFile("m", 10**6, TextStats(markup_fraction=1.0 - 2**-52)),
                      VirtualFile("n", 4321, TextStats(markup_fraction=0.9999999))],
}


@pytest.mark.parametrize("case", sorted(EDGE_UNITS))
@pytest.mark.parametrize("app", [GrepApplication(), GrepApplication(expected_hit_rate=1e-3),
                                 PosTaggerApplication(), ExtractorApplication()],
                         ids=["grep", "grep-hits", "postag", "extract"])
def test_edge_cases_estimate_work(case, app):
    us = EDGE_UNITS[case]
    _assert_same_work(app.estimate_work(us),
                      reference_estimate_work(app, _as_reference(us)))


@pytest.mark.parametrize("case", sorted(EDGE_UNITS))
@pytest.mark.parametrize("profile", [GrepCostProfile(), PosCostProfile(),
                                     ExtractCostProfile()],
                         ids=["grep", "postag", "extract"])
def test_edge_cases_breakdown(case, profile):
    us = EDGE_UNITS[case]
    got = profile.breakdown(us, matches=7)
    want = reference_breakdown(profile, _as_reference(us), matches=7)
    assert (got.io, got.cpu) == (want.io, want.cpu)


def test_empty_units_cost_nothing():
    assert UnitColumns.of([]).size.dtype.name == "int64"
    assert astuple(PosTaggerApplication().estimate_work([])) == astuple(WorkAccount())
    assert astuple(PosCostProfile().breakdown([])) == (0.0, 0.0, 0.0)
