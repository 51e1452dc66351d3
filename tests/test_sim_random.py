"""Tests for the deterministic RNG stream hierarchy."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.random as sim_random
from repro.sim.random import RngStream, stable_seed


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(42, "corpus") == stable_seed(42, "corpus")

    def test_name_sensitivity(self):
        assert stable_seed(42, "corpus") != stable_seed(42, "cloud")

    def test_seed_sensitivity(self):
        assert stable_seed(42, "corpus") != stable_seed(43, "corpus")

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=40))
    def test_range_is_uint64(self, seed, name):
        s = stable_seed(seed, name)
        assert 0 <= s < 2**64


class TestRngStream:
    def test_reproducible_draws(self):
        a = RngStream(7).uniform()
        b = RngStream(7).uniform()
        assert a == b

    def test_fork_is_pure(self):
        """Forking must not consume parent state, in any order."""
        p1 = RngStream(9)
        c_first = p1.fork("x")
        parent_draw_after_fork = p1.uniform()

        p2 = RngStream(9)
        parent_draw_before_fork = p2.uniform()
        c_second = p2.fork("x")

        assert parent_draw_after_fork == parent_draw_before_fork
        assert c_first.uniform() == c_second.uniform()

    def test_fork_independence(self):
        parent = RngStream(1)
        assert parent.fork("a").uniform() != parent.fork("b").uniform()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_seed_a_fork_cannot_pack_rejected(self):
        with pytest.raises(ValueError):
            RngStream(2**128)

    def test_largest_seed_forks(self):
        assert RngStream(2**128 - 1).fork("x").seed == stable_seed(2**128 - 1, "x")

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError):
            RngStream(seed)

    def test_numpy_integer_seed_accepted(self):
        s = RngStream(np.int64(7))
        assert type(s.seed) is int
        assert s.uniform() == RngStream(7).uniform()

    def test_integer_inclusive_bounds(self):
        s = RngStream(3)
        draws = {s.integer(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_integer_empty_range(self):
        with pytest.raises(ValueError):
            RngStream(0).integer(5, 4)

    def test_choice_weighted(self):
        s = RngStream(11)
        picks = [s.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(50)]
        assert set(picks) == {"b"}

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            RngStream(0).choice([])

    def test_choice_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            RngStream(0).choice(["a", "b"], weights=[1.0])

    def test_sample_indices_distinct(self):
        idx = RngStream(5).sample_indices(10, 10)
        assert sorted(idx) == list(range(10))

    def test_sample_indices_too_many(self):
        with pytest.raises(ValueError):
            RngStream(5).sample_indices(3, 4)

    def test_shuffle_is_permutation(self):
        items = list(range(20))
        RngStream(8).shuffle(items)
        assert sorted(items) == list(range(20))

    def test_vector_draws_shapes(self):
        s = RngStream(2)
        assert s.normals(0, 1, 5).shape == (5,)
        assert s.lognormals(0, 1, 4).shape == (4,)
        assert s.uniforms(0, 1, 3).shape == (3,)
        assert s.paretos(1.5, 6).shape == (6,)

    @given(st.integers(min_value=0, max_value=2**32))
    def test_lognormal_positive(self, seed):
        assert RngStream(seed).lognormal(0.0, 1.0) > 0

    def test_distribution_sanity(self):
        s = RngStream(123)
        xs = s.normals(10.0, 2.0, 20_000)
        assert abs(float(np.mean(xs)) - 10.0) < 0.1
        assert abs(float(np.std(xs)) - 2.0) < 0.1

    def test_vector_exponentials_equal_scalar_draws(self):
        a, b = RngStream(23), RngStream(23)
        assert a.exponentials(900.0, 50).tolist() == [b.exponential(900.0)
                                                      for _ in range(50)]
        assert a.uniform() == b.uniform()


# -- lazy generators -----------------------------------------------------------
#
# A stream builds its PCG64 generator on first draw.  The reference below
# is what every stream was before that: an eager
# ``np.random.Generator(np.random.PCG64(seed))`` per stream, with the
# child seed derived by ``stable_seed``.  Every draw method must agree with
# it exactly, however forks and draws interleave.

_OPTIONS = ["a", "b", "c", "d"]
_WEIGHTS = [0.1, 0.0, 0.6, 0.3]

#: name -> (draw on an RngStream, the same draw on the eager reference).
_DRAWS = {
    "uniform": (lambda s: s.uniform(2.0, 5.0),
                lambda g: float(g.uniform(2.0, 5.0))),
    "integer": (lambda s: s.integer(3, 9),
                lambda g: int(g.integers(3, 10))),
    "normal": (lambda s: s.normal(1.0, 2.0),
               lambda g: float(g.normal(1.0, 2.0))),
    "lognormal": (lambda s: s.lognormal(0.5, 0.3),
                  lambda g: float(g.lognormal(0.5, 0.3))),
    "pareto": (lambda s: s.pareto(1.7),
               lambda g: float(g.pareto(1.7))),
    "exponential": (lambda s: s.exponential(4.0),
                    lambda g: float(g.exponential(4.0))),
    "choice": (lambda s: s.choice(_OPTIONS),
               lambda g: _OPTIONS[int(g.choice(len(_OPTIONS)))]),
    "choice_weighted": (
        lambda s: s.choice(_OPTIONS, weights=_WEIGHTS),
        lambda g: _OPTIONS[int(g.choice(len(_OPTIONS),
                                        p=np.asarray(_WEIGHTS) / sum(_WEIGHTS)))]),
    "shuffle": (lambda s: _shuffled(s.shuffle), lambda g: _shuffled(g.shuffle)),
    "sample_indices": (lambda s: s.sample_indices(12, 5),
                       lambda g: [int(i) for i in g.choice(12, size=5, replace=False)]),
    "normals": (lambda s: s.normals(0.0, 1.0, 6).tolist(),
                lambda g: g.normal(0.0, 1.0, size=6).tolist()),
    "lognormals": (lambda s: s.lognormals(0.0, 0.5, 6).tolist(),
                   lambda g: g.lognormal(0.0, 0.5, size=6).tolist()),
    "uniforms": (lambda s: s.uniforms(1.0, 3.0, 6).tolist(),
                 lambda g: g.uniform(1.0, 3.0, size=6).tolist()),
    "paretos": (lambda s: s.paretos(2.5, 6).tolist(),
                lambda g: g.pareto(2.5, size=6).tolist()),
    "exponentials": (lambda s: s.exponentials(4.0, 6).tolist(),
                     lambda g: g.exponential(4.0, size=6).tolist()),
}


def _shuffled(shuffle) -> list:
    items = list(range(10))
    shuffle(items)
    return items


def _eager(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


#: One step: fork stream ``i`` under a name, or draw from stream ``i``.
_STEP = st.one_of(
    st.tuples(st.just("fork"), st.integers(0, 50), st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("draw"), st.integers(0, 50), st.sampled_from(sorted(_DRAWS))),
)


class TestLazyGenerator:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64), st.lists(_STEP, min_size=1, max_size=40))
    def test_draws_match_eager_generators(self, seed, steps):
        streams = [RngStream(seed)]
        refs = [_eager(seed)]
        for op, i, arg in steps:
            i %= len(streams)
            if op == "fork":
                streams.append(streams[i].fork(arg))
                refs.append(_eager(stable_seed(streams[i].seed, arg)))
            else:
                ours, eager = _DRAWS[arg]
                assert ours(streams[i]) == eager(refs[i])

    def test_parent_and_child_draw_apart(self):
        """A child forked after its parent drew starts its own sequence."""
        parent = RngStream(31)
        first = parent.uniforms(0.0, 1.0, 3).tolist()
        child = parent.fork("x")
        assert child.uniforms(0.0, 1.0, 3).tolist() == \
            _eager(stable_seed(31, "x")).uniform(size=3).tolist()
        ref = _eager(31)
        assert ref.uniform(size=3).tolist() == first
        assert parent.uniform() == float(ref.uniform())

    def test_fork_that_never_draws_builds_no_generator(self, monkeypatch):
        built = []
        real = np.random.PCG64

        def counting(seed):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(sim_random.np.random, "PCG64", counting)
        root = RngStream(5)
        leaf = root.fork("instance.0").fork("exec.0").fork("noise")
        assert built == []
        leaf.uniform()
        leaf.normals(0.0, 1.0, 4)
        assert built == [leaf.seed]

    @pytest.mark.parametrize("round_trip", [
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.copy,
    ], ids=["pickle", "copy"])
    def test_round_trips_continue_the_sequence(self, round_trip):
        stream = RngStream(77, name="rt")
        before = round_trip(stream)
        head = stream.uniforms(0.0, 1.0, 4).tolist()
        after = round_trip(stream)
        ref = _eager(77).uniform(size=8).tolist()
        assert head == ref[:4]
        assert before.uniforms(0.0, 1.0, 8).tolist() == ref
        assert after.uniforms(0.0, 1.0, 4).tolist() == ref[4:]
        assert stream.uniforms(0.0, 1.0, 4).tolist() == ref[4:]
        assert (after.seed, after.name) == (77, "rt")
