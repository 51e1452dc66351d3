"""Tests for cost profiles — the simulator's ground truth."""

import pytest

from repro.apps import GrepCostProfile, PosCostProfile, TimeBreakdown, UnitColumns, UnitMeta
from repro.corpus import agnes_grey_like, dubliners_like
from repro.sim.random import RngStream
from repro.units import GB, KB, MB
from repro.vfs import TextStats


def unit(size: int, **stats) -> UnitMeta:
    return UnitMeta(size=size, stats=TextStats(**stats))


class TestTimeBreakdown:
    def test_total(self):
        assert TimeBreakdown(1.0, 2.0, 3.0).total == 6.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown(-1.0, 0.0, 0.0)


class TestGrepProfile:
    def test_streaming_rate_matches_eq1_slope(self):
        """Paper Eq. (1): slope 1.324e-8 s/B → ~75.5 MB/s streaming."""
        p = GrepCostProfile()
        one_file_1gb = [unit(1 * GB)]
        t = p.breakdown(one_file_1gb).total
        per_byte = (t - p.per_file_overhead) / GB
        assert per_byte == pytest.approx(1.324e-8, rel=0.05)

    def test_small_files_dominated_by_overhead(self):
        p = GrepCostProfile()
        total = 100 * MB
        small = [unit(10 * KB) for _ in range(total // (10 * KB))]
        big = [unit(total)]
        t_small = p.breakdown(small).total
        t_big = p.breakdown(big).total
        # reshaping wins by a large factor (paper: 5.6x at 100 GB scale)
        assert t_small / t_big > 3.0

    def test_plateau_beyond_10mb_units(self):
        """Fig. 4: from 10 MB units the time is flat to within a few %."""
        p = GrepCostProfile()
        total = 5 * GB
        times = {}
        for unit_size in (10 * MB, 100 * MB, 1000 * MB):
            n = total // unit_size
            times[unit_size] = p.breakdown([unit(unit_size)] * n).total
        tmin, tmax = min(times.values()), max(times.values())
        assert (tmax - tmin) / tmin < 0.04

    def test_setup_draw_positive_and_noisy(self):
        p = GrepCostProfile()
        draws = [p.draw_setup(RngStream(i)) for i in range(200)]
        assert all(d > 0 for d in draws)
        import numpy as np

        assert np.std(draws) / np.mean(draws) > 0.5  # Fig. 3 instability

    def test_match_cost_counted(self):
        p = GrepCostProfile()
        base = p.breakdown([unit(MB)]).total
        with_hits = p.breakdown([unit(MB)], matches=10_000).total
        assert with_hits > base


class TestPosProfile:
    def test_per_byte_cost_near_eq3_slope(self):
        """Paper Eq. (3): 0.865e-4 s/B on the probe mix (complex head)."""
        p = PosCostProfile()
        u = unit(1 * KB, avg_word_len=7.1, avg_sentence_words=20.5)
        t = p.breakdown([u] * 1000).total
        per_byte = t / (1000 * KB)
        assert per_byte == pytest.approx(0.865e-4, rel=0.15)

    def test_memory_penalty_monotone(self):
        p = PosCostProfile()
        assert p.memory_penalty(500) == 1.0
        assert p.memory_penalty(10 * KB) > p.memory_penalty(1 * KB)
        assert p.memory_penalty(100 * MB) == p.mem_penalty_cap

    def test_large_files_degrade_pronouncedly(self):
        """Fig. 7: 1 MB unit files vs 1 kB files — pronounced degradation."""
        p = PosCostProfile()
        total = 10 * MB
        small = p.breakdown([unit(1 * KB, avg_sentence_words=17.0)] * (total // KB)).total
        big = p.breakdown([unit(1 * MB, avg_sentence_words=17.0)] * 10).total
        assert big / small > 1.3

    def test_original_segmentation_beats_merged(self):
        """Fig. 7: the original tiny files fare best (penalty-free, and the
        per-file overhead is negligible for a wrapped tagger)."""
        p = PosCostProfile()
        total = 1000 * KB
        orig = p.breakdown([unit(458, avg_sentence_words=17.0)] * (total // 458)).total
        merged_1kb = p.breakdown([unit(1 * KB, avg_sentence_words=17.0)] * (total // KB)).total
        assert orig <= merged_1kb

    def test_complexity_doubles_cost_at_equal_size(self):
        """§5.2 novels: Dubliners ≈2× Agnes Grey at ≈equal word count."""
        p = PosCostProfile()
        dub = UnitColumns.of([dubliners_like().virtual_file()])
        agnes = UnitColumns.of([agnes_grey_like().virtual_file()])
        t_dub = p.breakdown(dub).cpu
        t_agnes = p.breakdown(agnes).cpu
        assert 1.4 < t_dub / t_agnes < 2.4

    def test_jvm_startup_near_eq4_intercept(self):
        p = PosCostProfile()
        import numpy as np

        draws = [p.draw_setup(RngStream(i)) for i in range(300)]
        assert np.median(draws) == pytest.approx(3.0, rel=0.15)

    def test_cpu_dominates_io(self):
        p = PosCostProfile()
        b = p.breakdown([unit(100 * KB)])
        assert b.cpu > 10 * b.io
