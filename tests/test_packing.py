"""Tests for the bin-packing heuristics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.packing import (
    Bin,
    Item,
    PackingError,
    derive_multiples,
    first_fit,
    first_fit_decreasing,
    pack_into_n_bins,
    subset_sum_first_fit,
    total_size,
    uniform_bins,
    validate_packing,
)


def items_of(*sizes: int) -> list[Item]:
    return [Item(key=f"f{i}", size=s) for i, s in enumerate(sizes)]


item_lists = st.lists(
    st.integers(min_value=0, max_value=5000), min_size=0, max_size=60
).map(lambda sizes: items_of(*sizes))


class TestItemBin:
    def test_negative_size_rejected(self):
        with pytest.raises(PackingError):
            Item(key="x", size=-1)

    def test_bin_add_and_free(self):
        b = Bin(capacity=10)
        b.add(Item("a", 4))
        assert b.used == 4 and b.free == 6

    def test_bin_overflow_rejected(self):
        b = Bin(capacity=10)
        b.add(Item("a", 8))
        with pytest.raises(PackingError):
            b.add(Item("b", 3))

    def test_uncapacitated_free_rejected(self):
        with pytest.raises(PackingError):
            _ = Bin(capacity=None).free

    def test_validate_detects_duplicate(self):
        it = Item("a", 1)
        b1, b2 = Bin(capacity=5), Bin(capacity=5)
        b1.add(it)
        b2.add(it)
        with pytest.raises(PackingError):
            validate_packing([it], [b1, b2])

    def test_validate_detects_missing(self):
        with pytest.raises(PackingError):
            validate_packing(items_of(3), [Bin(capacity=5)])


class TestFirstFit:
    def test_basic_placement(self):
        bins = first_fit(items_of(4, 4, 4), capacity=8)
        assert [b.used for b in bins] == [8, 4]

    def test_original_order_preserved_within_scan(self):
        # 6 opens bin0; 5 opens bin1; 2 goes back into bin0 (first fit).
        bins = first_fit(items_of(6, 5, 2), capacity=8)
        assert [it.key for it in bins[0].items] == ["f0", "f2"]
        assert [it.key for it in bins[1].items] == ["f1"]

    def test_oversized_gets_solo_bin(self):
        bins = first_fit(items_of(20, 1), capacity=8)
        assert bins[0].used == 20 and len(bins[0]) == 1
        assert bins[1].used == 1

    def test_bad_capacity(self):
        with pytest.raises(PackingError):
            first_fit(items_of(1), capacity=0)

    def test_empty_input(self):
        assert first_fit([], capacity=10) == []

    @given(item_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=120)
    def test_is_partition(self, items, cap):
        bins = first_fit(items, cap)
        validate_packing(items, bins)

    @given(item_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=120)
    def test_no_two_bins_fit_together_invariant(self, items, cap):
        """Classic FF invariant: at most one bin can be <= half full
        (excluding oversized solo bins)."""
        bins = [b for b in first_fit(items, cap) if b.used <= cap]
        under_half = sum(1 for b in bins if b.used * 2 <= cap)
        # zero-size items can create a degenerate all-zero first bin
        if all(b.used > 0 for b in bins):
            assert under_half <= 1


class TestFirstFitDecreasing:
    def test_sorted_order(self):
        bins = first_fit_decreasing(items_of(1, 9, 5), capacity=10)
        assert bins[0].items[0].size == 9

    @given(item_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=80)
    @example(items_of(102, 102, 195, 103, 113, 103), 409)
    def test_never_more_bins_than_ff_plus_margin(self, items, cap):
        """FFD stays within Dosa's tight bound FFD <= 11/9 OPT + 6/9.

        FFD is not better than FF on every instance: the pinned example
        packs into 2 bins in the given order but 3 once sorted. Since
        FF >= OPT, the bound holds with FF in place of OPT; oversized
        items take one solo bin under both heuristics, so they only
        loosen it.
        """
        ffd = first_fit_decreasing(items, cap)
        ff = first_fit(items, cap)
        assert len(ffd) <= (11 * len(ff) + 6) // 9
        oversized = sum(1 for it in items if it.size > cap)
        fitting = sum(it.size for it in items if it.size <= cap)
        assert len(ffd) >= oversized + -(-fitting // cap)

    @given(item_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=80)
    def test_is_partition(self, items, cap):
        validate_packing(items, first_fit_decreasing(items, cap))


class TestPackIntoNBins:
    def test_fixed_count(self):
        bins = pack_into_n_bins(items_of(3, 3, 3, 3), n_bins=2, capacity=6)
        assert len(bins) == 2
        validate_packing(items_of(3, 3, 3, 3), bins)

    def test_overflow_spills_to_lightest(self):
        bins = pack_into_n_bins(items_of(5, 5, 5), n_bins=2, capacity=5)
        assert len(bins) == 2
        assert sum(b.used for b in bins) == 15

    def test_strict_overflow_raises(self):
        with pytest.raises(PackingError):
            pack_into_n_bins(items_of(5, 5, 5), n_bins=2, capacity=5, strict=True)

    def test_zero_bins_rejected(self):
        with pytest.raises(PackingError):
            pack_into_n_bins(items_of(1), n_bins=0, capacity=5)

    @given(
        item_lists,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=100)
    def test_partition_and_count(self, items, n, cap):
        bins = pack_into_n_bins(items, n_bins=n, capacity=cap)
        assert len(bins) == n
        assert sum(b.used for b in bins) == total_size(items)


class TestUniformBins:
    def test_balanced_in_order(self):
        bins = uniform_bins(items_of(2, 2, 2, 2, 2, 2), n_bins=3)
        assert [b.used for b in bins] == [4, 4, 4]
        # order preserved: concatenating bins recovers the input order
        keys = [it.key for b in bins for it in b.items]
        assert keys == [f"f{i}" for i in range(6)]

    def test_unordered_balance_tight(self):
        bins = uniform_bins(items_of(9, 1, 5, 5), n_bins=2, preserve_order=False)
        loads = sorted(b.used for b in bins)
        assert loads == [10, 10]

    def test_zero_bins_rejected(self):
        with pytest.raises(PackingError):
            uniform_bins(items_of(1), n_bins=0)

    def test_empty_items(self):
        bins = uniform_bins([], n_bins=3)
        assert len(bins) == 3 and all(b.used == 0 for b in bins)

    @given(item_lists, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_partition_exact_count(self, items, n):
        bins = uniform_bins(items, n_bins=n)
        assert len(bins) == n
        validate_packing(items, bins)

    @given(item_lists, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_unordered_max_load_bound(self, items, n):
        """Greedy balancing: max load <= average + max item size."""
        if not items:
            return
        bins = uniform_bins(items, n_bins=n, preserve_order=False)
        avg = total_size(items) / n
        biggest = max(it.size for it in items)
        assert max(b.used for b in bins) <= avg + biggest


class TestSubsetSumFirstFit:
    def test_merges_to_unit(self):
        bins = subset_sum_first_fit(items_of(400, 300, 300, 600), unit_size=1000)
        validate_packing(items_of(400, 300, 300, 600), bins)
        assert all(b.used <= 1000 for b in bins)

    def test_greedy_mode_fills_better(self):
        # order-preserving FF: [700], [300, 300], [400] -> 3 bins
        # greedy subset-sum: [700,300], [400,300] -> 2 bins
        items = items_of(700, 300, 300, 400)
        ordered = subset_sum_first_fit(items, 1000, preserve_order=True)
        greedy = subset_sum_first_fit(items, 1000, preserve_order=False)
        assert len(greedy) <= len(ordered)
        validate_packing(items, greedy)

    def test_oversized_isolated_in_greedy_mode(self):
        bins = subset_sum_first_fit(items_of(5000, 10), 1000, preserve_order=False)
        assert bins[0].used == 5000 and len(bins[0]) == 1

    def test_bad_unit(self):
        with pytest.raises(PackingError):
            subset_sum_first_fit(items_of(1), 0)

    @given(item_lists, st.integers(min_value=1, max_value=4000), st.booleans())
    @settings(max_examples=120)
    def test_partition_any_mode(self, items, unit, order):
        bins = subset_sum_first_fit(items, unit, preserve_order=order)
        validate_packing(items, bins)


class TestDeriveMultiples:
    def test_coalesces_consecutive(self):
        base = subset_sum_first_fit(items_of(*([100] * 10)), unit_size=100)
        assert len(base) == 10
        derived = derive_multiples(base, [2, 5])
        assert len(derived[2]) == 5
        assert len(derived[5]) == 2
        assert all(b.used == 200 for b in derived[2])

    def test_partition_preserved(self):
        items = items_of(30, 70, 20, 80, 50, 50)
        base = subset_sum_first_fit(items, unit_size=100)
        for k, bins in derive_multiples(base, [1, 2, 3]).items():
            validate_packing(items, bins)

    def test_factor_one_is_identityish(self):
        items = items_of(10, 20, 30)
        base = subset_sum_first_fit(items, unit_size=60)
        d1 = derive_multiples(base, [1])[1]
        assert [b.used for b in d1] == [b.used for b in base]

    def test_empty_base(self):
        assert derive_multiples([], [2]) == {2: []}

    def test_bad_factor(self):
        base = subset_sum_first_fit(items_of(10), 20)
        with pytest.raises(PackingError):
            derive_multiples(base, [0])
