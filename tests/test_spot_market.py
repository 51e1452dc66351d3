"""Targeted tests for ``cloud/spot.py``: the §1.1 spot-market extension.

`tests/test_cloud_service.py` covers the happy paths; here the contract
edges are pinned: price caching is idempotent per seed, the price floor
actually clamps (not just "prices happen to stay above it"), a bid the
market never meets buys nothing — zero cost, zero progress, and an
honest ``done=False`` — and the per-AZ market board's fork discipline:
attaching a board (or querying new zones) never shifts any stream an
existing consumer observes.
"""

import pytest

from repro.chaos import SpotInterruptionTrace
from repro.cloud import Cloud
from repro.cloud.spot import (
    TWO_MINUTE_WARNING,
    SpotMarket,
    SpotMarketBoard,
    SpotRequest,
)
from repro.cloud.types import LARGE, SMALL
from repro.sim.random import RngStream
from repro.units import HOUR


class TestSeedDeterminism:
    def test_same_seed_same_trajectory(self):
        a = SpotMarket(rng=RngStream(31))
        b = SpotMarket(rng=RngStream(31))
        assert a.prices(100) == b.prices(100)

    def test_different_seeds_diverge(self):
        a = SpotMarket(rng=RngStream(31))
        b = SpotMarket(rng=RngStream(32))
        assert a.prices(100) != b.prices(100)

    def test_queries_are_idempotent(self):
        """Re-reading an hour must not consume RNG state (prices cached)."""
        m = SpotMarket(rng=RngStream(31))
        first = m.price(10)
        trajectory = m.prices(50)
        assert m.price(10) == first
        # interleaved / repeated queries leave the trajectory untouched
        assert m.prices(50) == trajectory

    def test_out_of_order_queries_match_in_order(self):
        a = SpotMarket(rng=RngStream(7))
        b = SpotMarket(rng=RngStream(7))
        backwards = [a.price(h) for h in (40, 5, 23, 0)]
        b.prices(41)
        assert backwards == [b.price(h) for h in (40, 5, 23, 0)]


class TestFloorClamping:
    def test_floor_clamps_downward_drift(self):
        """With the mean below the floor, reversion drags every price into
        the clamp — each hour must sit exactly at the floor, never below."""
        m = SpotMarket(rng=RngStream(5), mean_price=0.001, floor=0.05,
                       volatility=0.0, start_price=0.05)
        assert m.prices(20) == [0.05] * 20

    def test_floor_binds_under_volatility(self):
        m = SpotMarket(rng=RngStream(5), mean_price=0.012, floor=0.01,
                       volatility=0.02)
        prices = m.prices(300)
        assert all(p >= m.floor for p in prices)
        # shocks 2x the mean-to-floor gap must hit the clamp sometimes
        assert any(p == m.floor for p in prices)

    def test_unclamped_process_can_go_lower(self):
        """Same seed, floor removed: the raw process dips below 0.01 —
        proving the clamp in the sibling test is the floor, not luck."""
        m = SpotMarket(rng=RngStream(5), mean_price=0.012, floor=0.0,
                       volatility=0.02)
        assert min(m.prices(300)) < 0.01


class TestBidNeverMet:
    def test_never_active(self):
        m = SpotMarket(rng=RngStream(11))
        req = SpotRequest(bid=m.floor / 2)   # below the floor: unreachable
        assert req.active_hours(m, 500) == []

    def test_progress_is_zero_and_unfinished(self):
        m = SpotMarket(rng=RngStream(11))
        out = SpotRequest(bid=m.floor / 2).simulate_progress(
            m, horizon_hours=500, work_hours=3.0)
        assert out == {"completed_hour": None, "paid_hours": 0,
                       "cost": 0.0, "done": False}

    def test_zero_work_is_done_even_without_capacity(self):
        m = SpotMarket(rng=RngStream(11))
        out = SpotRequest(bid=m.floor / 2).simulate_progress(
            m, horizon_hours=10, work_hours=0.0)
        assert out["done"] and out["cost"] == 0.0

    def test_negative_work_rejected(self):
        m = SpotMarket(rng=RngStream(11))
        with pytest.raises(ValueError):
            SpotRequest(bid=1.0).simulate_progress(
                m, horizon_hours=10, work_hours=-1.0)

    def test_zero_work_completed_hour_is_zero(self):
        """Regression: zero work completes at hour 0, not ``None`` — even
        when the bid never holds, with nothing billed."""
        m = SpotMarket(rng=RngStream(11))
        out = SpotRequest(bid=m.floor / 2).simulate_progress(
            m, horizon_hours=10, work_hours=0.0)
        assert out == {"completed_hour": 0, "paid_hours": 0,
                       "cost": 0.0, "done": True}


class TestMarketBoard:
    def test_same_fork_same_board(self):
        a = SpotMarketBoard(RngStream(9, "cloud").fork("spot.board"),
                            ("za", "zb"))
        b = SpotMarketBoard(RngStream(9, "cloud").fork("spot.board"),
                            ("za", "zb"))
        assert [a.price("za", h) for h in range(48)] == \
            [b.price("za", h) for h in range(48)]

    def test_zones_are_independent_markets(self):
        board = SpotMarketBoard(RngStream(9), ("za", "zb"))
        assert board.market("za").prices(48) != board.market("zb").prices(48)

    def test_attaching_a_board_never_shifts_cloud_draws(self):
        """The board is a named fork: creating it (and pricing every
        zone) must leave the cloud's own streams byte-identical."""
        plain = Cloud(seed=77)
        witness = plain.rng.fork("witness").normal(0.0, 1.0)

        cloud = Cloud(seed=77)
        board = SpotMarketBoard.for_cloud(cloud)
        for z in cloud.region.zones:
            board.price(z.name, 0)
            board.price(z.name, 24, LARGE)
        assert cloud.rng.fork("witness").normal(0.0, 1.0) == witness

    def test_hour_zero_prices_disagree_across_zones(self):
        board = SpotMarketBoard.for_cloud(Cloud(seed=11))
        opening = {board.price(z, 0) for z in board.zones}
        assert len(opening) > 1

    def test_large_prices_scale_with_on_demand_ratio(self):
        board = SpotMarketBoard(RngStream(3), ("za",), volatility=0.0)
        ratio = LARGE.hourly_rate / SMALL.hourly_rate
        assert board.market("za", LARGE).mean_price == \
            pytest.approx(board.mean_price * ratio)
        assert board.price("za", 0, LARGE) == \
            pytest.approx(board.price("za", 0, SMALL) * ratio)
        # a reference-terms bid covers LARGE iff it covers SMALL's market
        assert board.affordable("za", 0, 0.06, LARGE) == \
            board.affordable("za", 0, 0.06, SMALL)

    def test_unknown_zone_rejected(self):
        board = SpotMarketBoard(RngStream(3), ("za",))
        with pytest.raises(KeyError):
            board.price("nope", 0)


class TestInterruptionCalculus:
    def test_unmeetable_bid_crosses_at_first_hour_boundary(self):
        board = SpotMarketBoard(RngStream(5), ("za",))
        hit = board.next_crossing("za", after=100.0, bid=board.floor / 2)
        assert hit is not None
        assert hit.at == HOUR
        assert hit.warning_at == HOUR - TWO_MINUTE_WARNING
        assert hit.source == "market"

    def test_generous_bid_never_crosses(self):
        board = SpotMarketBoard(RngStream(5), ("za",))
        assert board.next_crossing("za", after=0.0, bid=10.0,
                                   horizon_hours=48) is None

    def test_crossing_is_strictly_after(self):
        """An instance started exactly on a crossing boundary survives
        until the *next* crossing, not its own start instant."""
        board = SpotMarketBoard(RngStream(5), ("za",))
        hit = board.next_crossing("za", after=HOUR, bid=board.floor / 2)
        assert hit is not None and hit.at == 2 * HOUR


class TestSpotBilling:
    def _board(self):
        # volatility 0: every hour bills at exactly the mean price
        return SpotMarketBoard(RngStream(1), ("za",), volatility=0.0,
                               mean_price=0.04)

    def test_user_termination_charges_partial_hour(self):
        rows = self._board().bill_segment("za", 0.0, 1.5 * HOUR)
        assert [(s, e) for s, e, _ in rows] == \
            [(0.0, HOUR), (HOUR, 1.5 * HOUR)]
        assert all(p == pytest.approx(0.04) for _, _, p in rows)

    def test_market_reclaim_trailing_partial_is_free(self):
        rows = self._board().bill_segment("za", 0.0, 1.5 * HOUR,
                                          interrupted=True)
        assert [(s, e) for s, e, _ in rows] == [(0.0, HOUR)]

    def test_reclaim_on_exact_boundary_charges_every_hour(self):
        rows = self._board().bill_segment("za", 0.0, 2.0 * HOUR,
                                          interrupted=True)
        assert len(rows) == 2

    def test_empty_segment_bills_nothing(self):
        assert self._board().bill_segment("za", 50.0, 50.0) == []

    def test_backwards_segment_rejected(self):
        with pytest.raises(ValueError):
            self._board().bill_segment("za", HOUR, 0.0)


class TestInterruptionTrace:
    def _trace(self):
        return SpotInterruptionTrace.generate(
            "t", seed=13, zones=("za", "zb"), mean_gap_hours=0.5,
            horizon_hours=6.0)

    def test_generation_is_a_pure_function_of_its_inputs(self):
        a, b = self._trace(), self._trace()
        assert a == b
        assert list(a.events) == sorted(a.events)

    def test_zones_decorrelated(self):
        trace = self._trace()
        assert trace.events_for("za") != trace.events_for("zb")

    def test_next_after_is_strictly_after(self):
        trace = self._trace()
        first = trace.events_for("za")[0]
        assert trace.next_after("za", first) > first
        assert trace.next_after("za", 6.0 * HOUR) is None

    @staticmethod
    def _one_draw_at_a_time(seed, zones, mean_gap_hours, horizon_hours):
        """The trace as a running ``t += gap`` over scalar draws."""
        root = RngStream(seed, name="cloud").fork("spot.trace.t")
        events = []
        for zone in zones:
            rng = root.fork(zone)
            t = rng.exponential(mean_gap_hours * HOUR)
            while t < horizon_hours * HOUR:
                events.append((t, zone))
                t += rng.exponential(mean_gap_hours * HOUR)
        return tuple(sorted(events))

    @pytest.mark.parametrize("mean_gap_hours,horizon_hours", [
        (0.25, 12.0),   # eviction-storm: one batch covers the horizon
        (100.0, 1.0),   # one-draw batches: any event forces a second batch
    ])
    def test_batched_gaps_equal_scalar_draws(self, mean_gap_hours, horizon_hours):
        zones = ("za", "zb", "zc")
        n_events = 0
        for seed in range(60):
            trace = SpotInterruptionTrace.generate(
                "t", seed=seed, zones=zones, mean_gap_hours=mean_gap_hours,
                horizon_hours=horizon_hours)
            assert trace.events == self._one_draw_at_a_time(
                seed, zones, mean_gap_hours, horizon_hours)
            assert all(type(at) is float for at, _ in trace.events)
            n_events += len(trace.events)
        assert n_events > 0
