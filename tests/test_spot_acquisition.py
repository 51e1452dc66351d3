"""Spot provisioning: ladder decisions, replay determinism, billing bounds.

Four layers of guarantees:

* the :class:`~repro.resilience.spot.SpotLadder` walks its rungs in
  order and escalates exactly when the deadline buffer says so (white-box
  price injection pins each rung);
* an identical ``(seed, trace)`` pair replays the whole spot run
  bit-for-bit — reports, billing ledger, stats and the engine clock;
* 2010 spot billing never exceeds the on-demand ceil-hour bill while the
  bid holds (a hypothesis property over random segments, plus the
  campaign-level check on a calm cloud);
* a segment relaunch that capacity refuses both as spot and as on-demand
  fails its bin with a typed ``FailedBin`` instead of raising out of the
  run, and the bill still matches the ledger.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import GrepApplication, GrepCostProfile
from repro.chaos import FaultInjector, get_scenario, get_spot_regime
from repro.cloud import Cloud, ExecutionService, SpotMarketBoard, Workload, acquire_good_instance
from repro.cloud.types import LARGE, SMALL
from repro.core import StaticProvisioner
from repro.perfmodel import fit_affine
from repro.resilience import (
    SpotFallbackPolicy,
    SpotLadder,
    buffer_seconds,
)
from repro.runner import execute_plan, execute_plan_spot
from repro.sim.random import RngStream
from repro.units import HOUR, MB
from repro.vfs.files import VirtualFile


def _flat_board(zones=("za", "zb"), mean=0.04):
    """A board with zero volatility: every price is exactly ``mean``."""
    return SpotMarketBoard(RngStream(1), zones, volatility=0.0,
                           mean_price=mean)


class TestBuffer:
    def test_default_buffer_arithmetic(self):
        # 1.25 x 180 s restart + 120 s warning window
        assert buffer_seconds(180.0) == pytest.approx(345.0)
        assert SpotFallbackPolicy().buffer_seconds() == pytest.approx(345.0)

    def test_safety_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            buffer_seconds(180.0, safety_factor=0.9)

    def test_at_risk_is_buffered_not_bare(self):
        p = SpotFallbackPolicy()
        assert not p.at_risk(1000.0, 1346.0)
        assert p.at_risk(1000.0, 1344.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpotFallbackPolicy(bid=0.0)
        with pytest.raises(ValueError):
            SpotFallbackPolicy(max_interruptions=0)


class TestLadderRungs:
    def _decide(self, ladder, **kw):
        kw.setdefault("now", 10.0)
        kw.setdefault("zone", "za")
        kw.setdefault("remaining_predicted", 100.0)
        kw.setdefault("deadline_remaining", 50_000.0)
        return ladder.decide(**kw)

    def test_rung1_rebids_a_different_zone(self):
        d = self._decide(SpotLadder(_flat_board()))
        assert d.rung == "rebid-az" and d.zone == "zb"
        assert d.itype == SMALL and d.resume_at == 10.0

    def test_rung2_retypes_when_no_other_zone_is_affordable(self):
        board = _flat_board()
        board.market("zb")._prices = [0.2]     # small market spiked
        d = self._decide(SpotLadder(board))
        assert d.rung == "retype" and d.itype == LARGE

    def test_rung3_queues_for_the_earliest_affordable_hour(self):
        board = _flat_board(zones=("za",))
        board.market("za")._prices = [0.2, 0.2, 0.03]
        board.market("za", LARGE)._prices = [0.9]
        d = self._decide(SpotLadder(board))
        assert d.rung == "queue" and d.zone == "za"
        assert d.resume_at == 2 * HOUR
        assert d.queued_seconds == pytest.approx(2 * HOUR - 10.0)

    def test_queue_wait_that_risks_the_deadline_escalates(self):
        board = _flat_board(zones=("za",))
        board.market("za")._prices = [0.2, 0.2, 0.03]
        board.market("za", LARGE)._prices = [0.9]
        d = self._decide(SpotLadder(board), deadline_remaining=7500.0)
        assert d.rung == "on-demand"

    def test_preemptive_escalation_beats_every_rung(self):
        d = self._decide(SpotLadder(_flat_board()),
                         remaining_predicted=2000.0,
                         deadline_remaining=2200.0)
        assert d.rung == "on-demand"

    def test_ladder_off_waits_in_its_own_zone(self):
        ladder = SpotLadder(_flat_board(), policy=SpotFallbackPolicy(
            ladder=False, checkpoint=False, escalate=False))
        d = self._decide(ladder)
        assert d.rung == "wait-same-zone" and d.zone == "za"
        assert d.resume_at == HOUR   # next market hour, same zone

    def test_give_up_when_nothing_is_ever_affordable(self):
        board = SpotMarketBoard(RngStream(1), ("za",), volatility=0.0,
                                mean_price=0.2, floor=0.2)
        ladder = SpotLadder(board, policy=SpotFallbackPolicy(escalate=False))
        assert self._decide(ladder).rung == "give-up"

    def test_initial_zone_is_the_cheapest_affordable(self):
        board = _flat_board()
        board.market("za")._prices = [0.03]
        board.market("zb")._prices = [0.02]
        assert SpotLadder(board).initial_zone(0.0) == "zb"

    def test_initial_zone_none_when_bid_covers_nothing(self):
        ladder = SpotLadder(_flat_board(),
                            policy=SpotFallbackPolicy(bid=0.001))
        assert ladder.initial_zone(0.0) is None


def _spot_run(seed, *, regime=None, resilience=True):
    """One full campaign on spot capacity; returns comparable state."""
    from repro.experiments.exp_chaos import _campaign

    chaos = None
    if regime is not None:
        chaos = FaultInjector([get_spot_regime(regime).scenario(seed)],
                              seed=seed)
    cloud = Cloud(seed=seed, chaos=chaos)
    wl, plan = _campaign(seed)
    policy = (SpotFallbackPolicy() if resilience else
              SpotFallbackPolicy(ladder=False, checkpoint=False,
                                 escalate=False))
    result = execute_plan_spot(cloud, wl, plan, policy=policy)
    return {
        "runs": [(r.instance_id, r.boot_delay, r.duration)
                 for r in result.report.runs],
        "failed": result.report.n_failed,
        "stats": result.stats.summary(),
        "ledger": [(u.instance_id, u.start, u.end, u.hourly_rate, u.cost)
                   for u in cloud.ledger.records],
        "clock": cloud.now,
        "timeline": result.timeline,
    }


class TestReplayDeterminism:
    @pytest.mark.chaos
    def test_same_seed_and_trace_bit_identical(self):
        assert _spot_run(23, regime="eviction-storm") == \
            _spot_run(23, regime="eviction-storm")

    @pytest.mark.chaos
    def test_same_seed_no_trace_bit_identical(self):
        assert _spot_run(23) == _spot_run(23)

    @pytest.mark.chaos
    def test_naive_policy_replays_too(self):
        assert _spot_run(23, regime="eviction-storm", resilience=False) == \
            _spot_run(23, regime="eviction-storm", resilience=False)

    @pytest.mark.chaos
    def test_trace_changes_the_run(self):
        assert _spot_run(23, regime="eviction-storm") != _spot_run(23)


class TestSpotNeverOvercharges:
    @given(seed=st.integers(0, 400),
           start=st.integers(0, 4 * int(HOUR)),
           dur=st.integers(1, 4 * int(HOUR)))
    @settings(max_examples=150, deadline=None)
    def test_uninterrupted_segment_bills_at_most_ceil_hour_od(
            self, seed, start, dur):
        """While a bid of the on-demand rate holds, every charged spot
        hour costs at most that rate — so any zero-interruption segment
        bills no more than the on-demand ceil-hour equivalent."""
        board = SpotMarketBoard(RngStream(seed), ("za",))
        bid = SMALL.hourly_rate
        start_f, end_f = float(start), float(start + dur)
        assume(board.affordable("za", int(start_f // HOUR), bid))
        hit = board.next_crossing("za", after=start_f, bid=bid)
        assume(hit is None or hit.at >= end_f)
        spot = sum(p for _, _, p in board.bill_segment("za", start_f, end_f))
        hours = -(-dur // int(HOUR))           # ceil
        assert spot <= hours * SMALL.hourly_rate + 1e-9

    @pytest.mark.chaos
    def test_calm_campaign_bills_below_on_demand(self):
        from repro.experiments.exp_chaos import _campaign

        for seed in (11, 23):
            spot = _spot_run(seed)
            od = Cloud(seed=seed)
            wl, plan = _campaign(seed)
            execute_plan(od, wl, plan)
            assert spot["stats"]["interruptions"] == 0
            total = (spot["stats"]["spot_cost_usd"]
                     + spot["stats"]["on_demand_cost_usd"])
            assert total <= od.ledger.total_cost


@pytest.fixture(scope="module")
def scan_on_spot():
    """600 scan files of 2-8 MB, their workload and a probe-fitted model."""
    sizes = RngStream(2010, name="spot-storm").uniforms(2 * MB, 8 * MB, 600)
    files = [VirtualFile(path=f"scan/{i:06d}.txt", size=int(s))
             for i, s in enumerate(sizes.astype(np.int64))]
    wl = Workload("scan", GrepApplication(),
                  GrepCostProfile(stream_bandwidth=0.12 * MB,
                                  per_file_overhead=0.05, cpu_per_byte=3.0e-6))
    cloud = Cloud(seed=2010)
    instance, _ = acquire_good_instance(cloud)
    svc = ExecutionService(cloud)
    xs, ys = [], []
    for n in (5, 15, 30):
        for _ in range(3):
            xs.append(sum(f.size for f in files[:n]))
            ys.append(svc.run(instance, files[:n], wl, advance_clock=False))
    return files, wl, fit_affine(np.array(xs), np.array(ys))


class TestEscalationUnderCapacityCrunch:
    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_refused_on_demand_relaunch_fails_the_bin(self, scan_on_spot, seed):
        """A spot relaunch rejected and then refused on-demand capacity
        fails its bin instead of raising out of the run."""
        files, wl, model = scan_on_spot
        plan = StaticProvisioner(model).plan(files, 4 * HOUR, strategy="uniform",
                                             planning_deadline=2 * HOUR)
        chaos = FaultInjector([get_scenario("capacity-crunch"),
                               get_spot_regime("eviction-storm").scenario(seed)],
                              seed=seed)
        cloud = Cloud(seed=seed, chaos=chaos)
        result = execute_plan_spot(cloud, wl, plan,
                                   policy=SpotFallbackPolicy(bid=0.06))
        report = result.report
        assert len(report.runs) + len(report.failures) == plan.n_instances
        assert any(f.reason.startswith("on-demand-refused")
                   for f in report.failures)
        assert result.stats.total_cost == cloud.ledger.total_cost
