"""Procurement choice: on-demand vs spot under a deadline (§1.1).

"[Spot] is advantageous when time is less important of a consideration
than cost.  … In our work, we are interested in being able to give cost
effective execution plans when there are makespan constraints and so we
use instances that can be acquired on demand."

This module turns that prose into a quantitative decision: simulate many
spot-market paths, estimate the completion probability of every candidate
bid within the deadline horizon, and pick the cheapest procurement that
meets a confidence target — which is on-demand exactly when the deadline
is tight relative to the work, reproducing the paper's choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.spot import SpotMarket, SpotRequest
from repro.sim.random import RngStream

__all__ = ["ProcurementDecision", "spot_completion_probability", "choose_procurement"]


@dataclass(frozen=True)
class ProcurementDecision:
    """The advisor's verdict."""

    mode: str                   # "on-demand" | "spot"
    bid: float | None           # spot bid, if mode == "spot"
    expected_cost: float
    completion_probability: float
    on_demand_cost: float

    @property
    def saving(self) -> float:
        """Expected saving over pure on-demand (0 for on-demand itself)."""
        return self.on_demand_cost - self.expected_cost


def spot_completion_probability(
    rng: RngStream,
    bid: float,
    work_hours: float,
    deadline_hours: int,
    *,
    n_paths: int = 200,
    market_kwargs: dict | None = None,
) -> tuple[float, float]:
    """Monte-Carlo completion probability and mean cost for one bid.

    Each path draws an independent market from ``rng``; the request runs
    whenever the bid clears (resume-capable work, as §1.1 requires).
    Returns ``(p_complete, mean_cost_over_completing_paths)``.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if deadline_hours < 1:
        raise ValueError("deadline must be at least one hour")
    kwargs = market_kwargs or {}
    done = 0
    costs: list[float] = []
    req = SpotRequest(bid=bid)
    for i in range(n_paths):
        market = SpotMarket(rng=rng.fork(f"path.{i}"), **kwargs)
        sim = req.simulate_progress(market, deadline_hours, work_hours)
        if sim["done"]:
            done += 1
            costs.append(sim["cost"])
    p = done / n_paths
    mean_cost = sum(costs) / len(costs) if costs else float("inf")
    return p, mean_cost


def choose_procurement(
    rng: RngStream,
    work_hours: float,
    deadline_hours: int,
    *,
    on_demand_rate: float = 0.085,
    confidence: float = 0.95,
    candidate_bid_factors: tuple[float, ...] = (0.9, 1.0, 1.1, 1.3, 1.6, 2.0),
    n_paths: int = 200,
    market_kwargs: dict | None = None,
) -> ProcurementDecision:
    """Cheapest procurement meeting the completion-confidence target.

    On-demand always completes ``work_hours`` of parallelisable work within
    any ``deadline_hours ≥ ceil(work_hours / fleet)`` by adding instances,
    so its completion probability is 1 at cost ``rate × ⌈work⌉``.  Spot
    candidates are admitted only when their simulated completion
    probability reaches ``confidence``.
    """
    if work_hours <= 0:
        raise ValueError("work must be positive")
    if not 0 < confidence <= 1:
        raise ValueError("confidence must be in (0, 1]")
    on_demand_cost = on_demand_rate * math.ceil(work_hours)

    kwargs = market_kwargs or {}
    mean_price = kwargs.get("mean_price", SpotMarket.mean_price)  # the field default
    best: ProcurementDecision | None = None
    for factor in candidate_bid_factors:
        bid = round(mean_price * factor, 6)
        p, cost = spot_completion_probability(
            rng.fork(f"bid.{factor}"), bid, work_hours, deadline_hours,
            n_paths=n_paths, market_kwargs=kwargs)
        if p >= confidence and cost < on_demand_cost:
            cand = ProcurementDecision(
                mode="spot", bid=bid, expected_cost=cost,
                completion_probability=p, on_demand_cost=on_demand_cost)
            if best is None or cand.expected_cost < best.expected_cost:
                best = cand
    if best is not None:
        return best
    return ProcurementDecision(
        mode="on-demand", bid=None, expected_cost=on_demand_cost,
        completion_probability=1.0, on_demand_cost=on_demand_cost)
