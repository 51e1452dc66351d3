"""Declarative fault scenarios.

A :class:`FaultScenario` is frozen data describing *what can go wrong*;
the :class:`~repro.chaos.injector.FaultInjector` decides *when it does*
under a seeded stream.  Scenarios compose by stacking: an experiment
passes any number of them and the injector combines the pieces (launch
rejection probabilities combine as independent events, degradation
factors multiply, outage windows union).

The shipped :data:`SCENARIOS` library covers one scenario per fault
class plus a composed ``kitchen-sink``; ``experiments/exp_chaos.py``
sweeps all of them with the resilience layer on and off.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat

from repro.sim.random import RngStream
from repro.units import HOUR

__all__ = ["AzOutage", "Degradation", "FaultScenario", "SCENARIOS",
           "SPOT_REGIMES", "SpotInterruptionTrace", "SpotRegime",
           "get_scenario", "get_spot_regime"]

#: Wildcard zone selector: the rate/episode applies to every zone.
ANY_ZONE = "*"


@dataclass(frozen=True)
class AzOutage:
    """A window during which one availability zone is dead.

    Launches into the zone are rejected for the whole window, and
    instances RUNNING in the zone at ``start`` are killed (billing their
    partial hours, like any crash).
    """

    zone: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("outage window must satisfy 0 <= start < end")

    def active(self, t: float) -> bool:
        """Is the zone dark at simulated time ``t``?"""
        return self.start <= t < self.end


@dataclass(frozen=True)
class Degradation:
    """A degraded-throughput episode on a storage path.

    ``factor`` multiplies transfer/IO time (2.0 = half throughput) while
    the episode is active; ``sigma_boost`` is added to the path's
    request-to-request variability (S3 brownouts mostly fatten the tail
    rather than move the median).  ``zone`` scopes EBS episodes to one
    AZ (S3 is regional, so S3 episodes ignore it).
    """

    start: float
    end: float
    factor: float = 1.0
    sigma_boost: float = 0.0
    zone: str = ANY_ZONE

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("episode window must satisfy 0 <= start < end")
        if self.factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        if self.sigma_boost < 0:
            raise ValueError("sigma boost must be non-negative")

    def active(self, t: float) -> bool:
        """Is the episode degrading its path at simulated time ``t``?"""
        return self.start <= t < self.end


@dataclass(frozen=True)
class SpotInterruptionTrace:
    """A recorded spot-interruption timeline, replayable by name.

    ``events`` holds ``(at_seconds, zone)`` reclamation instants in time
    order — the market takes the instance back at ``at`` regardless of
    price (capacity reclaims, not price crossings), after the standard
    two-minute warning.  A trace is frozen data: replaying it under the
    same cloud seed reproduces the run bit-for-bit, and stacking it onto
    a :class:`FaultScenario` composes with every other fault class.

    Traces are *generated* (not hand-written) via :meth:`generate`, which
    draws per-zone exponential gaps from named :class:`RngStream` forks
    (``spot.trace.{name}.{zone}``) — pure derivations off the seed, so
    installing a trace never shifts draws any existing consumer observes.
    """

    name: str
    events: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("trace needs a name")
        for at, zone in self.events:
            if at < 0:
                raise ValueError("interruption times must be non-negative")
            if not zone:
                raise ValueError("interruption needs a zone")
        if list(self.events) != sorted(self.events):
            raise ValueError("trace events must be in time order")

    @classmethod
    def generate(cls, name: str, *, seed: int, zones: tuple[str, ...],
                 mean_gap_hours: float,
                 horizon_hours: float = 24.0) -> "SpotInterruptionTrace":
        """Draw one trace: per-zone Poisson reclaims at the given rate.

        Each zone's gaps come from its own named fork of the canonical
        ``(seed, "cloud")`` stream, so the trace is a pure function of
        ``(name, seed, zones, rate, horizon)`` and is independent of
        query order or any other consumer of the seed.
        """
        if mean_gap_hours <= 0:
            raise ValueError("mean gap must be positive")
        root = RngStream(seed, name="cloud").fork(f"spot.trace.{name}")
        gap, horizon = mean_gap_hours * HOUR, horizon_hours * HOUR
        # Gaps come in batches of the expected count plus four deviations,
        # and ``accumulate`` adds them in order: the instants equal a
        # running ``t += gap`` over the same draws.
        batch = int(horizon / gap + 4 * math.sqrt(horizon / gap)) + 1
        events: list[tuple[float, str]] = []
        for zone in zones:
            rng = root.fork(zone)
            gaps = rng.exponentials(gap, batch).tolist()
            t = list(accumulate(gaps))
            while t[-1] < horizon:          # the batch fell short: draw more
                gaps += rng.exponentials(gap, batch).tolist()
                t = list(accumulate(gaps))
            events.extend(zip(t[:bisect_left(t, horizon)], repeat(zone)))
        return cls(name=name, events=tuple(sorted(events)))

    def next_after(self, zone: str, t: float) -> float | None:
        """The first recorded reclamation in ``zone`` strictly after ``t``."""
        for at, z in self.events:
            if z == zone and at > t:
                return at
        return None

    def events_for(self, zone: str) -> tuple[float, ...]:
        """All reclamation instants recorded for one zone, in order."""
        return tuple(at for at, z in self.events if z == zone)


@dataclass(frozen=True)
class SpotRegime:
    """A generative family of interruption traces at one market mood.

    The regime is the *family* (how hostile the market is); a concrete
    :class:`SpotInterruptionTrace` is one member, fully determined by the
    seed — ``regime.trace(seed)`` is what experiments install, and two
    calls with the same seed return identical traces.
    """

    name: str
    mean_gap_hours: float
    horizon_hours: float = 24.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("regime needs a name")
        if self.mean_gap_hours <= 0 or self.horizon_hours <= 0:
            raise ValueError("regime rates must be positive")

    def trace(self, seed: int, *,
              zones: tuple[str, ...] = ("us-east-1a", "us-east-1b",
                                        "us-east-1c", "us-east-1d"),
              ) -> SpotInterruptionTrace:
        """The regime's concrete trace for one campaign seed."""
        return SpotInterruptionTrace.generate(
            self.name, seed=seed, zones=zones,
            mean_gap_hours=self.mean_gap_hours,
            horizon_hours=self.horizon_hours)

    def scenario(self, seed: int, **kwargs) -> "FaultScenario":
        """A single-trace :class:`FaultScenario` ready to install."""
        return FaultScenario(name=f"spot-{self.name}",
                             spot_interruptions=(self.trace(seed, **kwargs),))


#: The shipped interruption regimes ``experiments/exp_spot.py`` sweeps:
#: from a market that reclaims a zone's capacity twice a day to one that
#: churns every zone a few times per hour.
SPOT_REGIMES: dict[str, SpotRegime] = {
    "calm": SpotRegime("calm", mean_gap_hours=12.0),
    "choppy": SpotRegime("choppy", mean_gap_hours=1.5),
    "eviction-storm": SpotRegime("eviction-storm", mean_gap_hours=0.25,
                                 horizon_hours=12.0),
}


def get_spot_regime(name: str) -> SpotRegime:
    """Look up a shipped spot regime (raises ``KeyError`` with the menu)."""
    try:
        return SPOT_REGIMES[name]
    except KeyError:
        raise KeyError(
            f"unknown spot regime {name!r}; shipped: "
            f"{', '.join(sorted(SPOT_REGIMES))}") from None


@dataclass(frozen=True)
class FaultScenario:
    """One declarative bundle of fault processes.

    ``launch_reject_rates`` maps zone name (or ``"*"``) to the per-attempt
    probability of an ``InsufficientInstanceCapacity``-style rejection;
    ``boot_hang_prob`` is the chance a granted launch sticks in PENDING
    for ``boot_hang_seconds`` instead of its drawn boot delay.
    """

    name: str
    launch_reject_rates: tuple[tuple[str, float], ...] = ()
    boot_hang_prob: float = 0.0
    boot_hang_seconds: float = 2 * HOUR
    az_outages: tuple[AzOutage, ...] = ()
    ebs_degradations: tuple[Degradation, ...] = ()
    s3_degradations: tuple[Degradation, ...] = ()
    #: Replayable spot-reclaim timelines (union across stacked scenarios);
    #: only spot-acquired capacity feels them — on-demand runs are immune.
    spot_interruptions: tuple[SpotInterruptionTrace, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        for zone, rate in self.launch_reject_rates:
            if not zone:
                raise ValueError("empty zone selector")
            if not 0 <= rate < 1:
                raise ValueError(f"reject rate for {zone!r} must be in [0, 1)")
        if not 0 <= self.boot_hang_prob < 1:
            raise ValueError("boot_hang_prob must be in [0, 1)")
        if self.boot_hang_seconds <= 0:
            raise ValueError("boot_hang_seconds must be positive")

    def reject_rate(self, zone_name: str) -> float:
        """Per-attempt launch rejection probability in ``zone_name``."""
        p_ok = 1.0
        for selector, rate in self.launch_reject_rates:
            if selector == ANY_ZONE or selector == zone_name:
                p_ok *= 1.0 - rate
        return 1.0 - p_ok


def _shipped() -> dict[str, FaultScenario]:
    """The scenario library the chaos sweep runs."""
    return {
        # Regional capacity crunch: every launch attempt has a fair chance
        # of an InsufficientInstanceCapacity rejection, everywhere.
        "capacity-crunch": FaultScenario(
            name="capacity-crunch",
            launch_reject_rates=((ANY_ZONE, 0.45),),
        ),
        # Hypervisor gremlins: launches are granted but some instances
        # never leave PENDING within any useful time.
        "flaky-boots": FaultScenario(
            name="flaky-boots",
            boot_hang_prob=0.30,
            boot_hang_seconds=2 * HOUR,
        ),
        # One zone goes dark for two hours from t=0 — and it is the zone
        # every default launch targets.
        "az-blackout": FaultScenario(
            name="az-blackout",
            az_outages=(AzOutage("us-east-1a", 0.0, 2 * HOUR),),
        ),
        # The paper's Fig. 5 placement spikes, scaled up to an episode:
        # every EBS read in one zone runs at ~1/3 throughput for hours.
        "slow-ebs": FaultScenario(
            name="slow-ebs",
            ebs_degradations=(
                Degradation(0.0, 4 * HOUR, factor=3.0, zone="us-east-1a"),
            ),
        ),
        # S3 brownout: modest median slowdown, much fatter tail.
        "s3-brownout": FaultScenario(
            name="s3-brownout",
            s3_degradations=(
                Degradation(0.0, 4 * HOUR, factor=2.0, sigma_boost=0.9),
            ),
        ),
        # A bit of everything, at milder intensities.
        "kitchen-sink": FaultScenario(
            name="kitchen-sink",
            launch_reject_rates=((ANY_ZONE, 0.20),),
            boot_hang_prob=0.10,
            boot_hang_seconds=1 * HOUR,
            ebs_degradations=(
                Degradation(0.0, 2 * HOUR, factor=2.0, zone="us-east-1a"),
            ),
            s3_degradations=(
                Degradation(0.0, 2 * HOUR, factor=1.5, sigma_boost=0.4),
            ),
        ),
    }


SCENARIOS: dict[str, FaultScenario] = _shipped()


def get_scenario(name: str) -> FaultScenario:
    """Look up a shipped scenario by name (raises ``KeyError`` with the menu)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; shipped: {', '.join(sorted(SCENARIOS))}"
        ) from None
