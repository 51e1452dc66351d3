"""The benchmark's four campaign workloads.

Each workload builds its inputs in :meth:`setup` (the corpus, and for
``spot-storm`` a scan model fitted once), then serves a fixed pool of ops.
Pool entry ``k`` always runs on a fresh
:class:`~repro.vfs.files.Catalogue` wrapper over the setup's files and a
fresh cloud seeded from ``(seed, k)``, so no op sees a catalogue or cloud
an earlier op warmed, and every visit to entry ``k`` must reproduce the
same simulated outcome bit for bit.

``prepare(k)`` does the untimed per-op input preparation and returns the
timed call; ``check`` runs the output checks on what that call returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.apps import GrepApplication, GrepCostProfile, PosCostProfile, PosTaggerApplication
from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud, ExecutionService, Workload as AppWorkload, acquire_good_instance
from repro.core import Campaign, StaticProvisioner
from repro.corpus import html_18mil_like, text_400k_like
from repro.dag import S3Backend, fanout_pipeline, linear_pipeline
from repro.dag.scheduler import DagScheduler
from repro.perfmodel import fit_affine
from repro.resilience import SpotFallbackPolicy
from repro.runner import execute_plan_spot
from repro.sim.random import RngStream
from repro.units import HOUR, KB, MB
from repro.vfs.files import Catalogue, VirtualFile

import checks

#: Seed of every corpus and of the spot-storm model fit.  The inputs are
#: the same for every run seed, which varies only the clouds (instance
#: quality, probe noise, spot interruptions): a corpus drawn per seed
#: moved reshape-grep's median op time by 15 % from seed to seed, which
#: would hide the regressions the bounds are there to catch.
CORPUS_SEED = 2010

#: The shipped interruption regime both spot workloads run under.
STORM = "eviction-storm"


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for ``tag`` under the run seed."""
    h = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(h[:4], "little")


@dataclass
class Outcome:
    """What one op produced: its simulated facts and the evidence to check."""

    files: int                 # input files the op processed
    bins: int                  # bins planned
    missed: int                # bins past the user deadline, failed ones included
    cost: float                # simulated bill, USD
    clouds: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of every simulated result: bills, clocks and bin outcomes."""
        h = hashlib.sha256()
        h.update(repr((self.files, self.bins, self.missed, self.cost)).encode())
        for cloud in self.clouds:
            h.update(repr((cloud.now, cloud.engine.events_fired)).encode())
            for r in cloud.ledger.records:
                h.update(repr((r.instance_id, r.instance_type, r.start, r.end,
                               r.hourly_rate)).encode())
        for report in self.evidence.get("reports", ()):
            for r in report.runs:
                h.update(repr((r.instance_id, r.n_units, r.volume, r.boot_delay,
                               r.duration, r.predicted)).encode())
            for f in report.failures:
                h.update(repr(f).encode())
        return h.hexdigest()


def pool_digest(digests: dict[int, str], pool: int) -> str:
    """One hash over every pool entry's outcome digest, in entry order."""
    h = hashlib.sha256()
    for k in range(pool):
        h.update(digests.get(k, "missing").encode())
    return h.hexdigest()[:16]


class BenchWorkload:
    """One workload: seeded setup, a pool of ops, and their checks."""

    name = ""
    why = ""
    #: Distinct cloud seeds the ops cycle through.  The sim_* metrics
    #: average over the whole pool, so they depend on the seed only, never
    #: on how many ops fitted into the run.
    pool = 48

    def setup(self, seed: int, *, size: float = 1.0) -> None:
        """Build the inputs; ``size`` scales the corpus (smoke runs)."""
        raise NotImplementedError

    def prepare(self, k: int) -> Callable[[], Outcome]:
        raise NotImplementedError

    def check(self, out: Outcome) -> None:
        raise NotImplementedError


class _CampaignWorkload(BenchWorkload):
    """A full ``Campaign.run`` per op: vet, probe, fit, reshape, plan, execute."""

    scale = 0.0
    deadline = 0.0
    run_kwargs: dict = {}

    def corpus(self, size: float) -> Catalogue:
        raise NotImplementedError

    def app(self) -> AppWorkload:
        raise NotImplementedError

    def setup(self, seed: int, *, size: float = 1.0) -> None:
        self.seed = seed
        cat = self.corpus(size)
        self.files = list(cat)
        self.catalogue_name = cat.name

    def prepare(self, k: int) -> Callable[[], Outcome]:
        catalogue = Catalogue(self.files, name=self.catalogue_name)
        cloud_seed = derive_seed(self.seed, f"{self.name}/{k}")

        def op() -> Outcome:
            cloud = Cloud(seed=cloud_seed)
            res = Campaign(cloud, self.app(), catalogue, probe_repeats=3).run(
                self.deadline, **self.run_kwargs)
            report = res.report
            return Outcome(
                files=len(catalogue), bins=res.plan.n_instances,
                missed=report.n_missed + report.n_failed, cost=report.cost,
                clouds=[cloud],
                evidence={"catalogue": catalogue, "result": res,
                          "ledger": cloud.ledger, "reports": [report]})
        return op

    def check(self, out: Outcome) -> None:
        cat, res = out.evidence["catalogue"], out.evidence["result"]
        units = res.reshape_plan.units
        checks.files_in_units_once(cat, units)
        checks.units_in_bins_once(units, res.plan)
        checks.bins_hold_volume(res.plan, cat.total_size)
        checks.every_bin_accounted(res.report, res.plan.n_instances, cat.total_size)
        checks.on_demand_bill_matches(out.evidence["ledger"], res.report)


class ReshapeGrep(_CampaignWorkload):
    """Literal grep over a long-tailed crawl: the paper's headline path."""

    name = "reshape-grep"
    pool = 40
    why = ("grep campaign over a long-tailed crawl: packing, probes and "
           "per-segment stats work, runner and capacity idle")
    scale = 0.0025             # ≈45k html_18mil_like files, ≈2.2 GB
    deadline = 10.0
    # A 200 MB first probe set is stable on this corpus, so every op probes
    # once and then extends the winner's volumes, and 10 MB units win in
    # nearly every pool entry: op times differ by cloud, not by how many
    # protocol rounds or which unit size probe noise happened to force.
    run_kwargs = dict(
        initial_volume=200 * MB, max_probe_rounds=1,
        unit_sizes_for=lambda v: [100 * KB, 1 * MB, 10 * MB],
        strategy="uniform", refit_samples=3, sample_volume=20 * MB,
        use_adjusted_deadline=True,
    )

    def corpus(self, size: float) -> Catalogue:
        return html_18mil_like(scale=self.scale * size, seed=CORPUS_SEED)

    def app(self) -> AppWorkload:
        return AppWorkload("grep", GrepApplication(), GrepCostProfile())


class PosOrig(_CampaignWorkload):
    """POS tagging of many tiny files under a tight deadline (Fig. 7 side)."""

    name = "pos-orig"
    why = ("POS campaign on tiny files, original segmentation wins: apps "
           "cost model and planner work per file, packing idle")
    scale = 0.06               # ≈24k text_400k_like files, ≈56 MB
    deadline = 300.0
    run_kwargs = dict(
        initial_volume=100 * KB,
        unit_sizes_for=lambda v: [10 * KB, 100 * KB],
        strategy="uniform", refit_samples=3, sample_volume=2 * MB,
        use_adjusted_deadline=True,
    )

    def corpus(self, size: float) -> Catalogue:
        return text_400k_like(scale=self.scale * size, seed=CORPUS_SEED)

    def app(self) -> AppWorkload:
        return AppWorkload("postag", PosTaggerApplication(), PosCostProfile())


def _scan_workload() -> AppWorkload:
    """The I/O-bound scan the shipped spot sweep provisions on spot capacity."""
    profile = GrepCostProfile(stream_bandwidth=0.12 * MB, per_file_overhead=0.05,
                              cpu_per_byte=3.0e-6)
    return AppWorkload("scan", GrepApplication(), profile)


class SpotStorm(BenchWorkload):
    """Multi-hour uniform bins on spot capacity under the eviction storm."""

    name = "spot-storm"
    why = ("spot bins under eviction-storm with the ladder on: RNG forks, "
           "segment re-measurement, spot, cloud and resilience work; corpus "
           "and packing idle")
    n_files = 3000             # 2-8 MB each, ≈15 GB
    # How hard a cloud seed's storm hits spreads op time by a third from
    # entry to entry, whatever the plan size: small ops in a big pool
    # average that out.
    pool = 120
    deadline = 4 * HOUR
    planning_deadline = 2 * HOUR

    def setup(self, seed: int, *, size: float = 1.0) -> None:
        self.seed = seed
        rng = RngStream(CORPUS_SEED, name="spot-storm")
        sizes = rng.uniforms(2 * MB, 8 * MB, int(self.n_files * size)).astype(np.int64)
        self.files = [VirtualFile(path=f"scan/{i:06d}.txt", size=int(s))
                      for i, s in enumerate(sizes)]
        self.workload = _scan_workload()
        self.model = self._fit()

    def _fit(self):
        """Scan model from probes on a vetted instance, done once per run."""
        cloud = Cloud(seed=CORPUS_SEED)
        instance, _ = acquire_good_instance(cloud)
        svc = ExecutionService(cloud)
        xs, ys = [], []
        for n in (5, 15, 30):
            subset = self.files[:n]
            vol = sum(f.size for f in subset)
            for _ in range(3):
                xs.append(vol)
                ys.append(svc.run(instance, subset, self.workload, advance_clock=False))
        return fit_affine(np.array(xs), np.array(ys))

    def prepare(self, k: int) -> Callable[[], Outcome]:
        catalogue = Catalogue(self.files, name="scan")
        cloud_seed = derive_seed(self.seed, f"spot-storm/{k}")

        def op() -> Outcome:
            plan = StaticProvisioner(self.model).plan(
                list(catalogue), self.deadline, strategy="uniform",
                planning_deadline=self.planning_deadline)
            injector = FaultInjector(
                [get_spot_regime(STORM).scenario(cloud_seed)], seed=cloud_seed)
            cloud = Cloud(seed=cloud_seed, chaos=injector)
            result = execute_plan_spot(cloud, self.workload, plan,
                                       policy=SpotFallbackPolicy(bid=0.06))
            report = result.report
            missed = report.n_failed + sum(
                1 for r in report.runs if r.boot_delay + r.duration > plan.deadline)
            return Outcome(
                files=len(catalogue), bins=plan.n_instances, missed=missed,
                cost=result.stats.total_cost, clouds=[cloud],
                evidence={"catalogue": catalogue, "plan": plan, "result": result,
                          "ledger": cloud.ledger, "reports": [report]})
        return op

    def check(self, out: Outcome) -> None:
        cat, plan, result = (out.evidence[k] for k in ("catalogue", "plan", "result"))
        checks.files_in_units_once(cat, [u for b in plan.assignments for u in b])
        checks.bins_hold_volume(plan, cat.total_size)
        checks.every_bin_accounted(result.report, plan.n_instances, cat.total_size)
        checks.spot_bill_matches(out.evidence["ledger"], result.stats)


class DagSpotLease(BenchWorkload):
    """Linear then fan-out DAG on spot capacity with warm-lease escalation."""

    name = "dag-spot-lease"
    why = ("linear and fan-out DAGs on spot-lease under eviction-storm: the "
           "only path through dag, derived catalogues and fleet leases")
    scale = 1e-4               # ≈1.8k html_18mil_like files
    deadline = 6 * HOUR
    shapes = (linear_pipeline, fanout_pipeline)

    def setup(self, seed: int, *, size: float = 1.0) -> None:
        self.seed = seed
        cat = html_18mil_like(scale=self.scale * size, seed=CORPUS_SEED)
        self.files = list(cat)
        self.catalogue_name = cat.name

    def prepare(self, k: int) -> Callable[[], Outcome]:
        catalogues = [Catalogue(self.files, name=self.catalogue_name)
                      for _ in self.shapes]
        seeds = [derive_seed(self.seed, f"dag/{k}/{shape.__name__}")
                 for shape in self.shapes]

        def op() -> Outcome:
            out = Outcome(files=0, bins=0, missed=0, cost=0.0,
                          evidence={"runs": [], "reports": []})
            for shape, catalogue, s in zip(self.shapes, catalogues, seeds):
                injector = FaultInjector([get_spot_regime(STORM).scenario(s)], seed=s)
                cloud = Cloud(seed=s, chaos=injector)
                graph = shape()
                report = DagScheduler(cloud, graph, catalogue, self.deadline,
                                      backend=S3Backend(), policy="spot-lease",
                                      label=f"bench.{shape.__name__}").run()
                out.files += len(catalogue)
                out.bins += report.n_bins
                out.missed += report.n_missed + report.n_failed
                out.cost += report.total_cost
                out.clouds.append(cloud)
                out.evidence["runs"].append((graph, catalogue, report, cloud.ledger))
                out.evidence["reports"].extend(
                    stage.report for stage in report.stages.values())
            return out
        return op

    def check(self, out: Outcome) -> None:
        for graph, catalogue, report, ledger in out.evidence["runs"]:
            checks.dag_volumes_match(graph, catalogue.total_size, report)
            checks.dag_bill_matches(ledger, report)


WORKLOADS: dict[str, type[BenchWorkload]] = {
    w.name: w for w in (ReshapeGrep, PosOrig, SpotStorm, DagSpotLease)
}
