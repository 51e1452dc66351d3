"""Callers that price the same units repeatedly build their columns once.

A spot bin re-measures its units on every market segment, and a probe
runs its units ``repeats`` times.  The planner builds one
:class:`UnitColumns` per plan and hands out column slices as bins, which
every segment measures as they are; a probe builds one per probe.  The
columns iterate as the units they were built from, so anything that
walks the ``units`` argument of ``run`` still sees the original files
and segments.
"""

import numpy as np
import pytest

from repro.apps import GrepApplication, GrepCostProfile, PosCostProfile, PosTaggerApplication
from repro.apps.base import UnitColumns
from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance
from repro.core import StaticProvisioner, reshape
from repro.corpus import html_18mil_like, text_400k_like
from repro.perfmodel import fit_affine
from repro.perfmodel.analytical import calibrate_stream_model
from repro.perfmodel.probes import ProbeCampaign, build_probe_set
from repro.resilience import SpotFallbackPolicy
from repro.runner import execute_plan_spot
from repro.sim.random import RngStream
from repro.units import HOUR, KB, MB
from repro.vfs.files import VirtualFile


@pytest.fixture
def column_builds(monkeypatch):
    """Every argument ``UnitColumns.of`` had to build columns from."""
    builds = []
    of = UnitColumns.of.__func__

    def counting(cls, units):
        if not isinstance(units, UnitColumns):
            builds.append(units)
        return of(cls, units)

    monkeypatch.setattr(UnitColumns, "of", classmethod(counting))
    return builds


@pytest.fixture
def service_runs(monkeypatch):
    """The ``units`` argument of every ``ExecutionService.run`` call."""
    calls = []
    run = ExecutionService.run

    def counting(self, instance, units, *args, **kwargs):
        calls.append(units)
        return run(self, instance, units, *args, **kwargs)

    monkeypatch.setattr(ExecutionService, "run", counting)
    return calls


def _scan():
    """200 scan files of 2-8 MB, their workload and a probe-fitted model."""
    sizes = RngStream(2010, name="spot-storm").uniforms(2 * MB, 8 * MB, 200)
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


class TestSpotSegments:
    @pytest.mark.chaos
    def test_one_build_per_bin_under_eviction_storm(self, column_builds,
                                                    service_runs):
        files, wl, model = _scan()
        column_builds.clear()
        plan = StaticProvisioner(model).plan(files, 4 * HOUR, strategy="uniform",
                                             planning_deadline=2 * HOUR)
        # The planner builds the columns once, from the file list, and
        # slices them into one set of columns per bin.
        assert len(column_builds) == 1 and column_builds[0] is files
        assert all(isinstance(b, UnitColumns) for b in plan.assignments)
        assert sorted(id(u) for b in plan.assignments for u in b) == sorted(
            map(id, files))
        seed = 4
        chaos = FaultInjector([get_spot_regime("eviction-storm").scenario(seed)],
                              seed=seed)
        cloud = Cloud(seed=seed, chaos=chaos)
        policy = SpotFallbackPolicy(bid=0.06)
        assert policy.ladder
        column_builds.clear()
        service_runs.clear()
        result = execute_plan_spot(cloud, wl, plan, policy=policy)
        assert result.stats.interruptions > 0
        # Segments re-measured the bins, each from its bin's own columns:
        # execution builds none.
        assert len(service_runs) > plan.n_instances
        assert column_builds == []
        assert {id(u) for u in service_runs} == {id(b) for b in plan.assignments}


class TestProbeRepeats:
    def test_one_build_per_probe(self, column_builds, service_runs):
        cloud = Cloud(seed=21)
        inst = cloud.launch_instance()
        svc = ExecutionService(cloud)
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        campaign = ProbeCampaign(svc, inst, wl, repeats=5)
        ps = build_probe_set(text_400k_like(scale=1e-3), 50 * KB, [5 * KB, 20 * KB])
        column_builds.clear()
        result = campaign.run_probe_set(ps)
        assert len(column_builds) == len(ps.variants) == 3
        assert len(service_runs) == 5 * len(ps.variants)
        assert all(m.n == 5 for m in result.variants.values())

    def test_analytical_calibration_builds_once_per_probe(self, column_builds,
                                                          service_runs):
        cloud = Cloud(seed=41)
        inst = cloud.launch_instance()
        svc = ExecutionService(cloud)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        calibrate_stream_model(svc, inst, wl, html_18mil_like(scale=3e-4),
                               probe_volume=100 * MB, small_unit=100 * KB,
                               repeats=3)
        assert len(column_builds) == 2
        assert len(service_runs) == 2 * 3


class TestColumnsIterateAsUnits:
    def test_segments_come_back_in_order(self):
        segments = list(reshape(text_400k_like(scale=1e-3), 20 * KB).units)
        cols = UnitColumns.of(segments)
        assert len(cols) == len(segments)
        assert all(a is b for a, b in zip(cols, segments, strict=True))
        assert UnitColumns.of(cols) is cols
        assert sum(len(s.members) for s in cols) == sum(len(s.members) for s in segments)

    def test_measuring_columns_equals_measuring_units(self):
        units = list(reshape(text_400k_like(scale=1e-3), 20 * KB).units)
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        times = []
        for arg in (units, UnitColumns.of(units)):
            cloud = Cloud(seed=9)
            inst = cloud.launch_instance()
            svc = ExecutionService(cloud)
            times.append([svc.run(inst, arg, wl) for _ in range(3)])
        assert times[0] == times[1]
