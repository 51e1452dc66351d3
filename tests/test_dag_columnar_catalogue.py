"""The DAG path builds no per-file objects: catalogues stay columns.

A stage's output is a columnar catalogue whose rows (and their content
seeds) are built only on demand; the planner packs its size column and
hands out column slices as bins; the execution core and the spot
segments price those slices as they are.  Nothing on the way iterates a
bin's rows, so a whole spot-lease DAG run under the eviction storm
constructs no :class:`VirtualFile` and hashes no content seed once its
input catalogue exists.
"""

import pytest

import repro.vfs.files as vfs_files
from repro.apps.base import UnitColumns
from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud
from repro.corpus import html_18mil_like
from repro.dag import S3Backend, fanout_pipeline, linear_pipeline
from repro.dag.scheduler import DagScheduler
from repro.units import HOUR
from repro.vfs.files import Catalogue, VirtualFile


@pytest.fixture
def counts(monkeypatch):
    """File constructions, catalogue seed hashes, row walks and column builds."""
    seen = {"files": 0, "seeds": 0, "walks": 0, "columns_of": []}
    post_init = VirtualFile.__post_init__

    def counting_post_init(self):
        seen["files"] += 1
        post_init(self)

    seed = vfs_files.stable_seed

    def counting_seed(parent, name):
        seen["seeds"] += 1
        return seed(parent, name)

    walk = Catalogue.__iter__

    def counting_walk(self):
        seen["walks"] += 1
        return walk(self)

    of = UnitColumns.of.__func__

    def counting_of(cls, units):
        seen["columns_of"].append(units)
        return of(cls, units)

    monkeypatch.setattr(VirtualFile, "__post_init__", counting_post_init)
    monkeypatch.setattr(vfs_files, "stable_seed", counting_seed)
    monkeypatch.setattr(Catalogue, "__iter__", counting_walk)
    monkeypatch.setattr(UnitColumns, "of", classmethod(counting_of))
    return seen


def _run(shape, catalogue, seed):
    chaos = FaultInjector([get_spot_regime("eviction-storm").scenario(seed)],
                          seed=seed)
    cloud = Cloud(seed=seed, chaos=chaos)
    # A three-hour deadline splits every stage over several bins.
    return DagScheduler(cloud, shape(), catalogue, 3 * HOUR,
                        backend=S3Backend(), policy="spot-lease",
                        label=f"test.{shape.__name__}").run()


@pytest.mark.chaos
@pytest.mark.parametrize("shape", [linear_pipeline, fanout_pipeline])
def test_spot_lease_dag_builds_no_files(counts, shape):
    catalogue = html_18mil_like(scale=1e-3, seed=7)
    counts.update(files=0, seeds=0, walks=0, columns_of=[])
    report = _run(shape, catalogue, seed=7)
    assert report.spot_stats["interruptions"] > 0
    assert len(report.stages) == 5 and report.n_bins >= 20
    assert counts["files"] == 0
    assert counts["seeds"] == 0
    assert counts["walks"] == 0
    # Columns are built once per stage, from the stage's input catalogue;
    # every other call passes a planner bin through untouched.
    built = [u for u in counts["columns_of"] if not isinstance(u, UnitColumns)]
    assert len(built) == 5
    assert all(isinstance(u, Catalogue) for u in built)
    assert len(counts["columns_of"]) > len(built)


@pytest.mark.chaos
def test_rows_are_still_there_on_demand(counts):
    # The same run's outputs materialise faithfully afterwards: a derived
    # row is built from its source row, once, and cached.
    from repro.core.workflow import derived_catalogue

    catalogue = html_18mil_like(scale=1e-4, seed=7)
    counts.update(files=0, seeds=0)
    graph = linear_pipeline()
    out = catalogue
    for stage in graph.stages()[:3]:
        out = derived_catalogue(out, stage, seed_tag=stage.name)
    assert counts["files"] == 0 and counts["seeds"] == 0
    f = out[len(out) // 2]
    assert f is out[len(out) // 2]
    # One row of a three-stage chain builds one file per derivation.
    assert counts["files"] == 3 and counts["seeds"] == 3
    assert f.path.startswith("tokenize/extract/filter/")
    assert len(f.materialize()) == f.size
