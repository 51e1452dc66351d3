"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_shipped_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric(name, trace, section, tmp_path):
    res = result_of(bench("--workload", name, "--seed", "3", "--trace", str(trace),
                          "--spans-out", str(tmp_path / "spans.jsonl")))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 11
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace:
        assert res["metrics"]["other.share"]["value"] <= 0.10
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for f in filenames:
            p = Path(dirpath, f)
            st = p.stat()
            out[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def test_run_leaves_the_working_tree_unchanged(tmp_path):
    before = _tree(ROOT)
    result_of(bench("--workload", "spot-storm", "--seed", "5", "--trace", "1",
                    "--spans-out", str(tmp_path / "spans.jsonl")))
    assert _tree(ROOT) == before


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _op(name: str, k: int = 0) -> tuple[workloads.BenchWorkload, workloads.Outcome]:
    wl = workloads.WORKLOADS[name]()
    wl.setup(7, size=0.05)
    return wl, wl.prepare(k)()


@pytest.mark.parametrize("name", NAMES)
def test_clean_op_passes_and_repeats_exactly(name):
    wl, out = _op(name)
    wl.check(out)
    assert wl.prepare(0)().digest() == out.digest()
    assert wl.prepare(1)().digest() != out.digest()


def test_dropped_unit_is_flagged():
    wl, out = _op("reshape-grep")
    res = out.evidence["result"]
    res.reshape_plan = dataclasses.replace(
        res.reshape_plan, units=res.reshape_plan.units[1:])
    with pytest.raises(CheckFailed, match="partition"):
        wl.check(out)


def test_unit_dropped_from_a_bin_is_flagged():
    wl, out = _op("spot-storm")
    out.evidence["plan"].assignments[0].pop()
    with pytest.raises(CheckFailed):
        wl.check(out)


@pytest.mark.parametrize("name", NAMES)
def test_inflated_bill_is_flagged(name):
    wl, out = _op(name)
    run = out.evidence["reports"][0].runs[0]
    out.clouds[0].ledger.record(run.instance_id, "m1.small", 0.0, 60.0, 0.085)
    with pytest.raises(CheckFailed, match="bill|ledger"):
        wl.check(out)


def test_bill_off_the_ceil_hour_is_flagged():
    class Record:
        instance_id, start, end, hourly_rate, cost = "i-1", 0.0, 3601.0, 0.1, 0.1

    class Ledger:
        records = (Record(),)

    with pytest.raises(CheckFailed, match="ceil-hour"):
        checks.records_are_ceil_hour(Ledger())
