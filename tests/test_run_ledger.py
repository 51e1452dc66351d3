"""Tests for the flight recorder: RunRecord, RunLedger, and emission sites."""

import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry, configure, disable
from repro.obs.ledger import (
    LedgerError,
    RunLedger,
    RunRecord,
    capture_runs,
    configure_run_ledger,
    decode_metrics_dump,
    encode_metrics_dump,
    get_run_ledger,
    record_experiment,
    set_run_ledger,
)


def _registry_with_everything() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("a.count", side="x").inc(3)
    reg.gauge("a.level").set(-2.5)
    reg.histogram("a.lat", buckets=(0.1, 1.0)).observe(0.05)
    reg.histogram("a.lat", buckets=(0.1, 1.0)).observe(7.25)
    reg.histogram("a.empty", buckets=(1.0,))   # inf sentinels survive JSON
    return reg


class TestDumpCodec:
    def test_round_trip_is_identical(self):
        rows = _registry_with_everything().dump()
        back = decode_metrics_dump(
            json.loads(json.dumps(encode_metrics_dump(rows))))
        assert back == rows

    def test_decoded_rows_merge_into_fresh_registry(self):
        rows = _registry_with_everything().dump()
        reg = MetricsRegistry()
        reg.merge_dump(decode_metrics_dump(
            json.loads(json.dumps(encode_metrics_dump(rows)))))
        assert reg.dump() == rows

    def test_numpy_label_values_become_plain(self):
        reg = MetricsRegistry()
        reg.counter("a.b", n=np.int64(3)).inc()
        enc = encode_metrics_dump(reg.dump())
        assert json.dumps(enc)   # must be JSON-clean
        assert enc[0][1] == [["n", 3]]


class TestRunRecord:
    def test_to_from_dict_round_trip(self):
        rec = RunRecord(
            kind="runner", label="execute_plan",
            config={"seed": 7, "strategy": "uniform"},
            metrics=encode_metrics_dump(_registry_with_everything().dump()),
            spans={"runner.execute": {"count": 2, "total_s": 0.5}},
            billing={"cost_usd": 1.25}, deadline={"missed": 0, "bins": 4},
            profile={"wall_s": 0.01}, extra={"note": "hi"},
        )
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict() == rec.to_dict()
        assert back.metric_rows() == _registry_with_everything().dump()

    def test_get_dotted_path_and_default(self):
        rec = RunRecord(kind="runner", label="x",
                        billing={"cost_usd": 1.5},
                        profile={"phases": {"execute": {"wall_s": 2.0}}})
        assert rec.get("billing.cost_usd") == 1.5
        assert rec.get("profile.phases.execute.wall_s") == 2.0
        assert rec.get("billing.nope", -1) == -1

    def test_metric_value_reads_series(self):
        rec = RunRecord(kind="runner", label="x",
                        metrics=encode_metrics_dump(
                            _registry_with_everything().dump()))
        assert rec.metric_value("a.count", side="x") == 3.0
        assert rec.metric_value("a.count", side="other") == 0.0

    def test_from_dict_missing_kind_raises(self):
        with pytest.raises(LedgerError):
            RunRecord.from_dict({"label": "x"})


class TestRunLedger:
    def test_file_backed_append_and_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(RunRecord(kind="runner", label="execute_plan"))
        ledger.append(RunRecord(kind="columnar", label="fleet"))
        assert (tmp_path / "runs" / "ledger.jsonl").exists()
        # A second instance over the same root sees both lines.
        again = RunLedger(tmp_path / "runs")
        ids = [r.run_id for r in again.records()]
        assert ids == ["execute_plan-0001", "fleet-0002"]
        assert [r.kind for r in again.records(kind="columnar")] == ["columnar"]

    def test_in_memory_ledger_never_touches_disk(self, tmp_path):
        ledger = RunLedger(None)
        ledger.append(RunRecord(kind="runner", label="a"))
        assert ledger.path is None
        assert len(ledger) == 1

    def test_resolve_by_id_and_negative_index(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for label in ("a", "b", "c"):
            ledger.append(RunRecord(kind="runner", label=label))
        assert ledger.resolve("b-0002").label == "b"
        assert ledger.resolve("-1").label == "c"
        assert ledger.resolve("-3").label == "a"
        with pytest.raises(LedgerError):
            ledger.resolve("nope")
        with pytest.raises(LedgerError):
            ledger.resolve("-9")

    def test_resolve_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="empty"):
            RunLedger(tmp_path).resolve("-1")

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "runner", "label": "ok"}\nnot json\n')
        with pytest.raises(LedgerError, match="2"):
            RunLedger(tmp_path).records()

    def test_append_preserves_existing_identity(self, tmp_path):
        ledger = RunLedger(tmp_path)
        rec = RunRecord(kind="runner", label="x", run_id="custom",
                        created_at="2026-01-01T00:00:00+00:00")
        ledger.append(rec)
        back = ledger.records()[0]
        assert back.run_id == "custom"
        assert back.created_at == "2026-01-01T00:00:00+00:00"


class TestModuleDefault:
    def test_default_is_off(self):
        assert get_run_ledger() is None

    def test_capture_runs_installs_and_restores(self):
        before = get_run_ledger()
        with capture_runs() as ledger:
            assert get_run_ledger() is ledger
            record_experiment("probe", extra={"k": 1})
            assert ledger.records()[0].label == "probe"
        assert get_run_ledger() is before

    def test_configure_run_ledger_and_restore(self, tmp_path):
        previous = set_run_ledger(None)
        try:
            ledger = configure_run_ledger(tmp_path)
            assert get_run_ledger() is ledger
        finally:
            set_run_ledger(previous)

    def test_record_experiment_noop_when_off(self):
        assert get_run_ledger() is None
        assert record_experiment("probe") is None

    def test_record_experiment_captures_live_metrics(self):
        obs = configure(trace=False)
        try:
            obs.metrics.counter("probe.hits").inc(4)
            with capture_runs() as ledger:
                record_experiment("probe")
            rec = ledger.records()[0]
            assert rec.metric_value("probe.hits") == 4.0
        finally:
            disable()


def _quick_plan(n_bins=4):
    from repro.core import reshape
    from repro.core.planner import ProvisioningPlan
    from repro.corpus import text_400k_like

    units = list(reshape(text_400k_like(scale=2e-3), None).units)
    assignments = [units[i::n_bins] for i in range(n_bins)]
    return ProvisioningPlan(
        deadline=3600.0, planning_deadline=3600.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[60.0] * n_bins)


def _pos_workload():
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.cloud import Workload

    return Workload("postag", PosTaggerApplication(), PosCostProfile())


class TestRunnerEmission:
    def test_execute_plan_emits_one_record(self):
        from repro.cloud import Cloud
        from repro.runner import execute_plan

        with capture_runs() as ledger:
            report = execute_plan(Cloud(seed=11), _pos_workload(),
                                  _quick_plan())
        recs = ledger.records(kind="runner")
        assert len(recs) == 1
        rec = recs[0]
        assert rec.label == "execute_plan"
        assert rec.config["seed"] == 11
        assert rec.config["strategy"] == "uniform"
        assert rec.deadline["bins"] == 4
        assert rec.deadline["makespan_s"] == pytest.approx(report.makespan)
        assert rec.billing["cost_usd"] == pytest.approx(
            report.cost, abs=1e-6)
        assert rec.profile["events_fired"] > 0
        assert set(rec.profile["phases"]) == {"acquire", "execute",
                                              "finalize"}

    def test_no_ledger_no_record_and_report_unchanged(self):
        from repro.cloud import Cloud
        from repro.runner import execute_plan

        assert get_run_ledger() is None
        with capture_runs() as ledger:
            ledgered = execute_plan(Cloud(seed=11), _pos_workload(),
                                    _quick_plan())
        bare = execute_plan(Cloud(seed=11), _pos_workload(), _quick_plan())
        assert bare.makespan == ledgered.makespan
        assert bare.cost == ledgered.cost
        assert len(ledger.records()) == 1

    def test_columnar_emission(self):
        from repro.cloud import Cloud
        from repro.runner import execute_uniform_fleet

        units = _quick_plan().assignments[0]
        with capture_runs() as ledger:
            report = execute_uniform_fleet(Cloud(seed=5), _pos_workload(),
                                           50, units, deadline=3600.0)
        rec = ledger.records(kind="columnar")[0]
        assert rec.label == "execute_uniform_fleet"
        assert rec.config["instances"] == 50
        assert rec.deadline["makespan_s"] == pytest.approx(report.makespan)
        assert rec.profile["events_fired"] == 2   # barrier + completion

    def test_sweep_ships_cell_records_home(self):
        from repro.experiments.sweep import Cell, run_sweep

        cells = [Cell(fn="repro.experiments.exp_chaos:run_cell",
                      kwargs={"scenario_name": "slow-ebs", "seed": s,
                              "resilience": True}, tag=s)
                 for s in (101, 202)]
        with capture_runs() as ledger:
            result = run_sweep(cells, processes=1)
        kinds = {r.kind for r in ledger.records()}
        assert "runner" in kinds           # cells' inner runner records
        assert len(result.run_records) == len(ledger.records())
        ids = [r.run_id for r in ledger.records()]
        assert len(ids) == len(set(ids))   # parent re-stamps unique ids


class TestHermeticSuite:
    def test_cli_records_land_in_tmp_not_working_tree(self, tmp_path, capsys):
        """The autouse conftest fixture redirects the CLI's default ledger."""
        from pathlib import Path

        from repro.cli import main as cli_main

        tree = Path(".repro/runs/ledger.jsonl")
        before = tree.stat() if tree.exists() else None
        assert cli_main(["figures", "--ids", "F2"]) == 0
        assert len(RunLedger(tmp_path / "runs")) >= 1
        after = tree.stat() if tree.exists() else None
        if before is None:
            assert after is None
        else:
            assert (after.st_size, after.st_mtime_ns) == (
                before.st_size, before.st_mtime_ns)
