"""Run diffing, SLO evaluation, and the perf-regression gate end to end.

The acceptance demos for the flight recorder: two identical-seed runs
diff *clean* (zero significant deterministic deltas, bit-identical metric
dumps); an artificially degraded engine run is flagged as a >15% perf
regression by ``diff_runs``, by ``regression_gate``, and by the
``repro.cli runs diff --strict`` exit code; and the chaos campaign SLOs
split exactly along the resilience policy — on passes, off violates.
"""

import pytest

from repro.cli import main as cli_main
from repro.obs import configure, disable
from repro.obs.diff import (
    Delta,
    GateViolation,
    diff_runs,
    regression_gate,
    render_diff_table,
    render_gate_report,
)
from repro.obs.ledger import RunLedger, RunRecord, capture_runs, set_run_ledger
from repro.obs.slo import Objective, SloPolicy, render_slo_table


def _event_driven_run(seed: int) -> RunRecord:
    """One 16-bin event-driven plan under a fresh obs bundle + ledger."""
    from repro.cloud import Cloud, Workload
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.core import reshape
    from repro.core.planner import ProvisioningPlan
    from repro.corpus import text_400k_like
    from repro.runner import execute_plan_event_driven

    n_bins = 16
    units = list(reshape(text_400k_like(scale=5e-3), None).units)
    assignments = [units[i::n_bins] for i in range(n_bins)]
    plan = ProvisioningPlan(
        deadline=3600.0, planning_deadline=3600.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[60.0] * n_bins)
    configure(trace=False)
    try:
        with capture_runs() as ledger:
            cloud = Cloud(seed=seed)
            execute_plan_event_driven(
                cloud, Workload("postag", PosTaggerApplication(),
                                PosCostProfile()), plan)
        return ledger.records()[-1]
    finally:
        disable()


class TestCleanDiff:
    def test_identical_seeds_diff_clean(self):
        a = _event_driven_run(seed=11)
        b = _event_driven_run(seed=11)
        diff = diff_runs(a, b)
        assert diff.identical_metrics          # bit-identical dumps
        assert diff.significant == []          # zero deterministic drift
        assert not diff.added_series and not diff.removed_series
        assert diff.clean
        assert "CLEAN" in render_diff_table(diff)

    def test_different_seeds_diff_dirty(self):
        diff = diff_runs(_event_driven_run(seed=11),
                         _event_driven_run(seed=12))
        assert not diff.identical_metrics
        assert not diff.clean


class TestDegradationDemo:
    """An artificial engine slowdown must trip every perf tripwire."""

    @pytest.fixture(scope="class")
    def degraded_pair(self):
        from repro.sim.engine import SimulationEngine

        baseline = _event_driven_run(seed=11)
        original = SimulationEngine._insert

        def slow_insert(self, time, ev):
            sum(i * i for i in range(60_000))   # burn wall, not sim, time
            return original(self, time, ev)

        SimulationEngine._insert = slow_insert
        try:
            degraded = _event_driven_run(seed=11)
        finally:
            SimulationEngine._insert = original
        return baseline, degraded

    def test_simulation_itself_unchanged(self, degraded_pair):
        baseline, degraded = degraded_pair
        diff = diff_runs(baseline, degraded)
        assert diff.identical_metrics
        assert diff.significant == []
        assert degraded.deadline == baseline.deadline

    def test_diff_flags_throughput_regression(self, degraded_pair):
        baseline, degraded = degraded_pair
        diff = diff_runs(baseline, degraded, perf_threshold=0.15)
        regressed = {d.field for d in diff.perf_regressions}
        assert "profile.events_per_s" in regressed
        assert "PERF REGRESSION" in render_diff_table(diff)

    def test_gate_flags_throughput_regression(self, degraded_pair):
        baseline, degraded = degraded_pair
        tracked = {"profile.events_per_s": "higher"}
        base = {"profile.events_per_s":
                baseline.get("profile.events_per_s")}
        cur = {"profile.events_per_s":
               degraded.get("profile.events_per_s")}
        violations = regression_gate(base, cur, tracked, threshold=0.15)
        assert [v.metric for v in violations] == ["profile.events_per_s"]
        assert "fell" in violations[0].describe()
        assert "FAIL" in render_gate_report(base, cur, tracked, violations)

    def test_cli_runs_diff_strict_exits_3(self, degraded_pair, tmp_path,
                                          capsys):
        baseline, degraded = degraded_pair
        ledger = RunLedger(tmp_path)
        for rec in degraded_pair:
            ledger.append(RunRecord.from_dict(rec.to_dict()))
        rc = cli_main(["runs", "diff", "--runs-dir", str(tmp_path),
                       "--strict", "--", "-2", "-1"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "PERF REGRESSION" in out


class TestGateEdges:
    def test_improvement_is_not_a_violation(self):
        assert regression_gate({"m": 100.0}, {"m": 200.0},
                               {"m": "higher"}) == []
        assert regression_gate({"m": 100.0}, {"m": 50.0},
                               {"m": "lower"}) == []

    def test_missing_or_zero_baseline_skipped(self):
        assert regression_gate({}, {"m": 50.0}, {"m": "higher"}) == []
        assert regression_gate({"m": 0.0}, {"m": 50.0},
                               {"m": "lower"}) == []

    def test_lower_direction_catches_growth(self):
        v = regression_gate({"wall": 1.0}, {"wall": 1.5}, {"wall": "lower"})
        assert len(v) == 1 and "grew" in v[0].describe()

    def test_delta_direction_semantics(self):
        assert Delta("x", 100.0, 80.0, "higher").regressed(0.15)
        assert not Delta("x", 100.0, 80.0, "lower").regressed(0.15)
        assert not Delta("x", 100.0, 90.0, "higher").regressed(0.15)


class TestChaosSlos:
    @pytest.fixture(scope="class")
    def slo_reports(self):
        from repro.experiments.exp_chaos import run_cell
        from repro.experiments.registry import cell_records, evaluate_slos

        cells = {policy: run_cell("slow-ebs", resilience=(policy == "on"),
                                  seed=11)
                 for policy in ("on", "off")}
        stats = {"slow-ebs": {
            policy: {"cells": [cell]} for policy, cell in cells.items()}}
        return evaluate_slos("chaos", cell_records("chaos", stats))

    def test_resilience_on_meets_slos(self, slo_reports):
        report = slo_reports["on"]
        assert report.ok
        assert all(r.ok for r in report.results)
        assert "PASS" in render_slo_table(report)

    def test_resilience_off_violates_miss_rate(self, slo_reports):
        report = slo_reports["off"]
        assert not report.ok
        failed = {r.objective.name for r in report.results if not r.ok}
        assert "miss-rate" in failed
        table = render_slo_table(report)
        assert "FAIL" in table and "PAGE" in table

    def test_cli_runs_slo_splits_policies(self, slo_reports, tmp_path,
                                          capsys):
        from repro.experiments.exp_chaos import run_cell
        from repro.experiments.registry import cell_records

        cells = {policy: run_cell("slow-ebs", resilience=(policy == "on"),
                                  seed=11)
                 for policy in ("on", "off")}
        stats = {"slow-ebs": {
            policy: {"cells": [cell]} for policy, cell in cells.items()}}
        ledger = RunLedger(tmp_path)
        for rec in cell_records("chaos", stats):
            ledger.append(rec)
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--strict"])
        out = capsys.readouterr().out
        assert rc == 3                     # the off side violates
        assert "policy=on" in out and "policy=off" in out

        # No spot cells in this ledger: the hint names every campaign.
        from repro.experiments.registry import slo_policy_names

        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--policy", "spot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no matching sweep-cell records" in out
        assert len(slo_policy_names()) >= 4
        for name in slo_policy_names():
            assert f"`repro {name}`" in out, name

    def test_slo_objective_validation(self):
        with pytest.raises(ValueError):
            Objective("bad", "m", "<", 1.0)
        with pytest.raises(ValueError):
            Objective("bad", "m", "<=", 1.0, aggregate="median")
        with pytest.raises(ValueError):
            Objective("bad", "m", "<=", 1.0, aggregate="ratio")  # no num/den

    def test_empty_window_passes_vacuously(self):
        policy = SloPolicy("p", (Objective("o", "x", "<=", 1.0),))
        report = policy.evaluate([])
        assert report.ok and report.n_records == 0


class TestSloPolicyRegistry:
    def test_defaults_registered(self):
        from repro.experiments.registry import (
            get_slo_policy,
            load_defaults,
            slo_policy_names,
        )

        load_defaults()
        assert {"chaos", "dag", "spot", "matrix"} <= set(slo_policy_names())
        entry = get_slo_policy("matrix")
        assert entry.group_key == "config.stack"
        assert entry.group_name == "stack"
        assert entry.label_prefix == "exp_matrix."

    def test_register_is_last_writer_wins(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.registry import (
            get_slo_policy,
            register_slo_policy,
        )
        from repro.obs.slo import Objective, SloPolicy

        # Register into a copy so the test campaign never leaks into
        # help texts or hints built from the registry later on.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        slos = SloPolicy("t", (Objective("o", "x", "<=", 1.0),))
        shape = dict(label_keys=("a",), config_keys=("a",), extra_keys=(),
                     cost_key="cost_usd", cells=list)
        register_slo_policy("_test", slos=slos, group_key="config.a",
                            **shape)
        replaced = register_slo_policy("_test", slos=slos,
                                       group_key="config.b", **shape)
        assert get_slo_policy("_test") is replaced
        assert get_slo_policy("_test").group_key == "config.b"
        assert replaced.group_name == "b"
        assert replaced.label_prefix == "exp__test."

    @staticmethod
    def _dag_like_record(label: str) -> RunRecord:
        return RunRecord(
            kind="sweep-cell", label=label,
            config={"backend": "s3", "shape": "linear", "seed": 11,
                    "mode": "concurrent"},
            billing={"cost_usd": 1.0},
            deadline={"missed": 5, "failed": 0, "bins": 10,
                      "miss_rate": 0.5})

    def test_dag_policy_judges_only_dag_records(self, tmp_path, capsys):
        # A sweep-cell record carrying config.backend but labelled outside
        # exp_dag. belongs to another campaign: `runs slo --policy dag`
        # must not judge it.
        ledger = RunLedger(tmp_path)
        ledger.append(self._dag_like_record("bench.backend-probe.s3"))
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--policy", "dag", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend=" not in out
        assert "no matching sweep-cell records" in out
        # Control: the same record under the campaign's prefix is judged.
        ledger.append(self._dag_like_record("exp_dag.s3.linear"))
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--policy", "dag", "--strict"])
        out = capsys.readouterr().out
        assert rc == 3                      # 50 % of bins missed
        assert out.count("backend=s3") == 1
        assert "== SLO: dag-campaign (1 records) ==" in out

    def test_runs_slo_help_names_every_campaign(self, capsys):
        from repro.experiments.registry import slo_policy_names

        assert cli_main(["runs", "--help"]) == 0
        out = capsys.readouterr().out
        assert "evaluate chaos SLOs" not in out
        for name in slo_policy_names():
            assert name in out, name

    def test_cli_unknown_policy_exits_2(self, tmp_path):
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--policy", "bogus"])
        assert rc == 2


class TestLedgerFixturesRestored:
    def test_module_default_ledger_is_off_after_suite(self):
        from repro.obs.ledger import get_run_ledger

        assert get_run_ledger() is None

    def test_set_run_ledger_returns_previous(self):
        sentinel = RunLedger(None)
        assert set_run_ledger(sentinel) is None
        assert set_run_ledger(None) is sentinel
