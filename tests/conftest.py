"""Session-wide test fixtures."""

import pytest

from repro.obs import ledger


@pytest.fixture(autouse=True)
def _hermetic_run_ledger(tmp_path, monkeypatch):
    """Point the default run-ledger directory at the test's ``tmp_path``.

    Run-producing CLI subcommands append to ``ledger.DEFAULT_ROOT`` unless
    given ``--runs-dir``; without this a test run would grow the working
    tree's ``.repro/runs/ledger.jsonl``.
    """
    monkeypatch.setattr(ledger, "DEFAULT_ROOT", str(tmp_path / "runs"))
