"""Campaign registry: experiments register, the sweeps and CLI resolve by name.

The chaos, spot, DAG and matrix sweeps judge the same outcomes per cell —
did its bins meet the deadline, what did the bill cost — so one entry
per campaign turns its cells into ``sweep-cell`` run records
(:func:`cell_records`) and judges its SLOs per side (:func:`evaluate_slos`).
Each module registers its entry at import time, next to the policy it
declares; the sweep's finish step, ``--slo`` and ``repro.cli runs slo
--policy NAME`` all resolve it here, so a new campaign never touches the
CLI.  Record labels are always ``exp_<name>.…`` and ``runs slo`` judges
only its campaign's labels, so campaigns sharing a ledger never judge
each other's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs.ledger import RunRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.slo import SloPolicy, SloReport

__all__ = ["SloPolicyEntry", "register_slo_policy", "get_slo_policy",
           "slo_policy_names", "load_defaults", "cell_records",
           "evaluate_slos"]


@dataclass(frozen=True)
class SloPolicyEntry:
    """One named, CLI-resolvable campaign: its SLOs and record shape."""

    name: str
    slos: "SloPolicy"
    group_key: str
    label_keys: tuple[str, ...]
    config_keys: tuple[str, ...]
    extra_keys: tuple[str, ...]
    cost_key: str
    cells: Callable[[dict], list[dict]]

    @property
    def group_name(self) -> str:
        """How a side is titled: ``"config.stack"`` → ``"stack"``."""
        return self.group_key.rpartition(".")[2]

    @property
    def label_prefix(self) -> str:
        """Every record label of this campaign starts with this."""
        return f"exp_{self.name}."


_REGISTRY: dict[str, SloPolicyEntry] = {}


def register_slo_policy(name: str, **fields: Any) -> SloPolicyEntry:
    """Register (or re-register) campaign ``name``; ``fields`` are the
    other :class:`SloPolicyEntry` fields, all required.

    Re-registration replaces the entry — the common case is a module
    reload, and last-writer-wins keeps that harmless.
    """
    _REGISTRY[name] = entry = SloPolicyEntry(name=name, **fields)
    return entry


def get_slo_policy(name: str) -> SloPolicyEntry:
    """The registered entry for ``name``; raises KeyError when unknown."""
    return _REGISTRY[name]


def slo_policy_names() -> list[str]:
    """Sorted names of every registered SLO policy."""
    return sorted(_REGISTRY)


def load_defaults() -> None:
    """Import the shipped experiment modules so they self-register.

    Idempotent — Python's import cache makes repeat calls free; a module
    that fails to import propagates, since a missing default registration
    is a bug, not a configuration choice.
    """
    import repro.experiments.exp_chaos  # noqa: F401
    import repro.experiments.exp_dag  # noqa: F401
    import repro.experiments.exp_matrix  # noqa: F401
    import repro.experiments.exp_spot  # noqa: F401


def cell_records(name: str, stats: dict) -> list[RunRecord]:
    """A sweep's ``sweep-cell`` records, one side after the other, each
    side in cell order (the SLO ``mean`` aggregates are order-sensitive
    float sums)."""
    entry = get_slo_policy(name)
    sides: dict[str, list[RunRecord]] = {}
    for cell in entry.cells(stats):
        sides.setdefault(cell[entry.group_name], []).append(RunRecord(
            kind="sweep-cell",
            label=entry.label_prefix
            + ".".join(str(cell[k]) for k in entry.label_keys),
            config={k: cell[k] for k in entry.config_keys},
            billing={"cost_usd": cell[entry.cost_key]},
            deadline={k: cell[k]
                      for k in ("missed", "failed", "bins", "miss_rate")},
            extra={k: cell[k] for k in entry.extra_keys},
        ))
    return [record for side in sides.values() for record in side]


def evaluate_slos(name: str,
                  records: Sequence[RunRecord]) -> dict[str, "SloReport"]:
    """Judge campaign ``name``'s SLOs per side (first-appearance order)."""
    entry = get_slo_policy(name)
    sides: dict[str, list[RunRecord]] = {}
    for record in records:
        sides.setdefault(str(record.get(entry.group_key)), []).append(record)
    return {side: entry.slos.evaluate(rs) for side, rs in sides.items()}
