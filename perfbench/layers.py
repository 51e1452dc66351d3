"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps the public entry point of each layer of
``repro`` (the table in :data:`LAYERS`) and records one span per layer
crossing: layer name, start, end, parent span and op id.  A call from a
layer into itself (``ProbeCampaign.run_protocol`` calling
``ProbeCampaign.measure``) stays inside the outer span, so a span is the
time between entering a layer and leaving it.  Counts are taken at the
same wrappers.

Modules import entry points by name (``repro.core.campaign`` holds its
own reference to ``reshape``), so a function is replaced in every loaded
``repro`` module and benchmark module that holds it; a method is
replaced on its class.  :meth:`LayerTracer.uninstall` puts every
original back.  The program's code is not modified on disk.

Spans stay in memory until :meth:`LayerTracer.write` dumps them.  A
layer's self time is its spans' time minus the time of their child
spans; the host process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

Hook = Callable[[dict, tuple, dict, Any, BaseException | None], None]

#: ``LayerTracer.op_id`` outside ops: during a traced set-up, and between ops.
SETUP, IDLE = -1, -2


def _inc(name: str, amount: Callable[[tuple, dict, Any], float] | None = None,
         *, on_error: bool = False) -> Hook:
    """A hook adding ``amount(args, kwargs, result)`` (default 1) to ``name``.

    With ``on_error`` the hook counts only calls that raised; otherwise
    only calls that returned.
    """
    def hook(counts, args, kwargs, result, err):
        if (err is not None) != on_error:
            return
        counts[name] += 1 if amount is None else amount(args, kwargs, result)
    return hook


def _both(*hooks: Hook) -> Hook:
    def hook(counts, args, kwargs, result, err):
        for h in hooks:
            h(counts, args, kwargs, result, err)
    return hook


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _packing_items(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "sizes"))


def _packing_used(args, kwargs, result):
    return sum(lay.used for lay in result if lay.capacity is not None)


def _packing_capacity(args, kwargs, result):
    return sum(lay.capacity for lay in result if lay.capacity is not None)


_PACKING = _both(_inc("packing.items", _packing_items),
                 _inc("packing.used_bytes", _packing_used),
                 _inc("packing.capacity_bytes", _packing_capacity))


def _apps_files(args, kwargs, result):
    units = _arg(args, kwargs, 2, "units")
    return sum(len(getattr(u, "members", (u,))) for u in units)


def _report_of(args, result):
    """The ExecutionReport behind any runner entry point's return value."""
    if result is None:                  # ExecutionCore.process(ctx)
        return args[1].report
    return getattr(result, "report", result)


def _runner(counts, args, kwargs, result, err):
    if err is not None:
        return
    report = _report_of(args, result)
    counts["runner.bins"] += len(report.runs) + len(report.failures)
    counts["runner.bins_missed"] += report.n_missed
    counts["runner.bins_failed"] += report.n_failed


#: layer -> [(module, qualified name, hook, count nested calls too)].
#: A qualified name ``Class.method`` wraps the method on that class.
LAYERS: dict[str, list[tuple[str, str, Hook | None, bool]]] = {
    "corpus": [
        ("repro.corpus.datasets", "text_400k_like",
         _inc("corpus.files", lambda a, k, r: len(r)), True),
        ("repro.corpus.datasets", "html_18mil_like",
         _inc("corpus.files", lambda a, k, r: len(r)), True),
    ],
    "packing": [
        ("repro.packing.subset_sum", "subset_sum_layout", _PACKING, True),
        ("repro.packing.subset_sum", "derive_multiples_layout", None, True),
        ("repro.packing.first_fit", "first_fit_layout", _PACKING, True),
        ("repro.packing.first_fit", "pack_into_n_bins_layout", _PACKING, True),
        ("repro.packing.uniform", "uniform_layout",
         _inc("packing.items", _packing_items), True),
    ],
    "reshape": [
        ("repro.core.reshape", "reshape",
         _inc("reshape.units", lambda a, k, r: r.n_units), True),
    ],
    "perfmodel": [
        ("repro.perfmodel.probes", "ProbeCampaign.measure",
         _inc("perfmodel.probe_runs", lambda a, k, r: a[0].repeats), True),
        ("repro.perfmodel.probes", "ProbeCampaign.measure_labeled", None, True),
        ("repro.perfmodel.probes", "ProbeCampaign.run_probe_set", None, True),
        ("repro.perfmodel.probes", "ProbeCampaign.run_protocol", None, True),
        ("repro.perfmodel.probes", "ProbeCampaign.timing_points", None, True),
        ("repro.perfmodel.probes", "build_probe_set", None, True),
        ("repro.perfmodel.regression", "fit_affine", None, True),
        ("repro.perfmodel.sampling", "collect_sample_points", None, True),
        ("repro.perfmodel.sampling", "refit_with_samples", None, True),
        ("repro.perfmodel.selection", "preferred_unit_size", None, True),
    ],
    "apps": [
        ("repro.cloud.service", "ExecutionService.run",
         _both(_inc("apps.units", lambda a, k, r: len(_arg(a, k, 2, "units"))),
               _inc("apps.files", _apps_files)), True),
        ("repro.cloud.service", "ExecutionService.run_column",
         _inc("apps.units", lambda a, k, r: len(r)), True),
    ],
    "planner": [
        ("repro.core.planner", "StaticProvisioner.plan",
         _both(_inc("planner.units", lambda a, k, r: len(_arg(a, k, 1, "units"))),
               _inc("planner.bins", lambda a, k, r: r.n_instances)), False),
        ("repro.core.deadline", "adjustment_factor", None, True),
    ],
    "workflow": [
        ("repro.core.workflow", "derived_catalogue",
         _inc("workflow.files_derived", lambda a, k, r: len(r)), True),
        ("repro.core.workflow", "assign_subdeadlines", None, True),
    ],
    "dag": [
        ("repro.dag.scheduler", "DagScheduler.run",
         _inc("dag.stages", lambda a, k, r: len(r.stages)), True),
        *[("repro.dag.backends", f"{cls}.{m}", _inc("dag.transfers"), True)
          for cls in ("S3Backend", "EbsBackend", "LocalDiskBackend")
          for m in ("put", "get")],
    ],
    "runner": [
        ("repro.runner.execute", "execute_plan", _runner, False),
        ("repro.runner.spot", "execute_plan_spot", _runner, False),
        ("repro.runner.core", "ExecutionCore.run", _runner, False),
        ("repro.runner.core", "ExecutionCore.process", _runner, False),
    ],
    "capacity": [
        *[("repro.capacity.brokers", f"{cls}.request",
           _both(_inc("capacity.requests"),
                 _inc("capacity.requests", on_error=True),
                 _inc("capacity.offers")), False)
          for cls in ("OnDemandBroker", "WarmLeaseBroker", "ResilientBroker",
                      "SpotBroker", "LadderBroker")],
        *[("repro.capacity.brokers", f"{cls}.settle", None, False)
          for cls in ("OnDemandBroker", "WarmLeaseBroker", "ResilientBroker",
                      "SpotBroker", "LadderBroker")],
    ],
    "cloud": [
        ("repro.cloud.cluster", "Cloud.launch_instance",
         _both(_inc("cloud.launches"),
               _inc("cloud.launch_rejects", on_error=True)), True),
        ("repro.cloud.cluster", "Cloud.__init__", None, True),
        ("repro.cloud.cluster", "Cloud.terminate_instance", None, True),
        ("repro.cloud.cluster", "Cloud.wait_until_running", None, True),
        ("repro.cloud.cluster", "Cloud.create_volume", None, True),
        ("repro.cloud.cluster", "Cloud.advance", None, True),
        ("repro.cloud.billing", "BillingLedger.record", None, True),
        ("repro.cloud.bonnie", "acquire_good_instance", None, True),
    ],
    "spot": [
        ("repro.cloud.spot", "SpotMarketBoard.price",
         _inc("spot.price_queries"), True),
        *[("repro.cloud.spot", f"SpotMarketBoard.{m}", None, True)
          for m in ("affordable", "cheapest_zone", "next_crossing",
                    "next_affordable_hour", "bill_segment")],
    ],
    "resilience": [
        ("repro.resilience.spot", "SpotLadder.decide",
         _both(_inc("resilience.decisions"),
               _inc("resilience.escalations",
                    lambda a, k, r: r.rung == "on-demand")), True),
    ],
    "fleet": [
        ("repro.fleet.lease", "LeaseManager.acquire",
         _both(_inc("fleet.acquires"),
               _inc("fleet.warm_acquires", lambda a, k, r: bool(r.warm))), True),
        ("repro.fleet.lease", "LeaseManager.release", None, True),
    ],
    "sim": [
        ("repro.sim.random", "RngStream.fork", _inc("sim.rng_forks"), True),
        ("repro.sim.engine", "SimulationEngine.run", None, True),
        ("repro.sim.engine", "SimulationEngine.step", None, True),
    ],
    "obs": [
        ("repro.obs.ledger", "RunLedger.append",
         _inc("obs.ledger_appends"), True),
    ],
}

#: Ratios reported per layer: name -> (numerator count, denominator count).
RATIOS = {
    "packing.fill_ratio": ("packing.used_bytes", "packing.capacity_bytes"),
    "capacity.offer_ratio": ("capacity.offers", "capacity.requests"),
    "fleet.warm_hit_rate": ("fleet.warm_acquires", "fleet.acquires"),
}

#: Counts reported per op (the rest feed RATIOS only).
COUNTS = (
    "corpus.files", "packing.items", "reshape.units", "perfmodel.probe_runs",
    "apps.units", "apps.files", "planner.units", "planner.bins",
    "workflow.files_derived", "dag.stages", "dag.transfers", "runner.bins",
    "runner.bins_missed", "runner.bins_failed", "capacity.requests",
    "cloud.launches", "cloud.launch_rejects", "spot.price_queries",
    "resilience.decisions", "resilience.escalations", "fleet.acquires",
    "sim.rng_forks", "sim.events", "obs.ledger_appends",
)


class LayerTracer:
    """Install, record and summarise layer spans around ``repro`` calls."""

    def __init__(self, extra_modules: tuple[str, ...] = ()) -> None:
        self.extra_modules = extra_modules
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = IDLE              # the op index while an op runs
        self.setup_wall = 0.0          # seconds of the traced set-up
        self._stack: list[tuple[str, int]] = []
        self._undo: list[Callable[[], None]] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, hook: Hook | None,
              nested: bool) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            if outer:
                parent = stack[-1][1] if stack else -1
                idx = len(spans)
                spans.append(None)
                stack.append((layer, idx))
                t0 = perf()
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                if outer:
                    spans[idx] = (layer, t0, perf(), parent, tracer.op_id)
                    stack.pop()
                if hook is not None and (outer or nested):
                    hook(counts, args, kwargs, result, err)
        traced.__wrapped__ = fn
        return traced

    def _modules(self):
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "repro" or name.startswith("repro.")
                                    or name in self.extra_modules):
                yield mod

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        if self._undo:
            raise RuntimeError("layer tracer already installed")
        for layer, targets in LAYERS.items():
            for module, qualname, hook, nested in targets:
                mod = importlib.import_module(module)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(layer, orig, hook, nested))
                    self._undo.append(lambda c=cls, a=attr, o=orig: setattr(c, a, o))
                    continue
                orig = getattr(mod, qualname)
                new = self._wrap(layer, orig, hook, nested)
                for m in self._modules():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
                            self._undo.append(
                                lambda m=m, k=key, o=orig: setattr(m, k, o))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, int], tuple[float, int]]:
        """(layer, op id) -> (self seconds, spans), from the recorded spans."""
        child = defaultdict(float)
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, int], list] = defaultdict(lambda: [0.0, 0])
        for i, (layer, t0, t1, parent, op_id) in enumerate(self.spans):
            acc = out[layer, op_id]
            acc[0] += (t1 - t0) - child[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Dump every span as one JSON line: layer, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, t0, t1, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op_id}) + "\n")
