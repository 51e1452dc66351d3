#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` simulator: one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload reshape-grep --seed 1 --seconds 20 --trace 0

One client runs one op at a time, single-threaded, against the program in
``src/`` next to this directory.  Set-up (package import, corpus
generation, any once-per-run model fit) is timed apart from the ops and
repeated; the ops then visit the workload's pool in whole passes for
``--seconds``.  Every op's outputs are checked, and pool entry 0 runs
once more at the end and must reproduce its first outcome exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with :mod:`layers` wrapping each layer's
entry points, prints the per-layer metrics, and writes the spans to
``--spans-out``.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: The tail percentile needs this many samples above it.
TAIL_SAMPLES = 10

#: Smoke runs (the benchmark's own tests): inputs this much smaller, a
#: pool of 12 and one set-up.
SMOKE_SIZE, SMOKE_POOL = 0.05, 12

#: Seconds :func:`host_probe` takes on the reference host.
PROBE_REF_S = 0.010


def host_probe() -> float:
    """Time a fixed pure-Python job: the host's speed right now.

    The host is shared, and its speed moves by tens of percent within
    seconds.  The probe is interpreter work of the kind the simulator is
    made of (dict updates, tuple allocation, a keyed sort).  It runs
    between ops, outside their timing, and each op's time is scaled by
    ``PROBE_REF_S`` over the mean of the probes just before and just
    after it: seconds on a host where the probe takes 10 ms.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i
    rows = [(i, i * 1.5) for i in range(20000)]
    rows.sort(key=lambda r: -r[1])
    return time.perf_counter() - t0


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Reference-host seconds of each timed step bracketed by two probes."""
    return [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", type=Path, default=None,
                   help="span dump of the traced run (default "
                        ".perfbench-out/<workload>-<seed>.spans.jsonl)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and pool, for the benchmark's own tests")
    return p.parse_args(argv)


def load_program() -> float:
    """Import the package from ``src/`` and the workloads; returns seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; "
                         "run from a checkout that holds src/")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro
    import workloads  # noqa: F401  (imports every layer the ops use)
    elapsed = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return elapsed


@dataclass
class Phase:
    """What one loop over the pool measured."""

    times: list[float] = field(default_factory=list)   # every attempted op
    probes: list[float] = field(default_factory=list)  # around every op
    files: int = 0                                     # files in passed ops
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: pool entry -> (bins, missed, cost) of its passed visits
    facts: dict[int, tuple[int, int, float]] = field(default_factory=dict)

    @property
    def ref_times(self) -> list[float]:
        return scaled(self.times, self.probes)


def run_op(wl, k: int, ph: Phase, digests: dict[int, str], ledger_dir: Path,
           tracer=None) -> None:
    """Time pool entry ``k`` once, check it, and record it in ``ph``.

    The op writes its run records to a fresh file-backed ledger in
    ``ledger_dir``, as one CLI invocation would.
    """
    from checks import CheckFailed
    from layers import IDLE
    from repro.obs.ledger import RunLedger, set_run_ledger

    set_run_ledger(RunLedger(ledger_dir / f"op{len(ph.times)}"))
    op = wl.prepare(k)
    gc.collect()
    if tracer is not None:
        tracer.op_id = len(ph.times)
    t0 = time.perf_counter()
    try:
        out = op()
    except Exception:               # a raising op is a failed op
        ph.times.append(time.perf_counter() - t0)
        ph.failed += 1
        ph.errors.append(f"op {k} raised:\n{traceback.format_exc()}")
        return
    finally:
        if tracer is not None:
            tracer.op_id = IDLE
    ph.times.append(time.perf_counter() - t0)
    try:
        wl.check(out)
        digest = out.digest()
        if digests.setdefault(k, digest) != digest:
            raise CheckFailed(f"pool entry {k} is not deterministic: "
                              f"{digest} after {digests[k]}")
    except CheckFailed as exc:
        ph.failed += 1
        ph.errors.append(f"op {k} failed its check: {exc}")
        return
    ph.files += out.files
    ph.facts[k] = (out.bins, out.missed, out.cost)
    if tracer is not None:
        tracer.counts["sim.events"] += sum(c.engine.events_fired for c in out.clouds)


def run_phase(wl, pool: int, seconds: float, digests: dict[int, str],
              ledger_dir: Path, tracer=None) -> Phase:
    """Whole passes over the pool: one, then more while a pass still fits.

    Whole passes keep every pool entry at the same weight in the samples.
    """
    ph = Phase(probes=[host_probe()])
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for k in range(pool):
            run_op(wl, k, ph, digests, ledger_dir, tracer)
            ph.probes.append(host_probe())
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return ph


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ≥10 samples above."""
    n = len(times)
    return sorted(times)[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


UNITS = {
    "files_per_s": "files/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "sim_cost_usd": "USD", "sim_met_ratio": "ratio",
    "ok_op_ratio": "ratio",
}


def end_to_end(ph: Phase, attempted: int, failed: int,
               setup_s: float) -> dict[str, float]:
    """The user-facing metrics of the timed phase, in reference seconds."""
    facts = [ph.facts[k] for k in sorted(ph.facts)]
    bins = sum(f[0] for f in facts)
    missed = sum(f[1] for f in facts)
    ref = ph.ref_times
    return {
        "files_per_s": ph.files / sum(ref),
        "op_p50_s": statistics.median(ref),
        "op_tail_s": tail(ref)[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cost_usd": sum(f[2] for f in facts) / max(1, len(facts)),
        "sim_met_ratio": (bins - missed) / max(1, bins),
        "ok_op_ratio": 1.0 - failed / attempted,
    }


def per_layer(tracer, traced: Phase, untraced: Phase, setup_scale: float,
              setup_counts: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer self time, calls and share, plus counts and ratios.

    Op-side figures are per op of the traced phase; each span's self time
    is scaled to reference seconds by its op's host-speed factor.
    ``corpus`` runs only in set-up, so its figures are per traced set-up
    and its share is of set-up time.
    """
    from layers import COUNTS, LAYERS, RATIOS, SETUP

    ref = traced.ref_times
    factor = {i: r / t for i, (r, t) in enumerate(zip(ref, traced.times))}
    factor[SETUP] = setup_scale
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (layer, op_id), (secs, n) in tracer.self_times().items():
        if (op_id == SETUP) if layer == "corpus" else (op_id >= 0):
            self_s[layer] += secs * factor[op_id]
            calls[layer] += n
    n_ops, op_wall, setup_wall = len(ref), sum(ref), tracer.setup_wall * setup_scale
    out: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for layer in LAYERS:
        if layer == "corpus":
            per, share = 1, self_s[layer] / setup_wall
        else:
            per, share = n_ops, self_s[layer] / op_wall
            covered += share
        out[f"{layer}.self_s"] = (self_s[layer] / per, "s")
        out[f"{layer}.calls"] = (calls[layer] / per, "count")
        out[f"{layer}.share"] = (share, "ratio")
    for name in COUNTS:
        out[name] = ((setup_counts.get(name, 0.0) if name == "corpus.files"
                      else tracer.counts[name] / n_ops), "count")
    for name, (num, den) in RATIOS.items():
        d = tracer.counts[den]
        out[name] = (tracer.counts[num] / d if d else 0.0, "ratio")
    out["other.share"] = (1.0 - covered, "ratio")
    out["trace.overhead"] = (statistics.median(ref)
                             / statistics.median(untraced.ref_times) - 1.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_s = load_program()
    from repro.obs.ledger import set_run_ledger

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size, pool, repeats = ((SMOKE_SIZE, SMOKE_POOL, 1) if args.smoke
                           else (1.0, None, SETUP_REPEATS))
    wl = workloads.WORKLOADS[args.workload]()
    pool = pool or wl.pool
    tracer = layers.LayerTracer(extra_modules=("workloads",)) if args.trace else None

    # Run ledgers live under a scratch directory removed at exit, never
    # in the working tree's .repro/runs.
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        host_probe()                # the first call pays for warming up
        setup_times, setup_probes = [], [host_probe()]
        for r in range(repeats):
            traced_setup = tracer is not None and r == repeats - 1
            if traced_setup:
                tracer.op_id = layers.SETUP
                tracer.install()
            t0 = time.perf_counter()
            wl.setup(args.seed, size=size)
            setup_times.append(time.perf_counter() - t0)
            if traced_setup:
                tracer.uninstall()
                tracer.op_id = layers.IDLE
                tracer.setup_wall = setup_times[-1]
                setup_counts = dict(tracer.counts)
                tracer.counts.clear()
            setup_probes.append(host_probe())
        ref_setups = scaled(setup_times, setup_probes)
        setup_s = (import_s * PROBE_REF_S / setup_probes[0]
                   + statistics.median(ref_setups))
        # Set-up's objects live for the whole run: keep them out of the
        # cyclic collector, so an op's collections scan the op's objects.
        gc.collect()
        gc.freeze()

        digests: dict[int, str] = {}
        if tracer is None:
            phases = [run_phase(wl, pool, args.seconds, digests, scratch / "timed")]
        else:
            untraced = run_phase(wl, pool, args.seconds / 2, digests,
                                 scratch / "untraced")
            with tracer:
                traced = run_phase(wl, pool, args.seconds / 2, digests,
                                   scratch / "traced", tracer)
            phases = [untraced, traced]
        # The same op twice in one run: reports, bills and clocks must agree.
        rerun = Phase()
        run_op(wl, 0, rerun, digests, scratch / "rerun")
    finally:
        set_run_ledger(None)
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(ph.times) for ph in phases + [rerun])
    failed = sum(ph.failed for ph in phases + [rerun])
    for ph in phases + [rerun]:
        for err in ph.errors[:3]:
            print(f"perfbench: {err}", file=sys.stderr)

    print(f"digest {args.workload} seed={args.seed} pool={pool}: "
          f"{workloads.pool_digest(digests, pool)}")
    if tracer is None:
        ph = phases[0]
        values = end_to_end(ph, attempted, failed, setup_s)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}
        n = len(ph.times)
        print(f"op_tail_s is p{tail(ph.times)[1]:.1f} of {n} ops; sim facts over "
              f"{len(ph.facts)}/{pool} pool entries; host probe median "
              f"{statistics.median(ph.probes) * 1e3:.2f} ms (reference "
              f"{PROBE_REF_S * 1e3:.0f} ms); as measured: op_p50 "
              f"{statistics.median(ph.times):.6g} s, ops {sum(ph.times):.6g} s, "
              f"import {import_s:.6g} s, set-up {statistics.median(setup_times):.6g} s")
    else:
        metrics = per_layer(tracer, phases[1], phases[0],
                            ref_setups[-1] / setup_times[-1], setup_counts)
        spans_out = args.spans_out or (
            ROOT / ".perfbench-out" / f"{args.workload}-{args.seed}.spans.jsonl")
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_out)
        print(f"spans: {len(tracer.spans)} written to {spans_out}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")

    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    result = {
        "correct": failed == 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
