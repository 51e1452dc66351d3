"""Command-line interface: regenerate figures, inspect data, trace demos.

Usage::

    python -m repro.cli figures --ids F4 F7        # regenerate figures
    python -m repro.cli figures --all
    python -m repro.cli datasets                   # Fig. 1 summaries
    python -m repro.cli quickstart                 # the end-to-end demo
    python -m repro.cli chaos --scenario az-blackout --policy both
                                                   # fault-injection sweep
    python -m repro.cli spot --regime eviction-storm --policy both
                                                   # spot-market sweep
    python -m repro.cli sweep --seeds 6 --processes 4
                                                   # same grid, all cores
    python -m repro.cli dag --backend s3 ebs --slo
                                                   # DAG backend comparison
    python -m repro.cli matrix --stack spot spot-lease --slo
                                                   # broker-stack matrix
    python -m repro.cli trace quickstart --out trace.json
                                                   # traced demo run
    python -m repro.cli runs list                  # the persistent run ledger
    python -m repro.cli runs diff -2 -1            # compare the last two runs
    python -m repro.cli runs slo                   # chaos SLO verdicts

Any subcommand accepts ``--metrics`` to print the metrics table the run
accumulated; ``trace`` additionally records spans and writes a Chrome
``trace_event`` file loadable in ``chrome://tracing`` / Perfetto.

Every run-producing subcommand appends flight-recorder records to the
JSONL ledger under ``.repro/runs/`` (``--runs-dir`` to relocate,
``--no-ledger`` to disable); the ``runs`` subcommands query that history.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable

from repro.experiments.registry import (
    cell_records,
    evaluate_slos,
    get_slo_policy,
    load_defaults,
    slo_policy_names,
)
from repro.experiments.sweep import DEFAULT_SEEDS
from repro.obs import configure, disable, get_logger, install
from repro.obs import ledger as obs_ledger
from repro.obs.export import render_metrics_table, write_chrome_trace, write_jsonl
from repro.obs.ledger import RunLedger, set_run_ledger
from repro.report.figures import FigureResult, render_ascii

__all__ = ["main", "FIGURES", "DEMOS"]

_log = get_logger("cli")

#: Demo name → script under ``examples/`` (the ``trace`` subcommand's menu).
DEMOS: dict[str, str] = {
    "quickstart": "quickstart.py",
    "spot_market": "spot_market.py",
    "spot_fallback": "spot_fallback.py",
    "fault_tolerance": "fault_tolerance.py",
    "text_workflow": "text_workflow.py",
    "dynamic_rescheduling": "dynamic_rescheduling.py",
    "fleet_learning": "fleet_learning.py",
    "fleet_sharing": "fleet_sharing.py",
    "news_grep_campaign": "news_grep_campaign.py",
    "pos_deadline_scheduling": "pos_deadline_scheduling.py",
    "dag_pipeline": "dag_pipeline.py",
}


def _fig1a() -> FigureResult:
    from repro.experiments.exp_fig1 import fig1a

    return fig1a()[0]


def _fig1b() -> FigureResult:
    from repro.experiments.exp_fig1 import fig1b

    return fig1b()[0]


def _fig2() -> FigureResult:
    from repro.experiments.exp_fig2 import fig2

    return fig2()[0]


def _fig3() -> FigureResult:
    from repro.experiments.exp_grep import fig3

    return fig3()[0]


def _grep_figure(which: str) -> FigureResult:
    from repro.experiments import exp_grep

    tb = exp_grep.make_testbed()
    return getattr(exp_grep, which)(tb)[0]


def _pos_figure(which: str) -> FigureResult:
    from repro.experiments import exp_pos

    tb = exp_pos.make_testbed()
    return getattr(exp_pos, which)(tb)[0]


def _novels() -> FigureResult:
    from repro.experiments.exp_pos import novels

    return novels()[0]


def _side(which: str) -> FigureResult:
    from repro.experiments import exp_side

    return getattr(exp_side, which)()[0]


FIGURES: dict[str, Callable[[], FigureResult]] = {
    "F1a": _fig1a,
    "F1b": _fig1b,
    "F2": _fig2,
    "F3": _fig3,
    "F4": lambda: _grep_figure("fig4"),
    "F5": lambda: _grep_figure("fig5"),
    "F6": lambda: _grep_figure("fig6"),
    "F7": lambda: _pos_figure("fig7"),
    "F8": lambda: _pos_figure("fig8"),
    "F9": lambda: _pos_figure("fig9"),
    "X1": _novels,
    "X2": lambda: _side("instance_switching"),
    "X3": lambda: _side("probe_protocol_trace"),
    "X4": lambda: _side("output_retrieval"),
    "X5": lambda: _side("spot_tradeoff"),
    "X6": lambda: _side("prediction_approaches"),
    "X7": lambda: _side("sampling_vitality"),
}


def _examples_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "examples"


def _run_demo(demo: str) -> None:
    import runpy

    runpy.run_path(str(_examples_dir() / DEMOS[demo]), run_name="__main__")


def _maybe_print_metrics(args: argparse.Namespace, obs) -> None:
    if getattr(args, "metrics", False) and obs is not None:
        print()
        print(render_metrics_table(obs.metrics))


def cmd_figures(args: argparse.Namespace) -> int:
    """``figures`` subcommand: render the requested figures."""
    ids = list(FIGURES) if args.all else args.ids
    if not ids:
        _log.error("no figure ids given (use --ids F4 F7 … or --all)")
        return 2
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        _log.error("unknown figure id(s): %s; known: %s",
                   unknown, sorted(FIGURES))
        return 2
    for fid in ids:
        print(render_ascii(FIGURES[fid]()))
        print()
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    """``datasets`` subcommand: print Fig. 1 summaries."""
    from repro.corpus import html_18mil_like, text_400k_like

    for cat in (html_18mil_like(scale=1e-3), text_400k_like(scale=1e-2)):
        d = cat.describe()
        print(f"{d['name']:>12}: {d['files']} files, total {d['total']:,} B, "
              f"mean {d['mean']:.0f} B, median {d['median']:.0f} B, "
              f"p90 {d['p90']:.0f} B, max {d['max']:,} B")
    return 0


def cmd_quickstart(_args: argparse.Namespace) -> int:
    """``quickstart`` subcommand: run the quickstart example."""
    _run_demo("quickstart")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet`` subcommand: N concurrent campaigns on one shared fleet."""
    from repro.experiments.exp_fleet import run_shared_fleet, shared_vs_isolated
    from repro.report import render_trace_gantt

    obs = configure()   # fleet spans feed the per-tenant gantt
    try:
        if args.compare:
            fig, stats = shared_vs_isolated(
                args.campaigns, max_instances=args.max_instances)
            print(render_ascii(fig))
            cloud = None
        else:
            cloud, report = run_shared_fleet(
                args.campaigns, max_instances=args.max_instances)
            s = report.summary()
            print(f"{s['campaigns']} campaigns "
                  f"({s['admitted']} admitted, {s['deferred']} deferred, "
                  f"{s['rejected']} rejected): {s['bins']} bins on "
                  f"{s['instances']} instances, {s['instance_hours']} "
                  f"instance-hours, ${s['cost_usd']:.4f}, warm hit rate "
                  f"{s['warm_hit_rate']:.2f}")
            print()
            print(report.render_attribution())
            print()
            print(render_trace_gantt(obs.tracer, category="fleet",
                                     group_by="tenant"))
    finally:
        disable()
    _maybe_print_metrics(args, obs)
    return 0


#: ``--policy`` choice → the sweep's ``policies`` tuple (resilience on/off).
_SIDES = {"on": (True,), "off": (False,), "both": (True, False)}


def _sweep_axes(args: argparse.Namespace, *axes: tuple) -> list | None:
    """Resolve a sweep command's axes; check them, ``--seeds``, ``--processes``.

    Each ``(noun, dest, known)`` axis takes its flag's names, else (or with
    ``--all``) every known one.  Returns the name lists, or None after
    logging one error line.
    """
    chosen = []
    for _, dest, known in axes:
        given = getattr(args, dest)
        chosen.append(given if given and not getattr(args, "all", False)
                      else list(known))
    unknown = [v for names, (_, _, known) in zip(chosen, axes)
               for v in names if v not in known]
    if unknown and len(axes) == 1:
        _log.error("unknown %s(s): %s; shipped: %s", axes[0][0],
                   ", ".join(unknown), ", ".join(sorted(axes[0][2])))
    elif unknown:
        _log.error("unknown %s(s): %s; %s",
                   "/".join(noun for noun, _, _ in axes), ", ".join(unknown),
                   ", ".join(f"{noun}s: {', '.join(known)}"
                             for noun, _, known in axes))
    elif args.seeds < 1:
        _log.error("--seeds must be at least 1")
    elif getattr(args, "processes", None) is not None and args.processes < 1:
        _log.error("--processes must be at least 1")
    else:
        return chosen
    return None


def _seed_list(n: int) -> tuple[int, ...]:
    """The first ``n`` campaign seeds: the defaults, then +100 per wrap."""
    k = len(DEFAULT_SEEDS)
    return tuple(DEFAULT_SEEDS[i % k] + 100 * (i // k) for i in range(n))


def _print_slo_tables(name: str, reports: dict) -> bool:
    """Print one SLO table per side, sorted; True when every side passes."""
    from repro.obs.slo import render_slo_table

    for side, report in sorted(reports.items()):
        print(f"{get_slo_policy(name).group_name}={side}")
        print(render_slo_table(report))
        print()
    return all(report.ok for report in reports.values())


def _print_sweep(args: argparse.Namespace, name: str, fig: FigureResult,
                 stats: dict, lines: list[str]) -> int:
    """A sweep command's output: figure, summary lines, ``--slo`` tables."""
    print(render_ascii(fig))
    print()
    for line in lines:
        print(line)
    if getattr(args, "slo", False):
        print()
        _print_slo_tables(name, evaluate_slos(name, cell_records(name, stats)))
    return 0


def _side_lines(per_name: dict, names: list, *, od: bool = False) -> list[str]:
    """One line per name: each policy side's miss rate and mean cost."""
    lines = []
    for name in names:
        row = per_name[name]
        lines.append(f"{name:>16}  " + " ".join(
            f"{p}: miss {row[p]['miss_rate']:.3f} "
            f"(${row[p]['mean_cost_usd']:.3f}"
            + (f", {row[p]['mean_cost_ratio']:.2f}x od)" if od else ")")
            for p in ("on", "off") if p in row))
    return lines


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``/``sweep`` subcommands: fault scenarios × resilience on/off;
    ``sweep`` fans the grid over processes and can dump merged metrics."""
    from repro.chaos import SCENARIOS
    from repro.experiments.exp_chaos import chaos_sweep
    from repro.obs import get_obs
    from repro.obs.ledger import encode_metrics_dump

    axes = _sweep_axes(args, ("scenario", "scenarios", SCENARIOS))
    if axes is None:
        return 2
    (names,) = axes
    policies, seeds = _SIDES[args.policy], _seed_list(args.seeds)
    fig, stats = chaos_sweep(names, seeds=seeds, policies=policies,
                             processes=getattr(args, "processes", 1))
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        payload = {"schema_version": 1,
                   "metrics": encode_metrics_dump(get_obs().metrics.dump())}
        Path(metrics_out).write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        _log.info("wrote merged sweep metrics to %s", metrics_out)
    lines = _side_lines(stats, names)
    if args.command == "sweep":
        lines.insert(0, f"{len(names) * len(policies) * len(seeds)} cells "
                        f"({len(names)} scenarios x {len(policies)} policies "
                        f"x {len(seeds)} seeds)")
    return _print_sweep(args, "chaos", fig, stats, lines)


def cmd_spot(args: argparse.Namespace) -> int:
    """``spot`` subcommand: spot-provisioning sweep, fallback ladder on/off."""
    from repro.chaos import SPOT_REGIMES
    from repro.experiments.exp_spot import BIDS, SLACKS, spot_sweep

    axes = _sweep_axes(args, ("regime", "regimes", SPOT_REGIMES))
    if axes is None:
        return 2
    bids = tuple(args.bids) if args.bids else BIDS
    slacks = tuple(args.slacks) if args.slacks else SLACKS
    if any(b <= 0 for b in bids) or any(s <= 0 for s in slacks):
        _log.error("--bids and --slacks must be positive")
        return 2
    (names,) = axes
    fig, stats = spot_sweep(names, seeds=_seed_list(args.seeds),
                            policies=_SIDES[args.policy], bids=bids,
                            slacks=slacks, processes=args.processes)
    return _print_sweep(args, "spot", fig, stats,
                        _side_lines(stats["regimes"], names, od=True))


def cmd_dag(args: argparse.Namespace) -> int:
    """``dag`` subcommand: backend-comparison sweep over workflow DAGs."""
    from repro.experiments.exp_dag import BACKENDS, SHAPES, dag_sweep

    axes = _sweep_axes(args, ("backend", "backends", BACKENDS),
                       ("shape", "shapes", SHAPES))
    if axes is None:
        return 2
    backends, shapes = axes
    fig, stats = dag_sweep(backends, shapes, seeds=_seed_list(args.seeds),
                           processes=args.processes)
    agg, speedup = stats["agg"], stats["speedup"]
    return _print_sweep(args, "dag", fig, stats, [
        f"{backend:>6}  " + " ".join(
            f"{shape}: {agg[backend][shape]['mean_makespan_s']:.0f}s "
            f"(${agg[backend][shape]['mean_total_usd']:.3f})"
            for shape in shapes)
        + (f"  speedup x{speedup[backend]:.2f}" if backend in speedup else "")
        for backend in backends])


def cmd_matrix(args: argparse.Namespace) -> int:
    """``matrix`` subcommand: broker stack × shape × regime DAG sweep."""
    from repro.experiments.exp_matrix import (
        REGIMES,
        SHAPES,
        STACKS,
        matrix_sweep,
    )

    axes = _sweep_axes(args, ("stack", "stacks", STACKS),
                       ("shape", "shapes", SHAPES),
                       ("regime", "regimes", REGIMES))
    if axes is None:
        return 2
    stacks, shapes, regimes = axes
    fig, stats = matrix_sweep(stacks, shapes=shapes, regimes=regimes,
                              seeds=_seed_list(args.seeds),
                              processes=args.processes)
    return _print_sweep(args, "matrix", fig, stats, [
        f"{stack:>10}  miss {agg['miss_rate']:.3f}  "
        f"cost x{agg['mean_cost_ratio']:.3f} of on-demand "
        f"(${agg['mean_cost_usd']:.3f}/run)"
        for stack, agg in stats["stacks"].items()])


def _ledger_for(args: argparse.Namespace) -> RunLedger:
    return RunLedger(args.runs_dir)


def cmd_runs_list(args: argparse.Namespace) -> int:
    """``runs list``: one line per ledger record, oldest first."""
    ledger = _ledger_for(args)
    records = ledger.records(kind=args.kind or None, label=args.label or None)
    if not records:
        print(f"(no run records under {ledger.root})")
        return 0
    rows = [("run_id", "kind", "label", "created", "bins", "missed",
             "cost_usd", "wall_s")]
    for r in records:
        rows.append((
            r.run_id, r.kind, r.label, r.created_at,
            str(r.get("deadline.bins", "-")),
            str(r.get("deadline.missed", "-")),
            f"{r.get('billing.cost_usd'):.4f}"
            if r.get("billing.cost_usd") is not None else "-",
            f"{r.get('profile.wall_s'):.3f}"
            if r.get("profile.wall_s") is not None else "-",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(f"{len(records)} records in {ledger.path}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """``runs show REF``: dump one record as pretty JSON."""
    record = _ledger_for(args).resolve(args.ref)
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """``runs diff A B``: structured comparison of two ledger records."""
    from repro.obs.diff import diff_runs, render_diff_table

    ledger = _ledger_for(args)
    a = ledger.resolve(args.a)
    b = ledger.resolve(args.b)
    diff = diff_runs(a, b, threshold=args.threshold,
                     perf_threshold=args.perf_threshold)
    print(render_diff_table(diff))
    if args.strict and (not diff.clean or diff.perf_regressions):
        return 3
    return 0


def cmd_runs_slo(args: argparse.Namespace) -> int:
    """``runs slo``: evaluate campaign SLOs over recorded sweep cells.

    ``--policy`` names a registered campaign — experiments register
    theirs in :mod:`repro.experiments.registry`, so new campaigns become
    judgeable here without touching the CLI.  An unknown name exits 2
    and lists what is registered.
    """
    try:
        entry = get_slo_policy(args.policy)
    except KeyError:
        _log.error("unknown SLO policy %r; registered: %s", args.policy,
                   ", ".join(slo_policy_names()))
        return 2
    ledger = _ledger_for(args)
    records = [r for r in ledger.records(kind="sweep-cell",
                                         label=args.label or None)
               if r.get(entry.group_key) is not None
               and (args.label or r.label.startswith(entry.label_prefix))]
    if not records:
        cmds = [f"`repro {name}`" for name in slo_policy_names()]
        print(f"(no matching sweep-cell records under {ledger.root}; "
              f"run {', '.join(cmds[:-1])} or {cmds[-1]} first)")
        return 0
    ok = _print_slo_tables(args.policy, evaluate_slos(args.policy, records))
    return 3 if args.strict and not ok else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace`` subcommand: run a demo with observability on, export it."""
    if args.demo not in DEMOS:
        _log.error("unknown demo %r; known: %s", args.demo, sorted(DEMOS))
        return 2
    obs = configure()
    try:
        _run_demo(args.demo)
    finally:
        disable()
    tracer = obs.tracer
    if args.out:
        write_chrome_trace(tracer, args.out)
        _log.info("wrote Chrome trace (%d spans, %d instants, cats: %s) to %s",
                  tracer.span_count, len(tracer.instants),
                  ",".join(tracer.categories()), args.out)
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)
        _log.info("wrote JSONL event log to %s", args.jsonl)
    if args.gantt:
        from repro.report import render_trace_gantt

        print()
        print(render_trace_gantt(tracer, category=args.gantt_category))
    print()
    print(render_metrics_table(obs.metrics, title=f"metrics: {args.demo}"))
    return 0


#: ``--processes`` of the campaign commands: inline unless told otherwise.
_INLINE = (1, "worker processes for the sweep grid (default: 1 = inline)")


def _sweep_parser(sub, name: str, fn: Callable, help: str, *axes: tuple,
                  sides: tuple[str, str] | None = None, options: tuple = (),
                  processes: tuple | None = None, slo: bool = False
                  ) -> argparse.ArgumentParser:
    """One sweep subcommand: ``axes`` are ``(flag, dest, metavar, help)``,
    ``sides`` ``(noun, help)`` adds ``--all``/``--policy``, ``options``
    are ``(flag, metavar, help)`` float lists, ``processes`` is the
    ``(default, help)`` of ``--processes``."""
    p = sub.add_parser(name, help=help)
    for flag, dest, metavar, text in axes:
        p.add_argument(flag, dest=dest, nargs="*", default=[],
                       metavar=metavar, help=text)
    if sides is not None:
        p.add_argument("--all", action="store_true",
                       help=f"sweep every shipped {sides[0]}")
        p.add_argument("--policy", choices=tuple(_SIDES), default="both",
                       help=f"{sides[1]} side(s) to run (default: both)")
    p.add_argument("--seeds", type=int, default=3, metavar="N",
                   help="number of campaign seeds to aggregate (default: 3)")
    for flag, metavar, text in options:
        p.add_argument(flag, type=float, nargs="*", metavar=metavar,
                       default=None, help=text)
    if processes is not None:
        p.add_argument("--processes", type=int, default=processes[0],
                       metavar="P", help=processes[1])
    if slo:
        p.add_argument("--slo", action="store_true", help="print the per-"
                       f"{get_slo_policy(name).group_name} SLO tables")
    p.set_defaults(fn=fn)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    install()
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's figures and demos.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="<command>")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("--ids", nargs="*", default=[], metavar="ID",
                       help=f"figure ids ({', '.join(FIGURES)})")
    p_fig.add_argument("--all", action="store_true", help="all figures")
    p_fig.set_defaults(fn=cmd_figures)

    p_ds = sub.add_parser("datasets", help="summarise the synthetic data sets")
    p_ds.set_defaults(fn=cmd_datasets)

    p_qs = sub.add_parser("quickstart", help="run the quickstart example")
    p_qs.set_defaults(fn=cmd_quickstart)

    p_fl = sub.add_parser(
        "fleet", help="run concurrent campaigns on one shared fleet")
    p_fl.add_argument("--campaigns", type=int, default=8, metavar="N",
                      help="number of concurrent campaigns (default: 8)")
    p_fl.add_argument("--max-instances", type=int, default=8, metavar="M",
                      help="fleet instance cap (default: 8)")
    p_fl.add_argument("--compare", action="store_true",
                      help="also run the isolated baselines and print the "
                           "shared-vs-isolated figure")
    p_fl.set_defaults(fn=cmd_fleet)

    load_defaults()   # campaign SLO policies feed the sweep/SLO help
    scenario = ("--scenario", "scenarios", "NAME",
                "scenario names (default: all shipped scenarios)")
    shape = ("--shape", "shapes", "SHAPE",
             "DAG shapes to sweep: linear, fanout (default: both)")
    p_ch = _sweep_parser(
        sub, "chaos", cmd_chaos,
        "sweep fault scenarios with resilience on/off", scenario,
        sides=("scenario", "resilience policy"))
    p_sp = _sweep_parser(
        sub, "spot", cmd_spot,
        "sweep spot interruption regimes with the fallback ladder on/off",
        ("--regime", "regimes", "NAME",
         "regime names (default: all shipped regimes)"),
        sides=("regime", "fallback-ladder"), options=(
            ("--bids", "B", "reference-terms bid levels to sweep "
                            "(default: 0.02 0.06 0.085)"),
            ("--slacks", "S", "deadline-slack multipliers to sweep "
                              "(default: 0.85 1.0 1.25)")),
        processes=_INLINE, slo=True)
    p_sw = _sweep_parser(
        sub, "sweep", cmd_chaos, "fan the chaos grid over worker processes",
        scenario, sides=("scenario", "resilience policy"), processes=(
            None, "worker processes (default: all cores; 1 = inline)"))
    p_sw.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the merged sweep metrics dump as JSON")
    p_dag = _sweep_parser(
        sub, "dag", cmd_dag,
        "sweep workflow DAGs over data-sharing backends",
        ("--backend", "backends", "NAME",
         "backends to sweep: local, s3, ebs (default: all three)"),
        shape, processes=_INLINE, slo=True)
    p_mx = _sweep_parser(
        sub, "matrix", cmd_matrix,
        "sweep workflow DAGs over capacity broker stacks",
        ("--stack", "stacks", "NAME",
         "broker stacks to sweep: fleet, spot, spot-lease "
         "(default: all three)"),
        shape,
        ("--regime", "regimes", "REGIME",
         "spot interruption regimes: calm, choppy, eviction-storm "
         "(default: all three)"),
        processes=_INLINE, slo=True)

    p_runs = sub.add_parser(
        "runs", help="query the persistent flight-recorder ledger")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    p_rl = runs_sub.add_parser("list", help="list recorded runs")
    p_rl.add_argument("--kind", default=None, metavar="KIND",
                      help="only records of this kind (runner, columnar, "
                           "dag, experiment, sweep-cell)")
    p_rl.add_argument("--label", default=None, metavar="LABEL",
                      help="only records with this label")
    p_rl.set_defaults(fn=cmd_runs_list)

    p_rs = runs_sub.add_parser("show", help="dump one record as JSON")
    p_rs.add_argument("ref", metavar="REF",
                      help="run id, or a negative index (-1 = latest)")
    p_rs.set_defaults(fn=cmd_runs_show)

    p_rd = runs_sub.add_parser("diff", help="compare two recorded runs")
    p_rd.add_argument("a", metavar="A",
                      help="baseline run id or negative index")
    p_rd.add_argument("b", metavar="B",
                      help="candidate run id or negative index")
    p_rd.add_argument("--threshold", type=float, default=0.05, metavar="T",
                      help="relative threshold for deterministic deltas "
                           "(default: 0.05)")
    p_rd.add_argument("--perf-threshold", type=float, default=0.15,
                      metavar="T",
                      help="relative threshold for wall-clock deltas "
                           "(default: 0.15)")
    p_rd.add_argument("--strict", action="store_true",
                      help="exit 3 when the diff is dirty or a perf "
                           "regression exceeds the threshold")
    p_rd.set_defaults(fn=cmd_runs_diff)

    campaigns = ", ".join(slo_policy_names())
    p_rslo = runs_sub.add_parser(
        "slo", help=f"evaluate campaign SLOs ({campaigns}) over recorded "
                    "sweep cells")
    p_rslo.add_argument("--label", default=None, metavar="LABEL",
                        help="only records with this label")
    p_rslo.add_argument("--policy", default="chaos", metavar="NAME",
                        help="registered SLO policy to evaluate (default: "
                             f"chaos; one of {campaigns} — an unknown name "
                             "lists what is registered)")
    p_rslo.add_argument("--strict", action="store_true",
                        help="exit 3 when any policy side violates an SLO")
    p_rslo.set_defaults(fn=cmd_runs_slo)

    # Read at call time so a test session can point the default elsewhere.
    runs_root = str(obs_ledger.DEFAULT_ROOT)
    for p in (p_rl, p_rs, p_rd, p_rslo):
        p.add_argument("--runs-dir", default=runs_root, metavar="DIR",
                       help=f"ledger directory (default: {runs_root})")

    p_tr = sub.add_parser("trace", help="run a demo with tracing enabled")
    p_tr.add_argument("demo", metavar="DEMO",
                      help=f"demo to trace ({', '.join(DEMOS)})")
    p_tr.add_argument("--out", metavar="PATH", default=None,
                      help="write a Chrome trace_event JSON file")
    p_tr.add_argument("--jsonl", metavar="PATH", default=None,
                      help="write a JSONL span/instant log")
    p_tr.add_argument("--gantt", action="store_true",
                      help="print an ASCII Gantt of the recorded spans")
    p_tr.add_argument("--gantt-category", metavar="CAT", default="runner",
                      help="span category for --gantt (default: runner)")
    p_tr.set_defaults(fn=cmd_trace)

    for p in (p_fig, p_ds, p_qs, p_fl, p_ch, p_sp, p_sw, p_dag, p_mx, p_tr):
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics table after the run")
        p.add_argument("--runs-dir", default=runs_root, metavar="DIR",
                       help="flight-recorder ledger directory "
                            f"(default: {runs_root})")
        p.add_argument("--no-ledger", action="store_true",
                       help="do not append run records to the ledger")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed its one-line usage error (unknown
        # subcommand, bad flag value); surface the status as a return
        # code so callers never see a traceback.
        return int(e.code or 0)
    # Run-producing subcommands record to the flight-recorder ledger;
    # the ``runs`` query group only reads (via its own --runs-dir).
    record = args.command != "runs" and not getattr(args, "no_ledger", False)
    previous_ledger = (set_run_ledger(RunLedger(args.runs_dir))
                       if record else None)
    try:
        # ``trace`` and ``fleet`` manage their own Obs bundle (spans +
        # metrics); the other subcommands only need the registry when
        # --metrics is requested.
        if args.fn in (cmd_trace, cmd_fleet):
            return _dispatch(args)
        # --metrics-out needs a live registry even without --metrics.
        obs = (configure(trace=False) if getattr(args, "metrics", False)
               or getattr(args, "metrics_out", None) else None)
        try:
            return _dispatch(args)
        finally:
            if obs is not None:
                _maybe_print_metrics(args, obs)
                disable()
    finally:
        if record:
            set_run_ledger(previous_ledger)


def _dispatch(args: argparse.Namespace) -> int:
    """Run a subcommand; unexpected errors become one log line, not a dump."""
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - the CLI boundary
        _log.error("%s: %s", type(e).__name__, e)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
