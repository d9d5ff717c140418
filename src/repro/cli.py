"""Command-line interface.

Examples
--------
Reproduce a paper figure at reduced scale::

    p2p-manet figure fig7 --duration 600 --reps 3

Print the paper's tables::

    p2p-manet tables

Run a single scenario and dump its summary::

    p2p-manet run --algorithm hybrid --nodes 50 --duration 600
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    PAPER_FIGURES,
    figure_chart,
    figure_result_to_csv,
    figure_result_to_json,
    render_figure,
    render_paper_comparison,
    render_table,
    run_figure,
    table1_rows,
    table2_rows,
)
from .scenarios import ScenarioConfig, build_scenario, run_scenario
from .scenarios.config import ALGORITHMS, ROUTINGS

__all__ = ["main"]


def _scenario(args: argparse.Namespace, **fields) -> ScenarioConfig:
    """``ScenarioConfig(**fields)``; a value it rejects ends the command
    with a one-line usage error (exit 2) instead of a traceback."""
    try:
        return ScenarioConfig(**fields)
    except ValueError as err:
        args.error(str(err))


def _positive(kind):
    """An argparse type: ``kind(text)``, which must be > 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _cmd_figure(args: argparse.Namespace) -> int:
    settings = dict(duration=args.duration, seed=args.seed, routing=args.routing)
    policies = dict(rebroadcast=args.rebroadcast)
    _scenario(args, **settings, **policies)  # a bad value is a usage error before any run
    result = run_figure(args.figure, reps=args.reps, overrides=policies, **settings)
    if args.json:
        print(figure_result_to_json(result))
        return 0
    if args.csv:
        print(figure_result_to_csv(result), end="")
        return 0
    print(render_figure(result))
    if args.chart:
        print()
        key = "curve" if result.kind == "message_curve" else "answers"
        print(figure_chart(result, key=key))
    print()
    print(render_paper_comparison(result))
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(render_table(table1_rows(), title="Table 1. Topologies and their characteristics."))
    print()
    print(render_table(table2_rows(), title="Table 2. Parameters used and their typical values."))
    return 0


#: CLI sweep parameter -> ScenarioConfig field
_SWEEP_FIELDS = {
    "nodes": "num_nodes",
    "algorithm": "algorithm",
    "mobility": "mobility",
    "routing": "routing",
}


def _sweep_value(args: argparse.Namespace, value: str):
    """A swept value as its config field takes it: ``nodes`` are ints."""
    if args.parameter != "nodes":
        return value
    try:
        return int(value)
    except ValueError:
        args.error(f"nodes values must be ints, got {value!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import SweepSpec, run_sweep

    fieldname = _SWEEP_FIELDS[args.parameter]
    values = tuple(_sweep_value(args, v) for v in args.values)
    fields = dict(duration=args.duration, seed=args.seed, rebroadcast=args.rebroadcast)
    base = _scenario(args, **fields)
    for value in values:  # a bad point is a usage error before anything runs
        _scenario(args, **fields, **{fieldname: value})
    store = None
    if args.store:
        from .experiments import ResultStore

        store = ResultStore(args.store)
    cache = args.cache
    if cache is None and args.resume:
        if not args.store:
            print("--resume needs --cache or --store", file=sys.stderr)
            return 2
        cache = args.store + ".runs.ndjson"
    points = run_sweep(
        base,
        [SweepSpec(fieldname, values)],
        reps=args.reps,
        processes=args.processes,
        store=store,
        cache=cache,
    )
    if args.json:
        print(json.dumps([p.to_dict() for p in points], indent=2))
        return 0
    rows = []
    for value, p in zip(args.values, points):
        rows.append(
            [
                str(value),
                f"{p.totals['connect']:g}",
                f"{p.totals['ping']:g}",
                f"{p.totals['query']:g}",
                f"{p.mean_degree:.2f}",
                f"{p.answer_rate:.2f}",
                f"{p.energy:.3f}",
            ]
        )
    print(
        render_table(
            [[args.parameter, "connect", "ping", "query", "degree", "answer_rate", "energy(J)"]]
            + rows,
            title=f"sweep over {args.parameter} ({args.duration:g}s, seed {args.seed})",
        )
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments import reproduce_all

    cache = args.cache
    if cache is None and args.resume:
        # Default resume archive lives next to the artifacts.
        os.makedirs(args.out, exist_ok=True)
        cache = os.path.join(args.out, "runs.ndjson")
    reproduce_all(
        args.out,
        figures=args.figures,
        duration=args.duration,
        reps=args.reps,
        seed=args.seed,
        progress=print,
        processes=args.processes,
        cache=cache,
    )
    print(f"artifacts written to {args.out}/")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .net.render import render_overlay_summary, render_world

    s = build_scenario(
        _scenario(
            args,
            num_nodes=args.nodes,
            duration=args.duration,
            algorithm=args.algorithm,
            seed=args.seed,
        )
    )
    s.run()
    members = set(s.members)
    print(
        render_world(
            s.world,
            label=lambda i: str(i % 10) if i in members else ".",
        )
    )
    print("\noverlay (members only; '.' nodes are ad-hoc relays):")
    print(render_overlay_summary(s.overlay))
    return 0


def _render_run_stats(res) -> str:
    """Wall-clock breakdown + counter table, registry-sourced."""
    lines = ["wall-clock breakdown:"]
    lines.append(f"  {'section':<28} {'seconds':>10} {'calls':>8}")
    for section, (seconds, calls) in sorted(
        res.wall.items(), key=lambda kv: -kv[1][0]
    ):
        lines.append(f"  {section:<28} {seconds:>10.4f} {calls:>8}")
    lines.append("")
    lines.append("counters:")
    lines.append(f"  {'metric':<44} {'value':>12}")
    for key, value in sorted(res.counters.items()):
        shown = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {key:<44} {shown:>12}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario(
        args,
        num_nodes=args.nodes,
        duration=args.duration,
        algorithm=args.algorithm,
        routing=args.routing,
        seed=args.seed,
        obs_interval=args.obs_interval,
        rebroadcast=args.rebroadcast,
    )
    res = run_scenario(cfg)
    if args.store:
        from .experiments import ResultStore

        ResultStore(args.store).append_run(res, source="cli.run")
    if args.json:
        print(json.dumps(res.to_dict(), indent=2))
        return 0
    print(f"scenario: {args.algorithm}, {args.nodes} nodes, {args.duration:g}s (seed {args.seed})")
    print(f"events dispatched: {res.events}")
    print(f"received totals:  {res.totals}")
    print(f"queries issued:   {res.num_queries}")
    print(
        "overlay: "
        + ", ".join(f"{k}={v:.3f}" for k, v in res.overlay_stats.items())
    )
    print(f"energy consumed:  {res.energy.sum():.4f} J")
    if args.stats:
        print()
        print(_render_run_stats(res))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print one archived run from a ResultStore path."""
    from .experiments import ResultStore
    from .scenarios.runner import RunResult

    store = ResultStore(args.store)
    records = store.load(kind="run")
    if not records:
        print(f"no archived runs in {args.store}", file=sys.stderr)
        return 1
    try:
        record = records[args.index]
    except IndexError:
        print(
            f"run index {args.index} out of range ({len(records)} archived)",
            file=sys.stderr,
        )
        return 1
    payload = record["payload"]
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    res = RunResult.from_dict(payload)
    cfg = res.config
    print(
        f"run: {cfg.algorithm}, {cfg.num_nodes} nodes, {cfg.duration:g}s "
        f"(seed {cfg.seed}, routing {cfg.routing})"
    )
    if res.manifest is not None:
        m = res.manifest
        rev = (m.git_rev or "unknown")[:12]
        print(
            f"provenance: config {m.config_sha256[:12]}, rev {rev}, "
            f"python {m.python}, wall {m.wall_seconds:.2f}s"
        )
    print(f"events dispatched: {res.events}")
    print(f"received totals:  {res.totals}")
    print(f"queries issued:   {res.num_queries}")
    print(f"energy consumed:  {res.energy.sum():.4f} J")
    if res.timeseries:
        print(f"timeseries rows:  {len(res.timeseries)}")
    if res.wall or res.counters:
        print()
        print(_render_run_stats(res))
    return 0


def _add_processes_arg(parser: argparse.ArgumentParser, what: str) -> None:
    """The one ``--processes`` knob (shared semantics, see
    :class:`repro.experiments.executor.ExperimentExecutor`)."""
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help=f"worker processes for {what} (default: run in-process; "
        "0: all cores)",
    )


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rebroadcast",
        default="flood",
        metavar="POLICY",
        help="broadcast-plane rebroadcast policy: flood (reference, "
        "default), probabilistic[:p] (gossip-p, degree-adaptive floor) "
        "or counter[:c] (cancel after hearing c duplicates)",
    )


def _add_cache_args(parser: argparse.ArgumentParser, default_hint: str) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="content-addressed RunCache archive (ndjson): completed runs "
        "are memoized there and any run requested again -- same config "
        "and seed, byte-identical results -- is an O(1) lookup instead "
        "of a simulation",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"shorthand for --cache {default_hint}: re-running after an "
        "interruption picks up where it died",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2p-manet",
        description="Reproduction of 'P2P over Ad-hoc Networks: (Re)Configuration Algorithms' (IPDPS'03)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce a paper figure (fig5..fig12)")
    fig.add_argument("figure", choices=tuple(PAPER_FIGURES))
    fig.add_argument("--duration", type=_positive(float), default=600.0, help="seconds per run")
    fig.add_argument("--reps", type=_positive(int), default=3, help="repetitions (paper: 33)")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--routing", choices=ROUTINGS, default="aodv")
    fig.add_argument("--json", action="store_true", help="emit JSON instead of text")
    fig.add_argument("--csv", action="store_true", help="emit long-format CSV")
    fig.add_argument("--chart", action="store_true", help="add an ASCII chart")
    _add_policy_args(fig)
    fig.set_defaults(func=_cmd_figure)

    world = sub.add_parser("map", help="render the world + overlay as ASCII")
    world.add_argument("--nodes", type=int, default=50)
    world.add_argument("--duration", type=float, default=300.0)
    world.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="regular")
    world.add_argument("--seed", type=int, default=0)
    world.set_defaults(func=_cmd_map)

    tab = sub.add_parser("tables", help="print Tables 1 and 2")
    tab.set_defaults(func=_cmd_tables)

    run = sub.add_parser("run", help="run one scenario and print a summary")
    run.add_argument("--nodes", type=int, default=50)
    run.add_argument("--duration", type=float, default=600.0)
    run.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="regular")
    run.add_argument("--routing", choices=ROUTINGS, default="aodv")
    run.add_argument("--seed", type=int, default=0)
    _add_policy_args(run)
    run.add_argument("--json", action="store_true", help="emit the full RunResult as JSON")
    run.add_argument(
        "--stats",
        action="store_true",
        help="print the wall-clock breakdown and registry counter table",
    )
    run.add_argument(
        "--obs-interval",
        type=float,
        default=0.0,
        help="sample the metrics registry every N sim-seconds (0: off)",
    )
    run.add_argument("--store", default=None, help="append the run to this ResultStore")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="sweep one parameter across values, one scenario per value"
    )
    sweep.add_argument(
        "parameter", choices=("nodes", "algorithm", "mobility", "routing")
    )
    sweep.add_argument("values", nargs="+", help="values to sweep over")
    sweep.add_argument("--duration", type=float, default=300.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--reps", type=_positive(int), default=1, help="repetitions per point")
    _add_policy_args(sweep)
    _add_processes_arg(sweep, "grid points (one simulation each)")
    sweep.add_argument("--json", action="store_true", help="emit point results as JSON")
    sweep.add_argument(
        "--store", default=None, help="append point results to this ResultStore"
    )
    _add_cache_args(sweep, "<store>.runs.ndjson")
    sweep.set_defaults(func=_cmd_sweep)

    stats = sub.add_parser(
        "stats", help="pretty-print an archived run from a ResultStore file"
    )
    stats.add_argument("store", help="path to a ResultStore ndjson archive")
    stats.add_argument(
        "--index",
        type=int,
        default=-1,
        help="which archived run (insertion order; default: latest)",
    )
    stats.add_argument("--json", action="store_true", help="dump the raw payload")
    stats.set_defaults(func=_cmd_stats)

    rep = sub.add_parser(
        "reproduce", help="run the whole evaluation, write artifacts to a directory"
    )
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument(
        "--figures", nargs="*", choices=tuple(PAPER_FIGURES), help="subset (default: fig5..fig12)"
    )
    rep.add_argument("--duration", type=_positive(float), help="override seconds/run")
    rep.add_argument("--reps", type=_positive(int), help="override repetitions")
    rep.add_argument("--seed", type=int, default=0)
    _add_processes_arg(rep, "the deduplicated run batch")
    _add_cache_args(rep, "<out>/runs.ndjson")
    rep.set_defaults(func=_cmd_reproduce)
    # No prefix matching: a removed flag must fail loudly instead of
    # resolving to a longer surviving one that it happens to prefix.
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
