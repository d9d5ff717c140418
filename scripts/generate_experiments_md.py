#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from live runs.

Runs every paper figure in one ``reproduce_all`` batch at the
``DEFAULT_FIGURE_SETTINGS`` scale (50-node figures: 400 s x 2 reps;
150-node figures: 240 s x 1 rep; override with REPRO_BENCH_DURATION /
REPRO_BENCH_REPS to go paper-scale) and writes the paper-vs-measured
record the deliverables require.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from repro.experiments import (
    PAPER_FIGURES,
    ExperimentExecutor,
    compare_with_paper,
    render_figure,
    render_table,
    reproduce_all,
    table1_rows,
    table2_rows,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")


def env(name, cast):
    return cast(os.environ[name]) if name in os.environ else None


def main() -> None:
    executor = ExperimentExecutor()
    t0 = time.time()
    with tempfile.TemporaryDirectory() as out_dir:
        results = reproduce_all(
            out_dir,
            duration=env("REPRO_BENCH_DURATION", float),
            reps=env("REPRO_BENCH_REPS", int),
            executor=executor,
            progress=lambda line: print(line, file=sys.stderr),
        )
    elapsed = time.time() - t0
    stats = executor.stats()

    lines: list[str] = []
    w = lines.append
    w("# EXPERIMENTS — paper vs measured")
    w("")
    w("Reproduction record for every table and figure of Franciscani et al.,")
    w('"Peer-to-Peer over Ad-hoc Networks: (Re)Configuration Algorithms"')
    w("(IPDPS 2003).  Regenerate this file with")
    w("`python scripts/generate_experiments_md.py` (env overrides:")
    w("`REPRO_BENCH_DURATION`, `REPRO_BENCH_REPS`; the paper scale is")
    w("3600 s x 33 reps).")
    w("")
    w("**Scale note.** Absolute message counts depend on run length, timer")
    w("constants the paper does not publish, and the MAC abstraction, so they")
    w("are NOT expected to match the paper's axes; every comparison below is")
    w("about *shape*: orderings, skews and decays the paper states in §7.4.")
    w("The settings used for this file are printed per figure.  All eight")
    w(f"figures ran as one `reproduce_all` batch: {stats['jobs_executed']:g} runs")
    w(f"executed, {stats['jobs_deduped']:g} shared between figures, wall-clock {elapsed:.0f} s.")
    w("")
    w("## Orchestration — cache key contract and resume semantics")
    w("")
    w("Every evaluation (`p2p-manet reproduce`, `run_figure`, `run_sweep`,")
    w("the benches, this file) executes its runs through one engine,")
    w("`repro.experiments.executor.ExperimentExecutor`; a figure's runs are")
    w("defined once, by `figure_configs`.  The requested (config, seed) jobs")
    w("are flattened into a deduplicated unit-of-work list -- figures")
    w("5/7/9/11 build *identical* scenarios and only differ in what they")
    w("harvest (as do 6/8/10/12), so one `reproduce` pass runs each")
    w("underlying simulation exactly once -- and the remainder executes")
    w("serially or on a process pool, byte-identically either way.")
    w("")
    w("With a cache attached (`--cache PATH` or `--resume`), completed runs")
    w("are memoized in an append-only ndjson archive under the content")
    w("address `v<run-schema-version>:<config-sha256>:<seed>`, where the")
    w("sha256 is over the canonical (sorted-keys) JSON codec of the complete")
    w("`ScenarioConfig` -- the same hash the run manifest records.  The key")
    w("covers *every* config field, so changing any knob (node count, policy")
    w("spec, snapshot_interval, ...) is a cache miss by construction, and bumping")
    w("the run-schema version invalidates every old entry without touching")
    w("the archive.  Re-running after an interruption replays the completed")
    w("runs as O(1) lookups and executes only what is missing; a final line")
    w("truncated by a killed writer is skipped (and counted on")
    w("`storage.corrupt_lines`) instead of poisoning the archive.  A warm")
    w("re-`reproduce` is therefore nearly free and emits byte-identical")
    w("figure artifacts -- `tests/test_reproduce.py` pins exactly that, and")
    w("`tests/test_executor.py` pins serial == parallel == cached figure JSON.")
    w("")

    # ---- tables -------------------------------------------------------
    w("## Table 1 — topology taxonomy")
    w("")
    w("Generated from `repro.experiments.tables.TOPOLOGIES`; matches the")
    w("paper cell-for-cell (asserted in `benchmarks/test_table1_topologies.py`,")
    w("which also live-tests the fault-tolerance claim by killing half the")
    w("overlay mid-run).")
    w("")
    w("```")
    w(render_table(table1_rows()))
    w("```")
    w("")
    w("## Table 2 — simulation parameters")
    w("")
    w("Generated from `ScenarioConfig()` defaults; asserted value-for-value")
    w("against the paper in `benchmarks/test_table2_parameters.py`.")
    w("")
    w("```")
    w(render_table(table2_rows()))
    w("```")
    w("")

    # ---- figures ------------------------------------------------------
    for exp_id, result in results.items():
        paper = PAPER_FIGURES[exp_id]
        w(f"## Figure {exp_id[3:]} — {paper.caption}")
        w("")
        w(f"Settings: {result.num_nodes} nodes, {result.duration:g} s x {result.reps} reps "
          f"(paper: 3600 s x 33); bench target `benchmarks/test_figures.py`.")
        w("")
        w("```")
        w(render_figure(result))
        w("```")
        w("")
        w("| paper claim | verdict | measured |")
        w("|---|---|---|")
        for row in compare_with_paper(result):
            verdict = {True: "**agrees**", False: "DIFFERS", None: "n/a"}[row["holds"]]
            w(f"| {row['paper_says']} | {verdict} | {row['measured']} |")
        w("")

    # ---- beyond the paper ---------------------------------------------
    w("## Beyond the paper: measured answers to §7.4 / §8 open questions")
    w("")
    w("These are recorded by the ablation benches (run them for the full")
    w("output):")
    w("")
    w("* `abl_backoff`, `abl_ring`, `abl_symmetric` isolate the Regular")
    w("  algorithm's four improvements and confirm each reduces traffic.")
    w("* `abl_connection_lifetimes` measures the paper's *conjecture* that")
    w("  \"the random connections go down before the nodes could benefit")
    w("  from them\": random links do die younger than regular links.")
    w("* `abl_smallworld` runs the deferred dense-static scenario: with")
    w("  surviving long-range links, the Random overlay's characteristic")
    w("  path length drops below Regular's (the effect the paper looked")
    w("  for), while `test_theory_smallworld` reproduces the underlying")
    w("  Watts-Strogatz sweep against closed-form predictions.")
    w("* `abl_load_balance` turns §7.4's \"distribute the work\" prose into")
    w("  Gini coefficients: Hybrid concentrates keep-alive load on masters;")
    w("  Regular/Random stay even.")
    w("* `abl_churn`, `abl_mobility`, `abl_density` cover the §8 sweeps;")
    w("  `abl_routing` validates the oracle substitution and")
    w("  `abl_routing_protocols` reruns the cited AODV/DSDV/DSR comparison.")
    w("")

    with open(OUT, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {os.path.abspath(OUT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
