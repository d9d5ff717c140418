#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from live runs.

Runs every paper figure at the bench scale (50-node figures: 400 s x 2
reps; 150-node figures: 240 s x 1 rep; override with
REPRO_BENCH_DURATION / REPRO_BENCH_REPS to go paper-scale) and writes
the paper-vs-measured record the deliverables require.
"""

from __future__ import annotations

import os
import sys
import time

from repro.experiments import (
    PAPER_FIGURES,
    compare_with_paper,
    render_figure,
    run_figure,
    table1_rows,
    table2_rows,
    render_table,
)
from repro.scenarios import ScenarioConfig, run_scenario

OUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

FIG_SETTINGS = {
    "fig5": (400.0, 2),
    "fig6": (240.0, 1),
    "fig7": (400.0, 2),
    "fig8": (240.0, 1),
    "fig9": (400.0, 2),
    "fig10": (240.0, 1),
    "fig11": (400.0, 2),
    "fig12": (240.0, 1),
}


def env(name, default):
    return float(os.environ[name]) if name in os.environ else default


def main() -> None:
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
    w("The settings used for this file are printed per figure.")
    w("")
    w("## Orchestration — cache key contract and resume semantics")
    w("")
    w("Every evaluation (`p2p-manet reproduce`, `run_figure`, `run_sweep`,")
    w("the benches) plans its runs through one engine,")
    w("`repro.experiments.executor.ExperimentExecutor`: the requested")
    w("(config, seed) jobs are flattened into a deduplicated unit-of-work")
    w("list -- figures 5/7/9/11 build *identical* scenarios and only differ")
    w("in what they harvest (as do 6/8/10/12), so one `reproduce` pass runs")
    w("each underlying simulation exactly once -- and the remainder executes")
    w("serially or on a process pool, byte-identically either way.")
    w("")
    w("With a cache attached (`--cache PATH` or `--resume`), completed runs")
    w("are memoized in an append-only ndjson archive under the content")
    w("address `v<run-schema-version>:<config-sha256>:<seed>`, where the")
    w("sha256 is over the canonical (sorted-keys) JSON codec of the complete")
    w("`ScenarioConfig` -- the same hash the run manifest records.  The key")
    w("covers *every* config field, so changing any knob (node count, policy")
    w("spec, topology backend, ...) is a cache miss by construction, and bumping")
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
    for exp_id in [f"fig{i}" for i in range(5, 13)]:
        dur, reps = FIG_SETTINGS[exp_id]
        dur = env("REPRO_BENCH_DURATION", dur)
        reps = int(env("REPRO_BENCH_REPS", reps))
        t0 = time.time()
        result = run_figure(exp_id, duration=dur, reps=reps, seed=0)
        elapsed = time.time() - t0
        paper = PAPER_FIGURES[exp_id]
        w(f"## Figure {exp_id[3:]} — {paper.caption}")
        w("")
        w(f"Settings: {result.num_nodes} nodes, {dur:g} s x {reps} reps "
          f"(paper: 3600 s x 33); bench target "
          f"`benchmarks/test_{exp_id}_*.py`; wall-clock {elapsed:.0f} s.")
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
        print(f"{exp_id} done in {elapsed:.0f}s", file=sys.stderr)

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
