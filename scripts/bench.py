#!/usr/bin/env python3
"""Run the substrate perf suite and record ``BENCH_substrate.json``.

The repo's perf trajectory lives in versioned ``BENCH_*.json`` documents
at the repository root: every substrate-touching PR re-runs this script
and the recorded before/after numbers (reference vs batched delivery
lane, full vs delta topology refresh, networkx vs numpy metric kernels,
heap traffic, events/sec, end-to-end wall clock) become the baseline
the next PR has to beat.  See docs/PERFORMANCE.md for how to
read the document.

Usage::

    python scripts/bench.py                   # full ladder (n up to 2000)
    python scripts/bench.py --quick           # CI smoke (small, record-only)
    python scripts/bench.py --sizes 50 600    # custom node-count ladder
    python scripts/bench.py --validate FILE   # schema-check an existing doc
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.perf_suite import (  # noqa: E402
    BenchSchemaError,
    run_suite,
    validate_bench_dict,
)

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_substrate.json")


def _print_summary(doc: dict) -> None:
    print(f"# BENCH substrate (quick={doc['quick']}, rev={doc['git_revision']})")
    for r in doc["results"]:
        lane = r["params"].get("lane", "-")
        n = r["params"].get("n", r["params"].get("n_events", "-"))
        extra = ""
        if "events_per_sec" in r:
            extra = f"{r['events_per_sec']:,.0f} events/s"
        elif "heap_pushes" in r:
            extra = f"pushes={int(r['heap_pushes']):,}"
        print(
            f"  {r['name']:<20} n={n!s:<7} lane={lane:<9} "
            f"wall={r['wall_seconds']:.3f}s {extra}"
        )
    for c in doc["comparisons"]:
        ident = c.get("semantically_identical")
        tail = "" if ident is None else f" identical={ident}"
        push = (
            f"push_reduction={c['push_reduction']:.2f}x "
            if "push_reduction" in c
            else ""
        )
        print(
            f"  -> {c['name']:<17} n={c['n']:<6} "
            f"{push}speedup={c['speedup']:.2f}x{tail}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true", help="small CI-smoke suite")
    ap.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="node-count ladder override"
    )
    ap.add_argument(
        "--metro",
        type=int,
        default=None,
        metavar="N",
        help="metro-flagship node count (default: 10000 on the full "
        "suite, skipped on --quick; 0 disables it outright)",
    )
    ap.add_argument(
        "--metro-duration",
        type=float,
        default=5.0,
        metavar="S",
        help="metro-flagship sim horizon in seconds (short for CI smoke)",
    )
    ap.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    ap.add_argument(
        "--validate",
        metavar="FILE",
        default=None,
        help="validate an existing BENCH document and exit",
    )
    args = ap.parse_args(argv)

    if args.validate is not None:
        with open(args.validate) as fh:
            doc = json.load(fh)
        try:
            validate_bench_dict(doc)
        except BenchSchemaError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid BENCH document (schema v{doc['schema_version']})")
        return 0

    doc = run_suite(
        quick=args.quick,
        sizes=args.sizes,
        metro=args.metro,
        metro_duration=args.metro_duration,
        log=lambda msg: print(f"[bench] {msg}", file=sys.stderr),
    )
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_summary(doc)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
