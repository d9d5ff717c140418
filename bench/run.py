#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py`` (see bench/README.md).

One command runs the workloads of ``BENCHMARK.json``, each rep in a
fresh child process, one child at a time (closed loop, one client),
prints every metric by name with its unit, checks the outputs and ends
with one JSON line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Driver form (one workload, one tracing mode)::

    python3 bench/run.py --workload dense_query --seed 7 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced children;
``--trace 1`` runs one untraced and one traced child and reports the
per-layer metrics; without ``--trace`` both happen.  Without
``--workload`` all four workloads run.  ``--out FILE`` stores the full
document, ``--spans-dir DIR`` the traced children's raw spans;
``--compare A.json B.json`` judges two such documents.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Run as a script, sys.path[0] is bench/ itself, where trace.py would
# shadow the stdlib module of that name; import through the package.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != _BENCH_DIR]
for _p in (SRC, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from bench import compare as compare_mod  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, end_to_end, host_slowdown, per_layer, summarise  # noqa: E402
from bench.trace import LAYERS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: fresh-process reps per workload: at least MIN_REPS, then as many as
#: fit into --seconds, at most MAX_REPS
MIN_REPS = 3
MAX_REPS = 9
#: all children of one workload end within this many seconds (the
#: driver allows a run 180 s); each child gets what is left of it,
#: at most CHILD_TIMEOUT
WORKLOAD_DEADLINE = 165.0
CHILD_TIMEOUT = 120.0


class BenchmarkError(RuntimeError):
    """The harness itself cannot run (not a failed operation)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


def warm_import() -> None:
    """One untimed child that imports everything the reps import, so
    ``.pyc`` compilation is never inside ``setup_s``."""
    code = "import bench.child, bench.instrument, repro.scenarios.runner, repro.experiments"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import the program under test:\n{proc.stderr}")


def spawn(
    workload: str,
    seed: int,
    scale: str,
    mode: str,
    *,
    timeout: float,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one child to completion; a timeout or crash comes back as
    ``{"crashed": reason}`` -- failed operations, never a hang."""
    # The child's scratch directory (RunCache archive, figure artifacts)
    # is made inside the checkout -- the driver lets a run write nowhere
    # else -- and removed here, so a killed child leaves nothing behind.
    with tempfile.TemporaryDirectory(prefix=".work-", dir=_BENCH_DIR) as workdir:
        argv = [
            sys.executable, "-m", "bench.child",
            "--workload", workload, "--seed", str(seed), "--scale", scale,
            "--mode", mode, "--workdir", workdir,
        ]  # fmt: skip
        if spans_out:
            argv += ["--spans-out", os.path.abspath(spans_out)]
        # The spawn timestamp is the last thing computed before the spawn
        # call; CLOCK_MONOTONIC is system-wide, so the child can subtract.
        argv += ["--spawned-at", repr(time.monotonic())]
        # Its own session, so a timeout can kill the child together with
        # the pool workers the two-process cold pass starts.
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )  # fmt: skip
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"crashed": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crashed": f"exit code {proc.returncode}: {stderr.strip()[-2000:]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": f"no result line; stderr: {stderr.strip()[-2000:]}"}


def measure(
    name: str,
    seed: int,
    scale: str,
    *,
    seconds: float,
    reps: Optional[int],
    trace: str,
    child_timeout: float = CHILD_TIMEOUT,
    spans_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """All children of one workload; returns its section of the document.

    ``spans_dir``: the traced child dumps its raw spans to
    ``<spans_dir>/<workload>.npz``.
    """
    children: List[Dict[str, Any]] = []
    t_start = time.monotonic()
    deadline = t_start + WORKLOAD_DEADLINE

    def child(mode: str, **kw: Any) -> Dict[str, Any]:
        timeout = max(1.0, min(child_timeout, deadline - time.monotonic()))
        out = spawn(name, seed, scale, mode, timeout=timeout, **kw)
        out["mode"] = mode
        children.append(out)
        return out

    # --- untraced reps (end-to-end numbers come only from these) -------
    untraced: List[Dict[str, Any]] = []
    wanted = 1 if trace == "1" else reps  # the traced child needs one reference rep
    while True:
        t_rep = time.monotonic()
        untraced.append(child("rep"))
        now = time.monotonic()
        if "crashed" in untraced[-1]:
            break  # a hung or broken child would only hang or break again
        if wanted is not None:
            if len(untraced) >= wanted:
                break
        elif len(untraced) >= MAX_REPS or (
            # stop once the next rep (as long as the last) would overrun
            len(untraced) >= MIN_REPS and (now - t_start) + (now - t_rep) > seconds
        ):
            break

    # --- traced child (+ the two-process cold pass) ---------------------
    traced = parallel = None
    if trace in ("1", "both"):
        spans_out = os.path.join(spans_dir, name + ".npz") if spans_dir else None
        traced = child("traced", spans_out=spans_out)
        if WORKLOADS[name].kind == "reproduce" and (os.cpu_count() or 1) >= 2:
            parallel = child("parallel")

    # --- operations: failures and digest agreement ----------------------
    reference = next((c for c in children if "ops" in c and c["mode"] != "parallel"), None)
    ops_per_child = len(reference["ops"]) if reference else 1
    attempted = failed = 0
    problems: List[str] = []
    for c in children:
        if "crashed" in c:
            attempted += ops_per_child
            failed += ops_per_child
            problems.append(f"{c['mode']} child: {c['crashed']}")
            continue
        attempted += len(c["ops"])
        for op, ref in zip(c["ops"], reference["ops"] if reference else c["ops"]):
            error = op["error"]
            if error is None and c["mode"] != "parallel" and op["digest"] != ref["digest"]:
                error = f"digest {op['digest']} differs from {ref['digest']} of the first child"
            if error is not None:
                failed += 1
                problems.append(f"{c['mode']} child, {op['name']}: {error}")

    section: Dict[str, Any] = {
        "why": WORKLOADS[name].why,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "digest": reference["digest"] if reference else None,
        "op_digests": {op["name"]: op["digest"] for op in reference["ops"]} if reference else {},
    }
    good = [c for c in untraced if "crashed" not in c]
    if trace != "1" and good:
        section["end_to_end"] = {
            metric: summarise(values) for metric, values in end_to_end(good).items()
        }
        # raw seconds behind run_us_per_tx: what --compare judges when a
        # change moved the digest (and with it the transmission count)
        section["run_s"] = summarise([c["run_s"] for c in good])
        # what bench/hostprobe.py read during each of those windows, and
        # the raw set-up seconds and readings behind setup_s
        section["host_slowdown"] = summarise([host_slowdown(c) for c in good])
        section["setup_raw_s"] = summarise([c["setup_s"] for c in good])
        section["setup_slowdown"] = summarise([host_slowdown(c, "setup") for c in good])
    if traced is not None and "crashed" not in traced and good:
        section["per_layer"] = per_layer(
            traced, good[0], parallel if parallel and "crashed" not in parallel else None
        )
        shares = traced["trace"].get("window_by_layer", {})
        total = sum(shares.values())
        section["layer_share"] = {
            layer: (shares.get(layer, 0.0) / total if total else 0.0) for layer in LAYERS
        }
        section["spans_by_name"] = traced["trace"]["by_name"]
    return section


# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    import numpy
    from repro.obs.manifest import git_revision

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
    }


def print_section(name: str, section: Dict[str, Any], say=print) -> None:
    say(f"== {name}: {section['why']}")
    say(
        f"   operations: {section['attempted']} attempted, {section['failed']} failed; "
        f"digest {section['digest']}"
    )
    for problem in section["problems"]:
        say(f"   FAILED {problem}")
    for metric in END_TO_END:
        row = section.get("end_to_end", {}).get(metric.name)
        if row is not None:
            say(
                f"   {metric.name:<34} {row['median']:>14.6g} {metric.unit:<6} "
                f"(median of {row['n']}; {row['min']:.6g} .. {row['max']:.6g})"
            )
    if "run_s" in section:
        row = section["run_s"]
        say(
            f"   {'(run_s, raw, no bound)':<34} {row['median']:>14.6g} {'s':<6} "
            f"(median of {row['n']}; {row['min']:.6g} .. {row['max']:.6g})"
        )
        for label, key, unit in (
            ("(host slowdown in the run)", "host_slowdown", "x"),
            ("(setup_s, raw)", "setup_raw_s", "s"),
            ("(host slowdown in set-up)", "setup_slowdown", "x"),
        ):
            row = section[key]
            say(
                f"   {label:<34} {row['median']:>14.6g} {unit:<6} "
                f"(median of {row['n']}; {row['min']:.6g} .. {row['max']:.6g})"
            )
    values = section.get("per_layer", {})
    for metric in PER_LAYER:
        if metric.name in values:
            say(f"   {metric.name:<34} {values[metric.name]:>14.6g} {metric.unit}")
    if "layer_share" in section:
        shares = ", ".join(
            f"{layer} {share:.1%}" for layer, share in section["layer_share"].items() if share
        )
        say(f"   self-time share of the traced run: {shares}")


def contract_line(section: Dict[str, Any], trace: str) -> Dict[str, Any]:
    """The driver's result object for a single-workload run."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace in ("0", "both"):
        for metric in END_TO_END:
            row = section.get("end_to_end", {}).get(metric.name)
            if row is not None:
                metrics[metric.name] = {"value": row["median"], "unit": metric.unit}
    if trace in ("1", "both"):
        for metric in PER_LAYER:
            if metric.name in section.get("per_layer", {}):
                metrics[metric.name] = {
                    "value": section["per_layer"][metric.name],
                    "unit": metric.unit,
                }
    return {
        "correct": bool(section["correct"]),
        "attempted": max(1, int(section["attempted"])),
        "failed": int(section["failed"]),
        "metrics": metrics,
    }


def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    declared = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    text, code = compare_mod.render(compare_mod.compare_documents(a, b, declared))
    print(text)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"]),
        help="rep budget per workload: at least %d fresh-process reps, then as many "
        "as fit (default: run_seconds of BENCHMARK.json)" % MIN_REPS,
    )  # fmt: skip
    parser.add_argument("--reps", type=int, default=None, help="exact rep count instead of --seconds")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--smoke", action="store_true", help="shrunken workloads, 1 rep")
    parser.add_argument("--out", default=None, help="write the JSON document here")
    parser.add_argument(
        "--spans-dir", default=None,
        help="keep each traced child's raw spans as DIR/<workload>.npz",
    )  # fmt: skip
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)

    names = args.workload or list(WORKLOADS)
    scale = "smoke" if args.smoke else "full"
    reps = 1 if args.smoke and args.reps is None else args.reps
    t0 = time.monotonic()
    load_start = os.getloadavg()[0]
    try:
        warm_import()
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 2
    document: Dict[str, Any] = {
        "schema": 1,
        "claim": None,
        "host": host_facts(),
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
        "reps": reps,
        "trace": args.trace,
        "workloads": {},
    }
    if args.spans_dir:
        os.makedirs(args.spans_dir, exist_ok=True)
    for name in names:
        section = measure(
            name, args.seed, scale,
            seconds=args.seconds, reps=reps, trace=args.trace, spans_dir=args.spans_dir,
        )  # fmt: skip
        document["workloads"][name] = section
        print_section(name, section)
    document["load_1min"] = {"start": load_start, "end": os.getloadavg()[0]}
    document["wall_s"] = time.monotonic() - t0
    print(
        f"total wall {document['wall_s']:.1f} s; 1-min load {load_start:.2f} -> "
        f"{document['load_1min']['end']:.2f}; no gain is claimed (claim: null)"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    sections = list(document["workloads"].values())
    if len(sections) == 1:
        line = contract_line(sections[0], args.trace)
    else:
        line = {
            "correct": all(s["correct"] for s in sections),
            "attempted": sum(s["attempted"] for s in sections),
            "failed": sum(s["failed"] for s in sections),
            "metrics": {},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
