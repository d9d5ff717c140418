#!/usr/bin/env python3
"""Reach pass: which ``src/repro`` functions do the run paths call?

Drives, serially and in one process under ``sys.setprofile``: the
configs of ``tests/test_run_fingerprint.py``, every CLI subcommand and
output flag at smoke scale (``sweep`` and ``reproduce`` twice each over
one ``--store`` / ``--cache`` archive), every example at
``REPRO_EXAMPLE_SCALE=0.2`` and CI's ``rewiring_sweep`` call.  Then
lists, with ``ast``, every function under ``src/repro`` (abstract stubs
aside) and prints each one no run called that
``scripts/reach_pinned.txt`` does not pin with a reason, and each pin
that names a reached or missing function, so the list only shrinks.
Exits 1 if it printed any.  Usage: ``make reach`` (about a minute).
"""

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PINNED = ROOT / "scripts" / "reach_pinned.txt"
#: one reason tag per pinned entry
REASON = re.compile(r"bench|api|oracle|dunder|roadmap-\d+")


def _stub(fn):
    """An ``@abstractmethod`` or a body of ``raise NotImplementedError``."""
    if any("abstractmethod" in ast.unparse(d) for d in fn.decorator_list):
        return True
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def functions():
    """``{(file, first line): "module:qualname"}`` for every def in
    ``src/repro`` but the stubs; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    if not _stub(child):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[(str(path), first)] = f"{module}:{qual}"
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


def pinned():
    """``{"module:qualname": reason}`` of ``scripts/reach_pinned.txt``:
    one ``name reason`` entry a line, ``#`` comments."""
    entries = {}
    for line in PINNED.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, reason = line.split()
            if not REASON.fullmatch(reason):
                raise ValueError(f"{PINNED.name}: unknown reason {reason!r} for {name}")
            entries[name] = reason
    return entries


def drive(tmp):
    """Every run path, output silenced."""
    from repro.cli import main
    from repro.theory import rewiring_sweep
    from tests.test_run_fingerprint import CONFIGS, digest

    for name in CONFIGS:
        digest(name)
    store, cache, out = (os.path.join(tmp, f) for f in ("store.ndjson", "runs.ndjson", "out"))
    short = ["--duration", "30"]
    fig = ["figure", "fig7", "--reps", "1", *short]
    sweep = ["sweep", "nodes", "20", "30", *short, "--store", store, "--cache", cache]
    reproduce = ["reproduce", "--out", out, "--reps", "1", "--cache", cache, *short]
    commands = [
        ["run", *short, "--stats", "--obs-interval", "5", "--store", store],
        ["run", *short, "--json"],
        ["stats", store],
        ["stats", store, "--json"],
        fig,
        fig + ["--chart"],
        fig + ["--csv"],
        fig + ["--json"],
        ["map", *short],
        ["tables"],
        sweep,
        sweep + ["--json"],
        ["sweep", "nodes", "20", "30", *short, "--processes", "2"],  # the pool's chunking
        ["sweep", "algorithm", "basic", *short, "--store", store, "--resume"],
        reproduce,
        reproduce,
        ["reproduce", "--out", out, "--figures", "fig9", "--reps", "1", "--resume", *short],
    ]
    os.environ["REPRO_EXAMPLE_SCALE"] = "0.2"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            main(argv)
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
        rewiring_sweep(n=60, k=4, ps=(0.0, 0.1, 1.0), reps=1)


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    defs = functions()
    seen = set()
    hook = lambda frame, event, arg: seen.add(frame.f_code)  # noqa: E731
    with tempfile.TemporaryDirectory() as tmp:
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            drive(tmp)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    unreached = [name for key, name in defs.items() if key not in reached]
    pins = pinned()
    missing = [name for name in unreached if name not in pins]
    stale = sorted(set(pins) - set(unreached))  # reached or gone: unpin
    print(f"{len(defs)} functions, {len(defs) - len(unreached)} reached, "
          f"{len(unreached)} unreached, {len(unreached) - len(missing)} of them pinned")
    for name in missing:
        print("unreached:", name)
    for name in stale:
        print("pinned but reached or gone:", name)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
