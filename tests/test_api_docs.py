"""docs/API.md generation is deterministic, and the committed file is fresh.

``scripts/generate_api_docs.py`` renders constants by ``repr``; a
default repr carries a memory address that changes every process, which
used to make two regenerations differ.  Two interpreters with different
hash seeds must render byte-identical text, and that text must be the
committed docs/API.md, so a public signature or docstring change cannot
leave the reference stale.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "generate_api_docs.py"
RENDER = "import runpy, sys; sys.stdout.write(runpy.run_path(sys.argv[1])['render']())"


def _render(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", RENDER, str(SCRIPT)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_two_renders_are_byte_equal():
    first, second = _render(1), _render(2)
    assert first.startswith("# API reference")
    assert " at 0x" not in first
    assert first == second


def test_committed_reference_is_fresh():
    committed = (ROOT / "docs" / "API.md").read_text()
    assert committed == _render(0), (
        "docs/API.md is stale: run python scripts/generate_api_docs.py"
    )
