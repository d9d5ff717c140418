"""The reach pass's pin list, checked statically (no runs).

``scripts/reach.py`` (``make reach``) fails on any ``src/repro``
function that no run path calls unless ``scripts/reach_pinned.txt``
pins it with one reason, and on a pin that names a reached function.
Here: every pin names a function that exists, under a known tag, so
the list cannot grow stale entries between reach runs.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_pin_names_an_existing_function():
    defs = set(reach.functions().values())
    assert sorted(set(reach.pinned()) - defs) == []


def test_every_pin_carries_one_known_reason():
    text = reach.PINNED.read_text().splitlines()
    entries = [line.split("#", 1)[0].split() for line in text]
    entries = [e for e in entries if e]
    assert entries and all(len(e) == 2 for e in entries)
    assert all(reach.REASON.fullmatch(reason) for _, reason in entries)
    names = [name for name, _ in entries]
    assert len(names) == len(set(names))


def test_dunder_pins_are_dunders():
    for name, reason in reach.pinned().items():
        method = name.rsplit(".", 1)[-1].split(":")[-1]
        assert (reason == "dunder") == (method.startswith("__") and method.endswith("__")), name
