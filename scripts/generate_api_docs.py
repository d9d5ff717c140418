#!/usr/bin/env python3
"""Generate docs/API.md by introspecting the public surface.

Walks every ``repro`` subpackage, collects the names each exports in
``__all__`` (classes, functions, constants), and writes their signatures
and first docstring paragraphs.  Deterministic output, so the file can
be regenerated and diffed: constant reprs lose their ``at 0x...``
memory addresses.

Run: ``python scripts/generate_api_docs.py`` (``render()`` returns the
text without writing it).
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
import sys

PACKAGES = [
    "repro.sim",
    "repro.mobility",
    "repro.net",
    "repro.aodv",
    "repro.dsdv",
    "repro.dsr",
    "repro.routing",
    "repro.core",
    "repro.metrics",
    "repro.obs",
    "repro.theory",
    "repro.scenarios",
    "repro.experiments",
]

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
OUT = os.path.join(ROOT, "docs", "API.md")
# Import the checkout's package whether or not it is installed.
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the `` at 0x7f...`` of a default repr: a memory address, new every run
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def describe(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        try:
            sig = str(inspect.signature(obj))
        except (ValueError, TypeError):
            sig = "(...)"
        lines.append(f"### class `{name}{sig}`")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
        methods = [
            (n, m)
            for n, m in inspect.getmembers(obj, predicate=inspect.isfunction)
            if not n.startswith("_") and m.__qualname__.startswith(obj.__name__ + ".")
        ]
        if methods:
            lines.append("")
            for mname, m in methods:
                try:
                    msig = str(inspect.signature(m))
                except (ValueError, TypeError):
                    msig = "(...)"
                lines.append(f"* `.{mname}{msig}` — {first_paragraph(inspect.getdoc(m))}")
    elif inspect.isfunction(obj):
        try:
            sig = str(inspect.signature(obj))
        except (ValueError, TypeError):
            sig = "(...)"
        lines.append(f"### `{name}{sig}`")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
    else:
        lines.append(f"### `{name}` (constant)")
        lines.append("")
        lines.append(f"`{_ADDRESS.sub('', repr(obj))}`"[:200])
    lines.append("")
    return lines


def render() -> str:
    """The whole of docs/API.md, as text."""
    out: list[str] = [
        "# API reference",
        "",
        "Generated by `python scripts/generate_api_docs.py` — do not edit",
        "by hand.  One section per subpackage; entries are the names each",
        "package exports via `__all__`.",
        "",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## `{pkg_name}`")
        out.append("")
        out.append(first_paragraph(inspect.getdoc(pkg)))
        out.append("")
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            out.extend(describe(name, obj))
    return "\n".join(out) + "\n"


def main() -> None:
    with open(OUT, "w") as fh:
        fh.write(render())
    print(f"wrote {os.path.abspath(OUT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
