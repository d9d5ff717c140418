"""``run.py --compare A.json B.json``: the two-sets-of-runs criterion.

``A`` is the base (the parent commit, or the first of two sets of runs
of one commit), ``B`` the candidate.  Each (workload, end-to-end metric)
pair gets one verdict, applying the metric's bound in its direction:

* ``unresolved`` -- the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the bound
  cannot be applied -- unless every run of one side beats every run of
  the other, which settles the direction whatever the spread;
* ``worse`` / ``better`` -- otherwise, B's median is worse / better than
  A's by more than the bound;
* ``same`` -- otherwise.

Each workload also gets a ``digest`` row (documents of one seed and
scale only).  A moved digest means the two sides simulated different
things, so

* that workload's ``run_us_per_tx`` row is replaced by a ``run_s`` row
  (raw seconds, same bound): the denominator (transmissions) is one of
  the things that moved, and fewer transmissions at the same wall would
  read as a slowdown.  With equal digests the two differ by a constant;
* the row itself is ``worse`` when both documents record the same git
  revision -- one commit must reproduce its own digests -- and ``moved``
  (for the reviewer to judge) otherwise.

Every ratio is printed with its base (A's median).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

__all__ = ["verdict", "compare_documents", "render"]

#: end-to-end metric divided by a simulated count the digest covers ->
#: (the raw measurement each section also stores, its unit)
RAW_OF = {"run_us_per_tx": ("run_s", "s")}


def _spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Judge candidate runs ``b`` against base runs ``a`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0  # worsening = sign * (b - a) > 0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsened = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(_spread(a), _spread(b))
    separated = all(sign * (y - x) < 0 for x in a for y in b) or all(
        sign * (y - x) > 0 for x in a for y in b
    )
    if spread > bound and not separated:
        word = "unresolved"
    elif worsened > bound:
        word = "worse"
    elif worsened < -bound:
        word = "better"
    else:
        word = "same"
    return {
        "verdict": word,
        "base_median": med_a,
        "median": med_b,
        "ratio": med_b / med_a if med_a else float("nan"),
        "spread": spread,
        "bound": bound,
    }


def compare_documents(
    a: Dict[str, Any], b: Dict[str, Any], declared: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both documents,
    plus one ``digest`` row per workload saying whether the simulated
    statistics moved."""
    rows: List[Dict[str, Any]] = []
    same_inputs = a.get("seed") == b.get("seed") and a.get("scale") == b.get("scale")
    revision = a.get("host", {}).get("git_revision")
    same_commit = revision is not None and revision == b.get("host", {}).get("git_revision")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        moved = same_inputs and wa.get("digest") != wb.get("digest")
        for metric in declared:
            label, unit = metric["name"], metric["unit"]
            ea = wa.get("end_to_end", {}).get(label)
            eb = wb.get("end_to_end", {}).get(label)
            if moved and label in RAW_OF:
                label, unit = RAW_OF[label]
                ea, eb = wa.get(label), wb.get(label)
            if ea is None or eb is None:
                continue
            row = verdict(ea["values"], eb["values"], metric["better"], metric["bound"])
            row.update(workload=name, metric=label, unit=unit)
            rows.append(row)
        if same_inputs:
            word = ("worse" if same_commit else "moved") if moved else "same"
            rows.append({"workload": name, "metric": "digest", "verdict": word})
        failed = wb.get("failed", 0)
        rows.append(
            {
                "workload": name,
                "metric": "failed",
                "verdict": "worse" if failed > wa.get("failed", 0) else "same",
                "base_median": wa.get("failed", 0),
                "median": failed,
            }
        )
    return rows


def render(rows: List[Dict[str, Any]]) -> Tuple[str, int]:
    """Text table and exit code (non-zero on any ``worse``)."""
    lines = [
        f"{'workload':<16} {'metric':<16} {'verdict':<11} {'base (A)':>12} "
        f"{'B':>12} {'B/A':>7} {'spread':>7} {'bound':>6}"
    ]
    bad = 0
    for row in rows:
        if row["verdict"] == "worse":
            bad += 1
        if "ratio" not in row:
            detail = (
                f"{row['base_median']:>12g} {row['median']:>12g}" if "median" in row else ""
            )
            lines.append(
                f"{row['workload']:<16} {row['metric']:<16} {row['verdict']:<11} {detail}"
            )
            continue
        lines.append(
            f"{row['workload']:<16} {row['metric']:<16} {row['verdict']:<11} "
            f"{row['base_median']:>12.5g} {row['median']:>12.5g} {row['ratio']:>6.3f}x "
            f"{row['spread']:>6.1%} {row['bound']:>6.0%}  [{row.get('unit', '')}]"
        )
    lines.append(f"{bad} worse row(s)" if bad else "no worse rows")
    return "\n".join(lines), 1 if bad else 0
