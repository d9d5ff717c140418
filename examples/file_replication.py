#!/usr/bin/env python3
"""File replication -- Gnutella's transfer phase changes the network.

The paper measures queries only; in real Gnutella a hit is followed by
a direct download, and the downloaded copy serves future queries.  With
the transfer plane enabled, popular files spread through the overlay
over time -- watch availability climb with the time-series sampler.

Run: ``python examples/file_replication.py``
"""

import os

from repro.core import QueryConfig
from repro.scenarios import ScenarioConfig, build_scenario


def _scale(seconds: float) -> float:
    """Scale example horizons via REPRO_EXAMPLE_SCALE (tests use ~0.1)."""
    return seconds * float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


def main() -> None:
    duration = _scale(1200.0)
    cfg = ScenarioConfig(
        num_nodes=50,
        duration=duration,
        algorithm="regular",
        seed=55,
        query=QueryConfig(
            download=True,  # the Gnutella transfer phase
            warmup=60.0,
            response_wait=15.0,
            gap_min=10.0,
            gap_max=20.0,
        ),
        obs_interval=duration / 8.0,  # one time-series row every eighth
    )
    s = build_scenario(cfg)

    def rank1_copies() -> float:
        return float(
            sum(1 for sv in s.overlay.servents.values() if sv.store.has(1))
        )

    # The sampler snapshots every registry metric; add one for the
    # most popular file's copies next to the built-in message counters.
    s.registry.gauge("files.rank1_copies", fn=rank1_copies)
    s.run()

    t, copies = s.sampler.series("files.rank1_copies")
    _, transfers = s.sampler.series("p2p.received{family=transfer}")
    print("copies of the most popular file over time:\n")
    for ti, ci, tr in zip(t, copies, transfers):
        bar = "#" * int(ci)
        print(f"  t={ti:6.0f}s  copies={ci:3.0f}  transfers so far={tr:4.0f}  {bar}")

    records = s.overlay.query_records()
    half = duration / 2
    early = [r for r in records if r.issued_at <= half]
    late = [r for r in records if r.issued_at > half]
    rate = lambda rs: sum(1 for r in rs if r.answered) / len(rs) if rs else 0.0
    print(f"\nanswer rate, first half : {rate(early):.0%} ({len(early)} queries)")
    print(f"answer rate, second half: {rate(late):.0%} ({len(late)} queries)")

    downloads = sum(len(sv.query_engine.downloads) for sv in s.overlay.servents.values())
    print(f"completed downloads      : {downloads}")
    print("\nreplication turns every successful search into future supply --")
    print("the availability dynamic the paper's static placement leaves out.")


if __name__ == "__main__":
    main()
