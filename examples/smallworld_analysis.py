#!/usr/bin/env python3
"""Small-world analysis -- the theory behind the Random algorithm (§6.1.2).

The Random algorithm rewires each node's last connection to a distant
peer hoping for the Watts-Strogatz effect: short characteristic path
length with high clustering.  The paper could not detect it at n=50 and
deferred denser scenarios to future work (§8).  This example runs that
study: a dense, static network where long-range links survive, tracking
the overlay graph's metrics over time for Regular vs Random.

Run: ``python examples/smallworld_analysis.py``
"""

from repro.core import P2pConfig
from repro.scenarios import ScenarioConfig, build_scenario

import os


def _scale(seconds: float) -> float:
    """Scale example horizons via REPRO_EXAMPLE_SCALE (tests use ~0.1)."""
    return seconds * float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))



def overlay_timeline(algorithm: str, *, snapshots=None):
    if snapshots is None:
        snapshots = tuple(_scale(t) for t in (300.0, 900.0, 1800.0))
    cfg = ScenarioConfig(
        num_nodes=120,
        p2p_fraction=1.0,
        area_width=120.0,
        area_height=120.0,
        mobility="static",  # so long-range links survive
        algorithm=algorithm,
        duration=max(snapshots),
        queries=False,
        seed=9,
        p2p=P2pConfig(max_connections=4),
    )
    s = build_scenario(cfg)
    s.overlay.start(queries=False)
    rows = []
    for t in snapshots:
        s.sim.run(until=t)
        rows.append((t, s.analytics.smallworld_stats(*s.overlay.csr())))
    return rows


def main() -> None:
    print("overlay graph metrics over time (120 static nodes, MAXNCONN=4)\n")
    print(f"{'t(s)':>6} {'algorithm':>9} {'degree':>7} {'clustering':>11} "
          f"{'path length':>12} {'n/2k ref':>9} {'logn/logk ref':>14}")
    results = {}
    for alg in ("regular", "random"):
        for t, stats in overlay_timeline(alg):
            print(
                f"{t:6.0f} {alg:>9} {stats['mean_degree']:7.2f} "
                f"{stats['clustering']:11.3f} {stats['path_length']:12.2f} "
                f"{stats.get('regular_ref', float('nan')):9.2f} "
                f"{stats.get('random_ref', float('nan')):14.2f}"
            )
            results[(alg, t)] = stats
        print()

    last_t = _scale(1800.0)
    reg = results[("regular", last_t)]
    rnd = results[("random", last_t)]
    print("final comparison:")
    print(f"  path length : regular {reg['path_length']:.2f}  vs  "
          f"random {rnd['path_length']:.2f}")
    print(f"  clustering  : regular {reg['clustering']:.3f} vs  "
          f"random {rnd['clustering']:.3f}")
    if rnd["path_length"] <= reg["path_length"]:
        print("\nthe random long-range links act as bridges: shorter global")
        print("paths -- the small-world effect the paper was looking for.")
    else:
        print("\nno small-world gain in this run -- the paper saw the same at")
        print("low density (§7.4) and attributed it to n being too close to k.")


if __name__ == "__main__":
    main()
