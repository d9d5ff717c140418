"""The piecewise-linear segment contract behind ``positions(t)``.

Every mobility model stores one segment ``(t0, t1, origin, dest)`` per
node in flat arrays and evaluates all positions with one vectorized
lerp.  The segments it holds must reproduce ``positions(t)`` *bitwise*
via that canonical lerp at any time the segment covers (interior and
both boundaries), and a query must roll expired segments forward so
they cover it.  A model whose ``_refresh`` drifted from its stored
segments would silently move nodes off their trajectories.  Checked
here for every concrete model.
"""

import numpy as np
import pytest

from repro.mobility.base import Area
from repro.mobility.direction import RandomDirection
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.static import Static
from repro.mobility.waypoint import RandomWaypoint

AREA = Area(100.0, 100.0)

MODELS = {
    "waypoint": lambda rng: RandomWaypoint(25, AREA, rng),
    "direction": lambda rng: RandomDirection(25, AREA, rng),
    "gauss-markov": lambda rng: GaussMarkov(25, AREA, rng),
    "static": lambda rng: Static(25, AREA, rng),
}


def _make(name, seed=7):
    return MODELS[name](np.random.default_rng(seed))


#: Segment ends at or beyond this are parked forever (the static model
#: pauses for 1e12 s); their end point is never reached.
PARKED = 1e10


def _segment_lerp(t, t0, t1, origin, dest):
    """The canonical segment evaluation the base class promises."""
    frac = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)[:, None]
    return origin + frac * (dest - origin)


def _segments(model):
    """Copies of the model's per-node segment arrays."""
    return (
        model._t0.copy(),
        model._t1.copy(),
        model._origin.copy(),
        model._dest.copy(),
    )


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSegmentContract:
    def test_segments_reproduce_positions_bitwise(self, name):
        model = _make(name)
        for t in (0.0, 3.7, 41.2, 120.0, 500.5):
            got = model.positions(t)
            t0, t1, origin, dest = _segments(model)
            want = _segment_lerp(t, t0, t1, origin, dest)
            assert got.tobytes() == want.tobytes(), f"{name} drifts at t={t}"

    def test_segment_boundaries_are_exact(self, name):
        model = _make(name)
        model.positions(50.0)  # roll everyone somewhere interesting
        t0, t1, origin, dest = _segments(model)
        # At the segment start the node is bitwise at origin; at the
        # (finite) end the canonical lerp lands within an ulp of dest
        # (frac hits exactly 1.0 but origin + (dest - origin) may round
        # off dest's last bit -- the contract is the lerp, not the
        # endpoint).  The model only supports forward queries, so probe
        # each boundary in ascending time order; a node's own segment
        # is still current at its own boundaries under that order.
        probes = [(float(t0[i]), i, origin[i], True) for i in range(model.n)]
        probes += [
            (float(t1[i]), i, dest[i], False)
            for i in range(model.n)
            if t1[i] < PARKED
        ]
        for t, i, want, exact in sorted(probes, key=lambda p: p[0]):
            got = model.positions(t)[i]
            if exact:
                assert got.tobytes() == want.tobytes(), (
                    f"{name} node {i} off-segment at boundary t={t}"
                )
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_current_segments_rolls_to_cover_t(self, name):
        model = _make(name)
        model.positions(200.0)
        t0, t1, _, _ = _segments(model)
        assert (t0 <= 200.0).all()
        assert (t1 >= 200.0).all()
