"""Small API-surface tests: registries, frame ids, router base guards."""

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHMS, make_algorithm
from repro.experiments import DEFAULT_FIGURE_SETTINGS, figure_configs, run_figure
from repro.net import Frame
from repro.routing import OracleRouter

from .helpers import line_positions, make_world
from .overlay_helpers import build_overlay


class TestAlgorithmRegistry:
    def test_all_four_registered(self):
        assert set(ALGORITHMS) == {"basic", "regular", "random", "hybrid"}

    def test_unknown_name_rejected(self):
        pts = [[10, 10], [15, 10]]
        _, _, overlay, _ = build_overlay(pts, algorithm="regular")
        servent = overlay.servents[0]
        with pytest.raises(ValueError):
            make_algorithm("chord", servent, servent.cfg, np.random.default_rng(0))

    def test_factory_names_match_keys(self):
        for name, cls in ALGORITHMS.items():
            assert cls.name == name


class TestFiguresRegistry:
    def test_all_eight_registered(self):
        # one settings table, and figure_configs plans every id in it
        assert set(DEFAULT_FIGURE_SETTINGS) == {f"fig{i}" for i in range(5, 13)}
        for fid, (duration, reps) in DEFAULT_FIGURE_SETTINGS.items():
            assert len(figure_configs(fid, duration=duration, reps=reps)) == 4 * reps

    def test_registry_callable(self):
        res = run_figure("fig9", duration=60.0, reps=1, seed=3, routing="oracle")
        assert res.exp_id == "fig9" and res.family == "ping"


class TestFrame:
    def test_uids_unique(self):
        frames = [Frame(src=0, dst=1, kind="k", payload=None) for _ in range(50)]
        assert len({f.uid for f in frames}) == 50


class TestRouterBase:
    def test_duplicate_handler_rejected(self):
        _, world, _ = make_world(line_positions(2))
        router = OracleRouter(world.sim, world)
        router.register("k", lambda *a: None)
        with pytest.raises(ValueError):
            router.register("k", lambda *a: None)

    def test_unknown_kind_dropped_silently(self):
        sim, world, _ = make_world(line_positions(2, spacing=5.0))
        router = OracleRouter(sim, world)
        router.send(0, 1, "x", kind="nobody")  # no handler: no crash
        sim.run()


class TestPackageSurface:
    def test_top_level_lazy_imports(self):
        import repro

        assert repro.ScenarioConfig is not None
        assert callable(repro.run_scenario)
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_version(self):
        import repro

        assert repro.__version__
