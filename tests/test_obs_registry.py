"""Tests for the observability registry: instruments, labels, read surface."""

import numpy as np
import pytest

from repro.obs import Registry
from repro.sim.kernel import Simulator


class TestInstruments:
    def test_counter_hot_path(self):
        reg = Registry()
        c = reg.counter("hits")
        c.value += 1
        c.inc(2)
        assert c.value == 3

    def test_gauge_set_and_callback(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(4.5)
        assert g.value == 4.5
        backing = [7]
        live = reg.gauge("live", fn=lambda: backing[0])
        backing[0] = 9
        assert live.value == 9
        with pytest.raises(ValueError):
            live.set(1.0)

    def test_histogram_summary(self):
        reg = Registry()
        h = reg.histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3 and h.total == 6.0
        assert h.min == 1.0 and h.max == 3.0 and h.mean == 2.0

    def test_timer_accumulates(self):
        reg = Registry()
        t = reg.timer("wall", section="x")
        with t.time():
            pass
        t.add(0.5)
        assert t.calls == 2 and t.seconds >= 0.5


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = Registry()
        a = reg.counter("c", family="ping")
        b = reg.counter("c", family="ping")
        c = reg.counter("c", family="query")
        assert a is b and a is not c
        # Label order must not matter.
        x = reg.counter("d", a=1, b=2)
        y = reg.counter("d", b=2, a=1)
        assert x is y

    def test_label_aggregation(self):
        reg = Registry()
        reg.counter("msgs", family="ping", layer="p2p").inc(3)
        reg.counter("msgs", family="ping", layer="radio").inc(4)
        reg.counter("msgs", family="query", layer="p2p").inc(5)
        assert reg.value("msgs") == 12
        assert reg.value("msgs", family="ping") == 7
        assert reg.value("msgs", family="ping", layer="radio") == 4
        with pytest.raises(KeyError):
            reg.value("msgs", family="absent")

    def test_aggregated_folds_node_label(self):
        # Nodes share one instrument, so there is no node label to fold:
        # every member's charges land in one series.
        reg = Registry()
        for _member in range(2):
            reg.counter("msgs", family="ping").inc(3)
        assert reg.aggregated() == {"msgs{family=ping}": 6}
        assert len(reg) == 1
        with pytest.raises(TypeError):
            reg.aggregated(drop_labels=("node",))

    def test_snapshot_keys_deterministic(self):
        reg = Registry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.aggregated()) == sorted(reg.aggregated()) == ["a", "b"]
        assert not hasattr(reg, "snapshot")

    def test_one_series_per_name_surface(self):
        # No per-node store, no label folding knob, no process-wide
        # registry: each owner builds its own Registry().
        import repro.obs
        import repro.obs.registry as registry_mod
        from repro.obs import Sampler, semantic_snapshot

        for name in ("_Family", "_Bucket", "_MISSING", "NODE", "default_registry", "timed"):
            assert not hasattr(registry_mod, name), name
            assert not hasattr(repro.obs, name), name
        reg = Registry()
        with pytest.raises(TypeError):
            Sampler(Simulator(), reg, 1.0, drop_labels=())
        with pytest.raises(TypeError):
            semantic_snapshot(reg, drop_labels=())

    def test_wall_times(self):
        reg = Registry()
        with reg.timed("phase.one"):
            pass
        seconds, calls = reg.wall_times()["phase.one"]
        assert calls == 1 and seconds >= 0.0


class TestDeprecatedShims:
    """The old counter properties and ``stats()`` dicts are gone: the
    registry is the one read surface."""

    def test_kernel_counters_read_through(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        for name in (
            "events_dispatched",
            "events_skipped",
            "heap_compactions",
            "heap_pushes",
            "heap_size",
            "stats",
        ):
            with pytest.raises(AttributeError):
                getattr(sim, name)
        assert sim.registry.value("kernel.events_dispatched") == 1
        assert sim.registry.value("kernel.events_skipped") == 0
        assert sim.registry.value("kernel.heap_compactions") == 0
        assert sim.registry.value("kernel.heap_pushes") == 1
        assert sim.registry.value("kernel.heap") == 0

    def test_channel_counters_read_through(self):
        from repro.net.packet import Frame
        from tests.helpers import line_positions, make_world

        sim, world, channel = make_world(line_positions(4), radio_range=10.0)
        channel.unicast(Frame(src=0, dst=1, kind="x", payload=None))
        sim.run(until=1.0)
        for name in ("frames_sent", "frames_delivered", "stats"):
            with pytest.raises(AttributeError):
                getattr(channel, name)
        assert channel.registry is world.registry is sim.registry
        assert sim.registry.value("net.frames_sent", layer="radio") == 1
        assert sim.registry.value("net.frames_delivered") == 1
        for name in ("rebuilds", "delta_rebuilds", "moved_nodes", "dist_cache_hits", "stats"):
            with pytest.raises(AttributeError):
                getattr(world.topology, name)
        assert sim.registry.value("topology.rebuilds", layer="topology") >= 1

    def test_stats_protocol_everywhere(self):
        from repro.scenarios import ScenarioConfig, build_scenario

        s = build_scenario(ScenarioConfig(num_nodes=8, duration=30.0, seed=2))
        s.run()
        components = [
            s,
            s.sim,
            s.world,
            s.world.energy,
            s.world.topology,
            s.channel,
            s.overlay,
            s.metrics,
            s.overlay.flood,
            *s.overlay.servents.values(),
        ]
        for component in components:
            assert not hasattr(component, "stats"), type(component).__name__
        assert not hasattr(s.overlay.flood, "evictions")
        assert s.overlay.flood.policy is None  # the reference flood
        assert s.registry.value("flood.originated", plane="p2p.flood") > 0
        with pytest.raises(KeyError):  # one series per plane, none per node
            s.registry.value("flood.originated", plane="p2p.flood", node=0)
        # The algorithm snapshot stays: the benchmark's overlay check reads it.
        for servent in s.overlay.servents.values():
            assert isinstance(servent.algorithm.stats(), dict)

    def test_run_events_read_from_registry(self):
        from repro.scenarios import ScenarioConfig, run_scenario

        res = run_scenario(ScenarioConfig(num_nodes=8, duration=30.0, seed=2))
        assert res.events > 0
        assert res.events == res.counters["kernel.events_dispatched"]
        assert isinstance(res.events, int)


class TestCollectorValidation:
    def test_count_received_rejects_out_of_range(self):
        from repro.metrics.collector import MetricsCollector

        mc = MetricsCollector(5)
        with pytest.raises(IndexError):
            mc.count_received(-1, "ping")
        with pytest.raises(IndexError):
            mc.count_received(5, "ping")
        mc.count_received(4, "ping")  # boundary ok
        assert mc.total("ping") == 1
        # the negative id must NOT have wrapped onto another node
        assert np.all(mc.family_counts("ping")[:4] == 0)
