"""Tests for generator-based processes."""

import pytest

from repro.sim import Process, Simulator


class TestProcess:
    def test_periodic_loop(self):
        sim = Simulator()
        ticks = []

        def loop():
            while True:
                ticks.append(sim.now)
                yield 2.0

        Process(sim, loop())
        sim.run(until=5.0)
        assert ticks == [0.0, 2.0, 4.0]

    def test_process_ends_normally(self):
        sim = Simulator()
        out = []

        def once():
            yield 1.0
            out.append("done")

        p = Process(sim, once())
        sim.run()
        assert out == ["done"]
        assert not p.alive

    def test_kill_stops_process(self):
        sim = Simulator()
        ticks = []

        def loop():
            while True:
                ticks.append(sim.now)
                yield 1.0

        p = Process(sim, loop())
        sim.run(until=2.0)
        p.kill()
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not p.alive

    def test_negative_yield_raises(self):
        sim = Simulator()

        def bad():
            yield -1.0

        Process(sim, bad())
        with pytest.raises(ValueError):
            sim.run()

    def test_non_numeric_yield_raises(self):
        # a bare sentinel is no delay either: a process cannot park
        for value in ("soon", object()):
            sim = Simulator()

            def bad():
                yield value

            Process(sim, bad())
            with pytest.raises(TypeError):
                sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        out = []

        def mk(tag, period):
            def loop():
                while True:
                    out.append((sim.now, tag))
                    yield period

            return loop

        Process(sim, mk("a", 2.0)())
        Process(sim, mk("b", 3.0)())
        sim.run(until=6.0)
        assert out == [
            (0.0, "a"),
            (0.0, "b"),
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "a"),
            # b's t=6 wake-up was scheduled at t=3, a's at t=4, so b fires first
            (6.0, "b"),
            (6.0, "a"),
        ]
