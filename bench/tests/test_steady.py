"""What keeps ``run_us_per_tx`` steady on a host that is not: the host probe."""

import signal
import time

from bench.child import TimedWindow
from bench.hostprobe import INTERVAL_S, HostProbe
from bench.metrics import end_to_end, host_slowdown


def _rep(run_s, slowdown, frames=1000.0):
    return {
        "setup_s": 0.5,
        "run_s": run_s,
        "host_slowdown": slowdown,
        "peak_rss_mb": 80.0,
        "counters": {"net.frames_sent": frames},
    }


def test_a_rep_on_a_slow_host_counts_for_less_of_its_wall():
    reps = [_rep(3.0, 1.5), _rep(2.0, 1.0), _rep(2.0, None)]
    reps[0]["setup_slowdown"] = 2.0  # set-up has a reading of its own
    rows = end_to_end(reps)
    assert rows["run_us_per_tx"] == [2000.0, 2000.0, 2000.0]
    assert rows["setup_s"] == [0.25, 0.5, 0.5]
    assert host_slowdown({}) == 1.0  # an unprobed (traced) child counts at face value


def test_host_probe_samples_while_the_main_thread_works_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    probe = HostProbe()
    probe.start()
    deadline = time.perf_counter() + 6 * INTERVAL_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 4 <= len(probe.samples) <= 9
    assert all(s > 0 for s in probe.samples) and 0.05 < probe.slowdown() < 50


def test_a_tick_that_arrives_inside_a_sample_is_skipped():
    probe = HostProbe()
    inner = probe._work
    probe._work = lambda: (probe.sample(), inner())  # the timer fires mid-sample
    probe.sample()
    assert len(probe.samples) == 1 and not probe._sampling


def test_slowdown_is_the_harmonic_mean_over_ticks():
    probe = HostProbe()
    assert probe.slowdown() is None
    # half the ticks at nominal speed, half at a third of it: two thirds
    # of nominal work per tick on average, so 1.5x slow -- not the 2x of the mean
    probe.samples = [1e-3, 3e-3] * 10
    assert abs(probe.slowdown() - 1.5) < 1e-12


def test_only_a_probed_window_reads_the_host():
    with TimedWindow(probed=False) as plain:
        sum(range(1000))
    assert plain.report()["host_slowdown"] is None and plain.run_s > 0
    with TimedWindow(probed=True) as probed:
        sum(range(1000))
    report = probed.report()
    assert report["host_slowdown"] > 0 and len(probed.probe.samples) >= 1
    assert report["run_s"] == probed.run_s > 0
