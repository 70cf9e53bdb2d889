"""Memory guards for the primitives every simulated daemon owns.

An idle :class:`~repro.simx.Channel` (and its Store) holds no queue, and
an undrawn :class:`~repro.simx.SeededRNG` stream holds no generator, so
both stay a few hundred bytes however many a cluster creates. The
guards measure with ``tracemalloc``, which counts the bytes Python
allocates after it starts, so they depend on no clock and on no other
process.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.fig6 import measure_stat_startup
from repro.simx import Channel, SeededRNG, Simulator

#: bytes per idle channel or undrawn stream; each is ~160 B on CPython
#: 3.11, and was ~2.4 KiB (three empty deques) and ~2.9 KiB (a seeded
#: Mersenne Twister) before their state became lazy
OBJECT_BOUND_B = 512

#: tracemalloc peak per daemon of a 1024-daemon fig6 LaunchMON launch;
#: ~17 KiB on CPython 3.11, ~29 KiB with eager queues and streams
DAEMON_BOUND_KIB = 22


@pytest.fixture
def traced():
    """Trace allocations from a collected heap for the test's duration."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_idle_channels_hold_no_queue(traced):
    sim = Simulator()
    chans = [Channel(sim) for _ in range(10_000)]
    assert tracemalloc.get_traced_memory()[0] / len(chans) < OBJECT_BOUND_B


def test_undrawn_streams_hold_no_generator(traced):
    root = SeededRNG(1)
    streams = [root.child(f"node:{i}") for i in range(10_000)]
    assert tracemalloc.get_traced_memory()[0] / len(streams) < OBJECT_BOUND_B


def test_fig6_launch_peak_per_daemon():
    n = 1024
    measure_stat_startup(64, "launchmon", tasks_per_daemon=1)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        box = measure_stat_startup(n, "launchmon", tasks_per_daemon=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box["n_tasks"] == n
    assert peak / n / 1024 <= DAEMON_BOUND_KIB
