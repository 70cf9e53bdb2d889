"""Memory guards for the primitives every simulated daemon owns.

An idle :class:`~repro.simx.Channel` (and its Store) holds no queue, nor
does a Store with one waiting getter, and a
:class:`~repro.simx.SeededRNG` stream holds no generator, undrawn or
after a few draws, so each stays a few hundred bytes however many a
cluster creates. A persistent stream holds only the sends in flight, so
its footprint does not grow with the waves it carries. The guards measure with
``tracemalloc``, which counts the bytes Python allocates after it
starts, so they depend on no clock and on no other process.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.fig6 import measure_stat_startup
from repro.experiments.streaming import measure_stream
from repro.simx import Channel, SeededRNG, Simulator, Store

#: bytes per idle channel, undrawn stream, stream drawn twice or store
#: with one waiting getter; on CPython 3.11 these are ~160, ~160, ~310
#: and ~225 B, and were ~2.4 KiB (three empty deques), ~2.9 KiB and
#: ~3.1 KiB (a seeded Mersenne Twister) and ~985 B (a one-getter deque)
#: before that state became lazy
OBJECT_BOUND_B = 512

#: tracemalloc peak per daemon of a 1024-daemon fig6 LaunchMON launch;
#: 11.9 KiB on CPython 3.11, 11.7 on 3.12 and 14.7 on 3.9 (17.0 and
#: 19.8 on 3.11 and 3.9 with a generator per drawn node stream and a
#: deque per waiting getter, ~29 KiB with eager queues and streams)
DAEMON_BOUND_KIB = 15

#: tracemalloc peak of a 256-leaf histogram stream over 40 waves against
#: 5: ~1.05 on CPython 3.11, ~3.1 when every send stayed referenced
#: until the stream's next repair or close
STREAM_GROWTH_BOUND = 1.15


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


def test_a_lone_waiting_getter_needs_no_queue(traced):
    sim = Simulator()
    stores = [Store(sim) for _ in range(10_000)]
    waits = [store.get() for store in stores]
    assert tracemalloc.get_traced_memory()[0] / len(waits) < OBJECT_BOUND_B


def test_undrawn_streams_hold_no_generator(traced):
    root = SeededRNG(1)
    streams = [root.child(f"node:{i}") for i in range(10_000)]
    assert tracemalloc.get_traced_memory()[0] / len(streams) < OBJECT_BOUND_B


def test_streams_drawn_twice_hold_no_generator(traced):
    # a fig6 node stream draws twice: it forks an MPI task and a daemon
    root = SeededRNG(1)
    streams = [root.child(f"node:{i}") for i in range(10_000)]
    for stream in streams:
        stream.jitter(1.0)
        stream.uniform(0.0, 1.0)
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


def _stream_peak(n_waves: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        cell = measure_stream(256, "histogram", n_waves=n_waves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell["delivered"] == n_waves
    return peak


def test_stream_peak_is_flat_in_its_waves():
    measure_stream(16, "histogram", n_waves=2)  # warm caches
    assert _stream_peak(40) <= STREAM_GROWTH_BOUND * _stream_peak(5)
