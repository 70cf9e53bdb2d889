"""Memory guards for the primitives every simulated daemon owns.

An idle :class:`~repro.simx.Channel` (itself a Store) holds no queue, nor
does a Store with one waiting getter, and a
:class:`~repro.simx.SeededRNG` stream holds no generator, undrawn or
after a few draws, so each stays a few hundred bytes however many a
cluster creates. A persistent stream holds only the sends in flight, so
its footprint does not grow with the waves it carries, and a one-shot
wave holds only what its routers have not merged yet. The guards measure
with ``tracemalloc``, which counts the bytes Python allocates after it
starts, so they depend on no clock and on no other process.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.fig6 import measure_stat_startup
from repro.experiments.streaming import measure_stream
from repro.simx import Channel, SeededRNG, Simulator, Store
from repro.tbon import Overlay, StreamSpec, TBONTopology
from repro.tools.stat_tool import PrefixTree

#: bytes per idle channel, undrawn stream, stream drawn twice or store
#: with one waiting getter; on CPython 3.11 these are ~105, ~160, ~310
#: and ~225 B, and were ~2.4 KiB (three empty deques), ~2.9 KiB and
#: ~3.1 KiB (a seeded Mersenne Twister) and ~985 B (a one-getter deque)
#: before that state became lazy (a channel was ~160 B while it wrapped
#: a Store of its own)
OBJECT_BOUND_B = 512

#: tracemalloc peak per daemon of a 1024-daemon fig6 LaunchMON launch,
#: by CPython version: 7.7 KiB on 3.11, ~7.7 on 3.12 and ~9.3 on 3.9
#: since the per-daemon records are slotted, a daemon's process makes
#: its debug-event store and /proc statistics on first use and a
#: channel is one object (9.1, 8.9 and 11.4 before that; 11.4, 11.2 and
#: 14.2 while the root held the whole wave; 17.0 and 19.8 on 3.11 and
#: 3.9 with a generator per drawn node stream and a deque per waiting
#: getter, ~29 KiB with eager queues and streams). A version not listed
#: gets the 3.9 bound.
DAEMON_BOUND_KIB = {(3, 11): 8.6, (3, 12): 8.75}.get(
    sys.version_info[:2], 10.5)

#: tracemalloc peak of a 32-leaf one-shot wave whose leaves send one at a
#: time, in payloads: ~3.3 (the running merge, the payload being built
#: and folded, the merged result), and ~23 while the root kept every
#: payload until the last arrived and every pump kept its last item
WAVE_PAYLOAD_BOUND = 5

#: a 100-frame call path: each leaf's prefix tree is 100 nodes deep
STACK = tuple(f"frame{i}" for i in range(100))

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


def _tree_payload(rank: int) -> dict:
    tree = PrefixTree()
    tree.insert(STACK, rank)
    return tree.to_dict()


def test_one_shot_wave_holds_only_what_is_unmerged(traced):
    """32 leaves of a one-deep overlay send prefix trees that differ
    only in their rank, one second apart, so about one payload is in
    flight at a time. The root's running merge stays the size of one
    payload, and the wave's peak a small multiple of it."""
    n = 32
    sim = Simulator()
    topo = TBONTopology.one_deep(n)
    cluster = Cluster(sim, ClusterSpec(n_compute=n, seed=1))
    placement = {0: cluster.front_end}
    placement.update(zip(topo.backends(), cluster.compute))
    overlay = Overlay(sim, cluster.network, topo, placement,
                      {1: StreamSpec(1, "prefix_tree_merge")})
    overlay.start_routers()

    def leaf(i, pos):
        yield sim.timeout(1.0 * i)
        yield from overlay.endpoint(pos).send_wave(1, 0, _tree_payload(i))

    for i, pos in enumerate(topo.backends()):
        sim.process(leaf(i, pos))
    root = sim.process(overlay.endpoint(0).collect_wave())
    base = tracemalloc.get_traced_memory()[0]
    payload = _tree_payload(0)
    one = tracemalloc.get_traced_memory()[0] - base
    del payload
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    sim.run()
    peak = tracemalloc.get_traced_memory()[1] - base
    merged = root.value.payload
    assert merged["n"] == n and merged["tree"]["r"] == [0, n]
    assert peak <= WAVE_PAYLOAD_BOUND * one, f"{peak / one:.1f} payloads"


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
