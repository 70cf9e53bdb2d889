"""SimStats parity: the counters stay truthful when fast_lane is off.

``test_fast_lane.py`` proves the *traces* match between the lane kernel
and the pure-heap kernel; this file pins down the *accounting*: under
either scheduler every processed event is counted exactly once, the
lane/heap split adds up, and a realistic subsystem workload (a TBON
stream over a cluster network) reports identical totals in both modes.

The kernel derives ``heap_pushes`` and the two high waters from its pop
counts when ``run()``/``step()`` returns instead of counting on every
enqueue; :class:`PerEnqueueCount` recounts them the per-enqueue way and
must agree, including for a ``run(until=...)`` that stops with events
still pending and for bare ``step()`` loops.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.simx import Simulator
from repro.tbon import Overlay, TBONTopology
from repro.tbon.overlay import StreamSpec


def _mixed_setup(sim):
    """Timeouts, zero-delay churn and interrupts; returns the workers."""
    gates = [sim.event() for _ in range(4)]

    def waiter(gate):
        try:
            yield gate
        except BaseException:
            return
        yield sim.timeout(0)

    workers = [sim.process(waiter(gates[i % 4])) for i in range(12)]

    def driver():
        for i, gate in enumerate(gates):
            yield sim.timeout(0.5 * i)
            gate.succeed(i)
            if i == 1:
                workers[-1].interrupt("stop")
        yield sim.timeout(1.0)

    sim.process(driver())
    return workers


def _mixed_workload(sim):
    """The mixed setup, drained completely by one run()."""
    workers = _mixed_setup(sim)
    sim.run()
    assert all(w.processed for w in workers)


def _mixed_until(sim):
    """The mixed setup, stopped by run(until=...) with events pending."""
    _mixed_setup(sim)
    sim.run(until=0.75)
    assert sim.peek() < float("inf")


def _mixed_steps(sim):
    """The mixed setup, drained by a bare step() loop (no run())."""
    workers = _mixed_setup(sim)
    while sim.peek() < float("inf"):
        sim.step()
    assert all(w.processed for w in workers)


def _stream_workload(sim, n_leaves=32, n_waves=5):
    """A credit-flow-controlled stream run, the kernel's real customer."""
    topo = TBONTopology.balanced(n_leaves, fanout=8)
    comms = topo.comm_positions()
    cluster = Cluster(sim, ClusterSpec(n_compute=topo.size, seed=3))
    placement = {0: cluster.front_end}
    for i, pos in enumerate(comms):
        placement[pos] = cluster.compute[i]
    for i, pos in enumerate(topo.backends()):
        placement[pos] = cluster.compute[len(comms) + i]
    overlay = Overlay(sim, cluster.network, topo, placement, streams={})
    overlay.start_routers()
    stream = overlay.open_stream(StreamSpec(7, "sum", credit_limit=2))

    def leaf(pos):
        for wave in range(n_waves):
            yield from stream.publish(pos, wave, 1)

    for pos in topo.backends():
        sim.process(leaf(pos), name=f"leaf:{pos}")

    def subscriber():
        for _ in range(n_waves):
            yield from stream.next_wave()

    done = sim.process(subscriber())
    sim.run(until=600)
    assert done.triggered


@pytest.mark.parametrize("workload", [_mixed_workload, _stream_workload],
                         ids=["mixed", "stream"])
class TestStatsParity:
    def test_event_totals_match_across_schedulers(self, workload):
        fast, heap = Simulator(fast_lane=True), Simulator(fast_lane=False)
        workload(fast)
        workload(heap)
        assert fast.stats.events == heap.stats.events
        assert fast.now == heap.now

    def test_heap_mode_routes_nothing_through_lanes(self, workload):
        sim = Simulator(fast_lane=False)
        workload(sim)
        assert sim.stats.fast_events == 0
        # a fully drained run: every processed event was heap-pushed
        assert sim.stats.heap_pushes == sim.stats.events

    def test_fast_mode_split_accounts_for_every_event(self, workload):
        sim = Simulator(fast_lane=True)
        workload(sim)
        stats = sim.stats
        assert stats.fast_events > 0
        # drained run: lane pops + heap pushes cover all processed events
        assert stats.fast_events + stats.heap_pushes == stats.events

    def test_lanes_shrink_the_heap_high_water(self, workload):
        fast, heap = Simulator(fast_lane=True), Simulator(fast_lane=False)
        workload(fast)
        workload(heap)
        assert fast.stats.heap_high_water <= heap.stats.heap_high_water
        assert heap.stats.heap_high_water > 0

    def test_as_dict_reports_both_modes(self, workload):
        for fast_lane in (True, False):
            sim = Simulator(fast_lane=fast_lane)
            workload(sim)
            d = sim.stats.as_dict()
            assert d["events"] == sim.stats.events
            assert d["fast_events"] == sim.stats.fast_events
            assert d["heap_pushes"] == sim.stats.heap_pushes
            assert d["heap_high_water"] == sim.stats.heap_high_water
            assert d["live_high_water"] == sim.stats.live_high_water
            assert d["peak_rss_kb"] == sim.stats.peak_rss_kb
            assert sim.stats.wall_time >= 0.0

    def test_live_high_water_bounds_the_heap_high_water(self, workload):
        for fast_lane in (True, False):
            sim = Simulator(fast_lane=fast_lane)
            workload(sim)
            stats = sim.stats
            # the live footprint covers the heap plus both lanes, so it
            # can never sit below the heap-only high water
            assert stats.live_high_water >= stats.heap_high_water
            assert stats.live_high_water > 0

    def test_peak_rss_sampled_after_run(self, workload):
        pytest.importorskip("resource")
        sim = Simulator()
        workload(sim)
        # any real process has a nonzero max RSS once run() returned
        assert sim.stats.peak_rss_kb > 0


class PerEnqueueCount:
    """Counts ``heap_pushes`` and both high waters on every enqueue, by
    wrapping ``sim._enqueue`` -- the kernel's former way of counting."""

    def __init__(self, sim):
        self.heap_pushes = self.heap_high_water = self.live_high_water = 0
        enqueue = sim._enqueue

        def counting_enqueue(event, delay, priority):
            enqueue(event, delay, priority)
            heap = len(sim._heap)
            if not (delay == 0.0 and sim._fast_lane):
                self.heap_pushes += 1
                self.heap_high_water = max(self.heap_high_water, heap)
            live = heap + len(sim._fast_urgent) + len(sim._fast_normal)
            self.live_high_water = max(self.live_high_water, live)

        sim._enqueue = counting_enqueue

    def totals(self):
        return (self.heap_pushes, self.heap_high_water,
                self.live_high_water)


@pytest.mark.parametrize("fast_lane", [True, False], ids=["lanes", "heap"])
@pytest.mark.parametrize(
    "workload", [_mixed_workload, _mixed_until, _mixed_steps,
                 _stream_workload],
    ids=["drained", "until-pending", "steps", "stream"])
def test_derived_counters_match_per_enqueue_counting(workload, fast_lane):
    sim = Simulator(fast_lane=fast_lane)
    recount = PerEnqueueCount(sim)
    workload(sim)
    stats = sim.stats
    assert recount.heap_pushes > 0
    assert (stats.heap_pushes, stats.heap_high_water,
            stats.live_high_water) == recount.totals()
