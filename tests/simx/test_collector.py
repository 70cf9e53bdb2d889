"""The kernel and CPython's cyclic collector.

``Simulator.run()`` pauses automatic cyclic collection while it
dispatches (a full pass re-walks the simulation's whole live heap, which
only grows during a run) and restores the caller's setting when it
returns. That is only safe if the garbage a run makes is freed by
reference counting alone, so kernel objects must not form reference
cycles once they have fired: this file pins both halves of the contract.
"""

import gc
import weakref

import pytest

from repro.simx import Channel, Interrupt, Simulator, run_bounded


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on; restore its state after."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


class TestCollectorState:
    def test_run_restores_an_enabled_collector(self, collector_enabled):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        assert gc.isenabled()

    def test_collector_is_paused_inside_callbacks(self, collector_enabled):
        sim = Simulator()
        seen = []
        sim.timeout(1.0).callbacks.append(
            lambda ev: seen.append(gc.isenabled()))
        sim.event().succeed()
        sim.run()
        assert seen == [False]

    def test_run_restores_the_collector_when_a_callback_raises(
            self, collector_enabled):
        sim = Simulator()

        def boom(ev):
            raise RuntimeError("callback failed")

        sim.timeout(1.0).callbacks.append(boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            sim.run()
        assert gc.isenabled()

    def test_run_until_restores_the_collector(self, collector_enabled):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run(until=1.0)
        assert gc.isenabled() and sim.now == 1.0

    def test_run_leaves_a_disabled_collector_disabled(self,
                                                      collector_enabled):
        sim = Simulator()
        sim.timeout(1.0)
        gc.disable()
        sim.run()
        assert not gc.isenabled()

    def test_step_does_not_touch_the_collector(self, collector_enabled):
        sim = Simulator()
        seen = []
        sim.timeout(1.0).callbacks.append(
            lambda ev: seen.append(gc.isenabled()))
        sim.step()
        assert seen == [True] and gc.isenabled()


def _mixed_run(sim, kill=True):
    """Processes, delayed channel sends, interrupts, kill() (unless
    ``kill`` is false), AllOf/AnyOf and run_bounded (both outcomes) in
    one run that drains completely."""
    chan = Channel(sim, latency_fn=lambda msg: 0.25)
    gate = sim.event()
    outcome = {}

    def receiver(n):
        got = []
        for _ in range(n):
            got.append((yield chan.recv()))
        return got

    def sender(n):
        for i in range(n):
            yield chan.send(i)

    def sleeper():
        try:
            yield gate
        except Interrupt:
            yield sim.timeout(0.1)
            return "interrupted"
        return "released"

    def victim():
        yield sim.timeout(100.0)

    def quick():
        yield sim.timeout(0.2)
        return "fast"

    def slow():
        try:
            yield sim.timeout(50.0)
        finally:
            outcome["cleanup"] = True

    def driver():
        recv = sim.process(receiver(4))
        send = sim.process(sender(4))
        sleepers = [sim.process(sleeper()) for _ in range(3)]
        doomed = sim.process(victim())
        early = sim.process(sleeper())
        early.interrupt("before bootstrap")
        yield sim.timeout(1.0)
        sleepers[0].interrupt("wake")
        if kill:
            doomed.kill()
        done = yield sim.all_of([recv, send])
        outcome["received"] = done[recv]
        yield sim.any_of([sim.timeout(0.3), sim.timeout(0.6)])
        won = yield from run_bounded(sim, quick(), timeout=1.0)
        outcome["won"] = won.value
        outcome["lost"] = yield from run_bounded(sim, slow(), timeout=1.0)
        gate.succeed()
        outcome["sleepers"] = []
        for proc in sleepers + [early]:
            outcome["sleepers"].append((yield proc))

    sim.process(driver(), name="driver")
    sim.run()
    return outcome


def test_kernel_garbage_is_acyclic():
    # pay for (and forget) whatever garbage the session already made
    gc.collect()
    gc.garbage.clear()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        sim = Simulator()
        outcome = _mixed_run(sim)
        assert outcome == {
            "received": [0, 1, 2, 3], "won": "fast", "lost": None,
            "cleanup": True,
            "sleepers": ["interrupted", "released", "released",
                         "interrupted"],
        }
        assert sim.peek() == float("inf")
        # with `sim` still alive, everything unreachable now was left
        # behind by reference counting: it sits in a cycle
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(obj).__qualname__ for obj in gc.garbage
                  if type(obj).__module__.startswith("repro.simx")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []


@pytest.mark.parametrize("fast_lane", [True, False], ids=["lanes", "heap"])
def test_a_dropped_simulator_is_freed_by_reference_counting(fast_lane):
    # a killed process's generator is parked on purpose (see
    # Process.kill), so this run kills nothing: then dropping the last
    # reference to the simulator must free every kernel object it made,
    # under either kernel -- the simulator and its lanes hold no cycle
    gc.collect()
    gc.garbage.clear()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        sim = Simulator(fast_lane=fast_lane)
        outcome = _mixed_run(sim, kill=False)
        assert outcome["received"] == [0, 1, 2, 3]
        assert sim.peek() == float("inf")
        dropped = weakref.ref(sim)
        del sim
        freed_by_refcount = dropped() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(obj).__qualname__ for obj in gc.garbage
                  if type(obj).__module__.startswith("repro.simx")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
    assert freed_by_refcount
