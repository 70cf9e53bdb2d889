"""Fast-lane determinism spec + O(1) interrupt-detach regressions.

The same-time FIFO lanes must be *invisible*: any program run under
``Simulator(fast_lane=True)`` (the default) and under
``Simulator(fast_lane=False)`` (the pure-heap pre-optimization scheduler)
must fire the exact same events in the exact same ``(time, priority,
seq)`` order. The hypothesis spec below generates random DAGs of
timeouts, manually-triggered events, process spawns and interrupts and
compares full firing traces recorded through the ``Simulator.trace``
hook.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import Interrupt, SimulationError, Simulator


def record_trace(sim):
    """Attach a trace hook; returns the list it appends to."""
    trace = []
    sim.trace = lambda when, prio, seq, event: trace.append(
        (when, prio, seq, type(event).__name__))
    return trace


# ---------------------------------------------------------------------------
# the hypothesis determinism spec
# ---------------------------------------------------------------------------

OPS = ("spawn", "succeed", "interrupt", "tick", "gate")

op_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=40)


def _worker(sim, gates, plan):
    """A worker that waits on a mix of gates and timeouts, absorbing
    interrupts (each absorbed interrupt skips to the next wait)."""
    for kind, idx in plan:
        try:
            if kind == "gate":
                yield gates[idx % len(gates)]
            else:
                yield sim.timeout(0.25 * idx)
        except Interrupt:
            continue
    return "done"


def _run_script(script, fast_lane):
    """Execute one generated script; return the full firing trace."""
    sim = Simulator(fast_lane=fast_lane)
    trace = record_trace(sim)
    gates = [sim.event() for _ in range(3)]
    workers = []

    def driver():
        for op, a in script:
            if op == "spawn":
                plan = [("gate", a), ("t", a % 3), ("gate", a + 1)]
                workers.append(
                    sim.process(_worker(sim, gates, plan)))
            elif op == "succeed":
                gate = gates[a % len(gates)]
                if not gate.triggered:
                    gate.succeed(a)
            elif op == "interrupt":
                if workers:
                    w = workers[a % len(workers)]
                    if w.is_alive:
                        w.defuse()
                        w.interrupt(("why", a))
            elif op == "tick":
                yield sim.timeout(0.25 * (a % 3))  # 0 is a valid delay
            elif op == "gate":
                gates.append(sim.event())
        return len(workers)

    sim.process(driver())
    sim.run()
    return trace, sim.stats


class TestDeterminismSpec:
    @given(op_strategy)
    @settings(max_examples=60, deadline=None)
    def test_fast_lane_trace_identical_to_pure_heap(self, script):
        fast_trace, fast_stats = _run_script(script, fast_lane=True)
        heap_trace, heap_stats = _run_script(script, fast_lane=False)
        assert fast_trace == heap_trace
        # same events processed; the fast kernel routed the zero-delay
        # share through the lanes, the pure-heap kernel through the heap
        assert fast_stats.events == heap_stats.events
        assert heap_stats.fast_events == 0

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            ev = sim.event()
            ev.callbacks.append(lambda e, tag=tag: fired.append(tag))
            ev.succeed()
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_urgent_beats_normal_at_same_time(self):
        # a process bootstrap (URGENT) scheduled *after* a zero-delay
        # NORMAL event still fires first -- the heap contract
        sim = Simulator()
        fired = []
        ev = sim.event()
        ev.callbacks.append(lambda e: fired.append("normal"))
        ev.succeed()

        def proc():
            fired.append("bootstrap")
            yield sim.timeout(0)

        sim.process(proc())
        sim.run()
        assert fired == ["bootstrap", "normal"]

    def test_zero_delay_interleaves_with_same_time_heap_entries(self):
        # two timeouts land at t=1; the first one's callback schedules a
        # zero-delay event, which must fire *after* the second timeout
        # (smaller seq) -- exactly the pure-heap order
        sim = Simulator()
        fired = []
        t_a = sim.timeout(1.0)
        t_b = sim.timeout(1.0)

        def on_a(e):
            fired.append("a")
            late = sim.event()
            late.callbacks.append(lambda e: fired.append("late"))
            late.succeed()

        t_a.callbacks.append(on_a)
        t_b.callbacks.append(lambda e: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "late"]


# ---------------------------------------------------------------------------
# kernel stats / trace / scheduling surface
# ---------------------------------------------------------------------------

class TestKernelStats:
    def test_counters_split_fast_and_heap(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.event().succeed()
        sim.run()
        assert sim.stats.events == 2
        assert sim.stats.fast_events == 1
        assert sim.stats.heap_pushes == 1
        assert sim.stats.heap_high_water == 1

    def test_fast_lane_disabled_pushes_everything(self):
        sim = Simulator(fast_lane=False)
        sim.event().succeed()
        sim.run()
        assert sim.stats.fast_events == 0
        assert sim.stats.heap_pushes == 1

    def test_wall_time_accumulates_and_rates(self):
        sim = Simulator()
        for _ in range(100):
            sim.event().succeed()
        sim.run()
        assert sim.stats.wall_time > 0
        assert sim.stats.events_per_sec() > 0
        d = sim.stats.as_dict()
        assert d["events"] == 100 and "events_per_sec" in d

    def test_peek_sees_lane_and_heap(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0
        sim.event().succeed()
        assert sim.peek() == 0.0  # the lane head is due *now*
        sim.step()
        assert sim.peek() == 3.0

    def test_step_drains_lanes_before_future_heap(self):
        sim = Simulator()
        t = sim.timeout(1.0)
        ev = sim.event().succeed()
        sim.step()
        assert ev.processed and not t.processed and sim.now == 0.0
        sim.step()
        assert t.processed and sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_until_drains_due_lane_then_stops(self):
        sim = Simulator()
        fired = []
        sim.event().callbacks.append(lambda e: fired.append("x"))
        ev = sim.event()
        ev.callbacks.append(lambda e: fired.append("now"))
        ev.succeed()
        sim.timeout(5.0).callbacks.append(lambda e: fired.append("later"))
        sim.run(until=1.0)
        assert fired == ["now"] and sim.now == 1.0


# ---------------------------------------------------------------------------
# O(1) interrupt detach (stale wake-ups rejected by target identity)
# ---------------------------------------------------------------------------

def _gate_waiter(gate):
    try:
        value = yield gate
    except Interrupt:
        return "interrupted"
    return value


class TestInterruptTombstone:
    def test_interrupt_does_not_scan_or_shrink_callback_list(self):
        sim = Simulator()
        gate = sim.event()
        procs = [sim.process(_gate_waiter(gate)) for _ in range(100)]
        sim.run()  # park all waiters
        n_subscribed = len(gate.callbacks)
        procs[37].interrupt("one down")
        # detach forgets the target, no list.remove: same list length
        assert len(gate.callbacks) == n_subscribed
        sim.run()
        gate.succeed("go")
        sim.run()
        assert procs[37].value == "interrupted"
        for i, p in enumerate(procs):
            if i != 37:
                assert p.value == "go"

    def test_interrupt_storm_on_shared_gate(self):
        # every waiter of a go-broadcast gate torn down at once; the gate
        # later firing must resume nobody
        sim = Simulator()
        gate = sim.event()
        procs = [sim.process(_gate_waiter(gate)) for _ in range(500)]
        sim.run()
        for p in procs:
            p.interrupt("teardown")
        sim.run()
        assert all(p.value == "interrupted" for p in procs)
        gate.succeed("too late")
        sim.run()  # detached waiters: no resurrection, no crash
        assert all(p.value == "interrupted" for p in procs)

    def test_interrupt_before_bootstrap_detaches_at_delivery(self):
        # interrupt() called in the same instant the process is created,
        # before its bootstrap event fires: the process only subscribes
        # to its first target *after* the interrupt was requested, so the
        # detach must happen at interrupt *delivery* -- otherwise the
        # first target stays subscribed and resumes the process a second
        # time with a stale value
        sim = Simulator()
        gate, second = sim.event(), sim.event()
        out = []

        def body():
            try:
                out.append(("got", (yield gate)))
            except Interrupt:
                out.append("interrupted")
            out.append((yield second))

        proc = sim.process(body())
        proc.interrupt("early")  # before _Initialize has run
        sim.run()
        assert out == ["interrupted"]
        gate.succeed("stale")
        sim.run()  # the old subscription must be stale by now
        assert out == ["interrupted"]
        second.succeed("fresh")
        sim.run()
        assert out == ["interrupted", "fresh"] and proc.triggered

    def test_reuse_after_interrupt_subscribes_fresh_waiter(self):
        # an interrupted process that waits again must get woken by its
        # *new* target, never by the old one
        sim = Simulator()
        first, second = sim.event(), sim.event()
        out = []

        def body():
            try:
                yield first
                out.append("first?!")
            except Interrupt:
                out.append("interrupted")
            value = yield second
            out.append(value)

        proc = sim.process(body())
        sim.run()
        proc.interrupt()
        sim.run()
        first.succeed("stale")
        sim.run()
        assert out == ["interrupted"]  # the stale gate resumed nothing
        second.succeed("fresh")
        sim.run()
        assert out == ["interrupted", "fresh"]
        assert proc.triggered
