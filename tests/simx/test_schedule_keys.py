"""Each producer's schedule key, pinned under both kernels.

Every producer of a kernel event -- ``succeed``/``fail``, timeouts,
process bootstrap and exit, interrupts, kills, the conditions, the
``Store`` and the stages of a delayed ``Channel`` message -- schedules
its event itself. This file pins the ``(time, priority)`` each one
fires at, read through ``Simulator.trace``, under the lane kernel and
under the pure-heap kernel. Both kernels share every producer, so the
fast-lane differential spec (``test_fast_lane.py``) cannot tell a
producer that picks the wrong lane or the wrong instant: these pins
can.
"""

import pytest

from repro.simx import Channel, Interrupt, Simulator, Store
from repro.simx.core import NORMAL, URGENT

KERNELS = pytest.mark.parametrize("fast_lane", [True, False],
                                  ids=["lanes", "heap"])

#: the instant every scenario's producer runs at (a clock past zero, so
#: a producer keying its event at the wrong time shows)
T = 1.5


def traced(fast_lane):
    """A simulator whose trace hook keeps every fired (time, prio, seq,
    event); returns (sim, fired)."""
    sim = Simulator(fast_lane=fast_lane)
    fired = []
    sim.trace = lambda when, prio, seq, event: fired.append(
        (when, prio, seq, event))
    return sim, fired


def keys(fired, event):
    """The (time, priority) of each firing of ``event``, in order."""
    return [(when, prio) for when, prio, _, ev in fired if ev is event]


def at_t(sim, body):
    """Run ``body()`` in a process at time ``T``; returns what it
    returned, after the run drained."""
    box = {}

    def proc():
        yield sim.timeout(T)
        box["made"] = body()

    sim.process(proc())
    sim.run()
    return box["made"]


@KERNELS
class TestEventProducers:
    def test_succeed(self, fast_lane):
        sim, fired = traced(fast_lane)
        ev = at_t(sim, lambda: sim.event().succeed("v"))
        assert keys(fired, ev) == [(T, NORMAL)]

    def test_fail(self, fast_lane):
        sim, fired = traced(fast_lane)

        def body():
            ev = sim.event()
            ev.defuse()
            return ev.fail(RuntimeError("boom"))

        ev = at_t(sim, body)
        assert keys(fired, ev) == [(T, NORMAL)]

    def test_zero_delay_timeout(self, fast_lane):
        sim, fired = traced(fast_lane)
        ev = at_t(sim, lambda: sim.timeout(0))
        assert keys(fired, ev) == [(T, NORMAL)]

    def test_zero_delay_timeout_takes_the_lane(self, fast_lane):
        sim = Simulator(fast_lane=fast_lane)
        sim.timeout(0)
        sim.run()
        lane_events = 1 if fast_lane else 0
        assert (sim.stats.fast_events, sim.stats.heap_pushes) == (
            lane_events, 1 - lane_events)

    def test_delayed_timeout(self, fast_lane):
        sim, fired = traced(fast_lane)
        ev = at_t(sim, lambda: sim.timeout(2.0))
        assert keys(fired, ev) == [(T + 2.0, NORMAL)]


@KERNELS
class TestProcessProducers:
    def test_bootstrap_is_urgent(self, fast_lane):
        sim, fired = traced(fast_lane)

        def child():
            yield sim.timeout(1.0)

        boots = []

        def body():
            proc = sim.process(child())
            boots.append(proc._target)  # the bootstrap event
            return proc

        at_t(sim, body)
        assert type(boots[0]).__name__ == "_Initialize"
        assert keys(fired, boots[0]) == [(T, URGENT)]

    def test_normal_exit(self, fast_lane):
        sim, fired = traced(fast_lane)

        def child():
            yield sim.timeout(1.0)
            return "ok"

        proc = at_t(sim, lambda: sim.process(child()))
        assert proc.value == "ok"
        assert keys(fired, proc) == [(T + 1.0, NORMAL)]

    def test_exit_without_a_wait(self, fast_lane):
        sim, fired = traced(fast_lane)

        def child():
            return "at once"
            yield  # pragma: no cover - makes this a generator

        proc = at_t(sim, lambda: sim.process(child()))
        assert keys(fired, proc) == [(T, NORMAL)]

    def test_failing_exit(self, fast_lane):
        sim, fired = traced(fast_lane)

        def child():
            yield sim.timeout(1.0)
            raise ValueError("bad")

        def body():
            proc = sim.process(child())
            proc.defuse()
            return proc

        proc = at_t(sim, body)
        assert isinstance(proc.exception, ValueError)
        assert keys(fired, proc) == [(T + 1.0, NORMAL)]

    def test_interrupt_is_urgent(self, fast_lane):
        sim, fired = traced(fast_lane)
        seen = []

        def victim():
            try:
                yield sim.timeout(10.0)
            except Interrupt as exc:
                seen.append((sim.now, exc.cause))

        made = {}

        def driver():
            proc = sim.process(victim())
            yield sim.timeout(T)
            made["interrupt"] = proc.interrupt("stop")
            made["proc"] = proc

        sim.process(driver())
        sim.run()
        assert seen == [(T, "stop")]
        assert keys(fired, made["interrupt"]) == [(T, URGENT)]
        assert keys(fired, made["proc"]) == [(T, NORMAL)]

    def test_kill(self, fast_lane):
        sim, fired = traced(fast_lane)

        def victim():
            yield sim.timeout(10.0)

        made = {}

        def driver():
            proc = made["proc"] = sim.process(victim())
            yield sim.timeout(T)
            proc.kill()

        sim.process(driver())
        sim.run()
        assert keys(fired, made["proc"]) == [(T, NORMAL)]


@KERNELS
class TestConditionProducers:
    def test_all_of(self, fast_lane):
        sim, fired = traced(fast_lane)
        cond = at_t(sim, lambda: sim.all_of(
            [sim.timeout(1.0), sim.timeout(2.0)]))
        assert keys(fired, cond) == [(T + 2.0, NORMAL)]

    def test_any_of(self, fast_lane):
        sim, fired = traced(fast_lane)
        cond = at_t(sim, lambda: sim.any_of(
            [sim.timeout(1.0), sim.timeout(2.0)]))
        assert keys(fired, cond) == [(T + 1.0, NORMAL)]

    def test_already_satisfied_all_of(self, fast_lane):
        sim, fired = traced(fast_lane)
        cond = at_t(sim, lambda: sim.all_of([]))
        assert keys(fired, cond) == [(T, NORMAL)]


@KERNELS
class TestStoreProducers:
    def test_immediate_put_and_get(self, fast_lane):
        sim, fired = traced(fast_lane)
        store = Store(sim)
        put, get = at_t(sim, lambda: (store.put("x"), store.get()))
        assert get.value == "x"
        assert keys(fired, put) == [(T, NORMAL)]
        assert keys(fired, get) == [(T, NORMAL)]
        # scheduled in call order: the put's acceptance, then the get
        order = [ev for _, _, _, ev in fired if ev is put or ev is get]
        assert order == [put, get]

    def test_put_handed_to_a_waiting_getter(self, fast_lane):
        sim, fired = traced(fast_lane)
        store = Store(sim)
        get = store.get()
        put = at_t(sim, lambda: store.put("x"))
        assert get.value == "x"
        assert keys(fired, put) == [(T, NORMAL)]
        assert keys(fired, get) == [(T, NORMAL)]
        # the put is accepted before the item reaches the getter
        order = [ev for _, _, _, ev in fired if ev is put or ev is get]
        assert order == [put, get]

    def test_blocked_putter_released_by_a_get(self, fast_lane):
        sim, fired = traced(fast_lane)
        store = Store(sim, capacity=1)
        first, blocked = store.put("a"), store.put("b")
        get = at_t(sim, store.get)
        assert get.value == "a" and store.items == ("b",)
        assert keys(fired, first) == [(0.0, NORMAL)]
        assert keys(fired, get) == [(T, NORMAL)]
        assert keys(fired, blocked) == [(T, NORMAL)]
        order = [ev for _, _, _, ev in fired
                 if ev is get or ev is blocked]
        assert order == [get, blocked]


@KERNELS
class TestChannelProducers:
    def test_delayed_message_fires_five_events(self, fast_lane):
        sim, fired = traced(fast_lane)
        chan = Channel(sim, latency_fn=lambda msg: 0.5)
        recv = chan.recv()
        done = at_t(sim, lambda: chan.send("m"))
        assert recv.value == "m"

        def label(ev):
            if ev is done:
                return "done"
            if ev is recv:
                return "recv"
            return type(ev).__name__

        stages = [(when, prio, label(ev)) for when, prio, _, ev in fired
                  if ev is done or ev is recv
                  or type(ev).__name__ == "_Delivery"]
        arrival = T + 0.5
        assert stages == [
            (T, URGENT, "_Delivery"),             # bootstrap
            (arrival, NORMAL, "_Delivery"),       # arrival: delivers
            (arrival, NORMAL, "_Delivery"),       # the put's acceptance
            (arrival, NORMAL, "recv"),            # the waiting receiver
            (arrival, NORMAL, "done"),            # the sender's event
            (arrival, NORMAL, "_Delivery"),       # trailing completion
        ]

    def test_zero_delay_send_is_a_plain_put(self, fast_lane):
        sim, fired = traced(fast_lane)
        chan = Channel(sim)
        done = at_t(sim, lambda: chan.send("m"))
        assert keys(fired, done) == [(T, NORMAL)]
        assert not any(type(ev).__name__ == "_Delivery"
                       for _, _, _, ev in fired)
        assert chan.pending() == 1

