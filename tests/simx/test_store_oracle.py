"""Differential spec: the lazy-queue ``Store`` against the eager design.

``RefStore`` below is the Store as it was before its queues became lazy:
three deques allocated up front and one ``_dispatch`` loop after every
``put`` and ``get``. ``RefChannel`` delivers a delayed message through
the same re-armed event as :class:`repro.simx.Channel`, with the old
arrival stage that appended to the store's item deque and then
dispatched. Hypothesis drives both designs with the same random
programs -- several processes interleaving blocking and non-blocking
puts and gets on unbounded and bounded stores, and zero- and
positive-latency sends -- under both schedulers. The two must fire the
same ``(time, priority, seq)`` trace, hand out the same values and show
the same ``len()`` and ``items`` after every kernel step.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import Channel, Event, SimulationError, Simulator, Store
from repro.simx.core import NORMAL, URGENT


# ---------------------------------------------------------------------------
# the reference: three eager deques and one dispatch loop
# ---------------------------------------------------------------------------

class RefStore:
    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim, capacity=float("inf")):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self._putters = deque()

    def __len__(self):
        return len(self._items)

    @property
    def items(self):
        return tuple(self._items)

    def put(self, item):
        ev = Event(self.sim)
        if len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
            self._dispatch()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self):
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self):
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())
            while self._putters and len(self._items) < self.capacity:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()


class RefChannel:
    def __init__(self, sim, latency_fn):
        self.sim = sim
        self._latency_fn = latency_fn
        self._store = RefStore(sim)

    def send(self, message):
        delay = self._latency_fn(message)
        if delay == 0.0:
            return self._store.put(message)
        done = Event(self.sim)
        _RefDelivery(self, message, delay, done)
        return done

    def recv(self):
        return self._store.get()

    def pending(self):
        return len(self._store)

    @property
    def items(self):
        return self._store.items


class _RefDelivery(Event):
    __slots__ = ("chan", "msg", "delay", "done")

    def __init__(self, chan, msg, delay, done):
        self.sim = sim = chan.sim
        self.callbacks = _REF_START
        self._value = None
        self._exc = None
        self._defused = True
        self.chan = chan
        self.msg = msg
        self.delay = delay
        self.done = done
        sim._enqueue(self, 0.0, URGENT)


def _ref_start(d):
    d.callbacks = _REF_ARRIVE
    d.sim._enqueue(d, d.delay, NORMAL)


def _ref_arrive(d):
    store = d.chan._store
    store._items.append(d.msg)
    d.callbacks = _REF_ACCEPTED
    d.sim._enqueue(d, 0.0, NORMAL)
    store._dispatch()


def _ref_accepted(d):
    d.done.succeed()
    d.callbacks = ()
    d.sim._enqueue(d, 0.0, NORMAL)


_REF_START = (_ref_start,)
_REF_ARRIVE = (_ref_arrive,)
_REF_ACCEPTED = (_ref_accepted,)


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------

INF = float("inf")
LATENCIES = (0.0, 0.0, 0.5, 1.0)

_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("get"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("send"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("recv"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("wait"), st.integers(0, 3), st.just(True)),
)
program_strategy = st.fixed_dictionaries({
    "capacities": st.lists(st.sampled_from((INF, 1, 2, 3)),
                           min_size=1, max_size=3),
    "n_channels": st.integers(1, 2),
    "processes": st.lists(st.lists(_op, max_size=12),
                          min_size=1, max_size=4),
})


#: programs that park 2-4 getters on store 0 or channel 0 before any
#: item arrives -- one process each, or one process's non-blocking gets
#: -- so a lone getter's slot turns into a deque; the rest of the
#: program (puts, sends, more gets) starts a step later
parked_getters_strategy = st.builds(
    lambda capacities, kind, n, one_process, rest: {
        "capacities": capacities, "n_channels": 1,
        "processes": ([[(kind, 0, False)] * n] if one_process
                      else [[(kind, 0, True)] for _ in range(n)])
        + [[("wait", 1, True)] + ops for ops in rest]},
    st.lists(st.sampled_from((INF, 1, 2)), min_size=1, max_size=2),
    st.sampled_from(("get", "recv")),
    st.integers(2, 4),
    st.booleans(),
    st.lists(st.lists(_op, max_size=10), min_size=1, max_size=3),
)


def _latency(message):
    return LATENCIES[message[1] % len(LATENCIES)]


def run_program(program, fast_lane, store_cls, channel_cls):
    """Step one program to completion; return its trace, the values each
    get/recv received and the stores' state after every step."""
    sim = Simulator(fast_lane=fast_lane)
    trace = []
    sim.trace = lambda when, prio, seq, ev: trace.append((when, prio, seq))
    stores = [store_cls(sim, capacity=c) for c in program["capacities"]]
    chans = [channel_cls(sim, _latency)
             for _ in range(program["n_channels"])]
    received = []

    def record(tag):
        return lambda ev: received.append((tag, sim.now, ev.value))

    def proc(pid, ops):
        for step, (kind, arg, block) in enumerate(ops):
            tag = (pid, step)
            if kind == "wait":
                yield sim.timeout(0.25 * arg)
                continue
            if kind == "put":
                ev = stores[arg % len(stores)].put(tag)
            elif kind == "send":
                ev = chans[arg % len(chans)].send((tag, arg))
            else:
                ev = (stores[arg % len(stores)].get() if kind == "get"
                      else chans[arg % len(chans)].recv())
                ev.callbacks.append(record(tag))
            if block:
                yield ev

    for pid, ops in enumerate(program["processes"]):
        sim.process(proc(pid, ops))
    states = []
    while sim.peek() < INF:
        sim.step()
        states.append((
            tuple((len(s), s.items) for s in stores),
            tuple((c.pending(), c.items) for c in chans)))
    return trace, received, states


class TestStoreMatchesEagerReference:
    @given(program_strategy)
    @settings(max_examples=150, deadline=None)
    def test_same_events_values_and_contents(self, program):
        for fast_lane in (True, False):
            lazy = run_program(program, fast_lane, Store, Channel)
            eager = run_program(program, fast_lane, RefStore, RefChannel)
            assert lazy[0] == eager[0]
            assert lazy[1] == eager[1]
            assert lazy[2] == eager[2]

    @given(parked_getters_strategy)
    @settings(max_examples=100, deadline=None)
    def test_several_parked_getters(self, program):
        for fast_lane in (True, False):
            lazy = run_program(program, fast_lane, Store, Channel)
            assert lazy == run_program(program, fast_lane, RefStore,
                                       RefChannel)

    def test_reference_exercises_parked_putters_and_getters(self):
        # a fixed program that parks putters on a full store and a getter
        # on a channel whose message is still in flight, so the oracle
        # never silently compares only the direct hand-off
        program = {"capacities": [1], "n_channels": 1, "processes": [
            [("put", 0, False), ("put", 0, False), ("put", 0, True),
             ("wait", 3, True), ("put", 0, True)],
            [("get", 0, False), ("get", 0, False), ("wait", 2, True),
             ("get", 0, True), ("recv", 0, True), ("recv", 0, True)],
            [("wait", 1, True), ("send", 2, False), ("send", 0, True)],
        ]}
        lazy = run_program(program, True, Store, Channel)
        assert lazy == run_program(program, True, RefStore, RefChannel)
        assert lazy[1] == [
            ((1, 0), 0.0, (0, 0)), ((1, 1), 0.0, (0, 1)),
            ((1, 3), 0.5, (0, 2)), ((1, 4), 0.5, ((2, 2), 0)),
            ((1, 5), 0.75, ((2, 1), 2))]
