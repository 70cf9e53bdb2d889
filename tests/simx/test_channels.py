"""Tests for Store and Channel message-passing primitives."""

import pytest

from repro.simx import Channel, SimulationError, Simulator, Store


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def p(sim):
            yield store.put("x")
            item = yield store.get()
            got.append(item)

        sim.process(p(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(sim):
            item = yield store.get()
            got.append((sim.now, item))

        def putter(sim):
            yield sim.timeout(5)
            yield store.put("late")

        sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert got == [(5.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def p(sim):
            for i in range(4):
                yield store.put(i)
            for _ in range(4):
                item = yield store.get()
                got.append(item)

        sim.process(p(sim))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_getters_served_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        for tag in ("first", "second"):
            sim.process(getter(sim, tag))

        def putter(sim):
            yield sim.timeout(1)
            yield store.put("a")
            yield store.put("b")

        sim.process(putter(sim))
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_bounded_capacity_blocks_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        timeline = []

        def putter(sim):
            yield store.put("a")
            timeline.append(("put-a", sim.now))
            yield store.put("b")  # blocks until a get frees space
            timeline.append(("put-b", sim.now))

        def getter(sim):
            yield sim.timeout(3)
            item = yield store.get()
            timeline.append(("got", item, sim.now))

        sim.process(putter(sim))
        sim.process(getter(sim))
        sim.run()
        assert ("put-a", 0.0) in timeline
        assert ("got", "a", 3.0) in timeline
        assert ("put-b", 3.0) in timeline

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_len_and_items_snapshot(self):
        sim = Simulator()
        store = Store(sim)

        def p(sim):
            yield store.put(1)
            yield store.put(2)

        sim.process(p(sim))
        sim.run()
        assert len(store) == 2
        assert store.items == (1, 2)


class TestChannel:
    def test_zero_latency_delivery(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def p(sim):
            chan.send("hello")
            msg = yield chan.recv()
            got.append((sim.now, msg))

        sim.process(p(sim))
        sim.run()
        assert got == [(0.0, "hello")]

    def test_latency_delays_delivery(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 2.0)
        got = []

        def p(sim):
            chan.send("m")
            msg = yield chan.recv()
            got.append((sim.now, msg))

        sim.process(p(sim))
        sim.run()
        assert got == [(2.0, "m")]

    def test_size_dependent_latency(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: len(m) * 0.1)
        got = []

        def p(sim):
            chan.send(b"abcd")  # 0.4s
            msg = yield chan.recv()
            got.append((round(sim.now, 6), msg))

        sim.process(p(sim))
        sim.run()
        assert got == [(0.4, b"abcd")]

    def test_in_order_delivery_same_latency(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 1.0)
        got = []

        def p(sim):
            chan.send(1)
            chan.send(2)
            chan.send(3)
            for _ in range(3):
                got.append((yield chan.recv()))

        sim.process(p(sim))
        sim.run()
        assert got == [1, 2, 3]

    def test_negative_latency_rejected(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: -1.0)
        with pytest.raises(SimulationError):
            chan.send("x")

    def test_counters(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 0.5)

        def p(sim):
            chan.send("a")
            chan.send("b")
            yield chan.recv()

        sim.process(p(sim))
        sim.run()
        assert chan.sent_count == 2
        assert chan.delivered_count == 2
        assert chan.pending() == 1


class TestDelayedDelivery:
    """The event-level contract of a delayed ``Channel.send``."""

    def test_done_fires_after_the_receivers_get(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 1.5)
        order = []

        def receiver(sim):
            msg = yield chan.recv()
            order.append(("got", msg, sim.now))

        def sender(sim):
            yield chan.send("m")
            order.append(("done", sim.now))

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert order == [("got", "m", 1.5), ("done", 1.5)]

    def test_fifo_under_equal_delays(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 0.25)
        got = []

        def receiver(sim):
            for _ in range(6):
                got.append((yield chan.recv()))

        def sender(sim):
            for i in range(3):
                chan.send(i)
            yield sim.timeout(0.1)
            for i in range(3, 6):
                chan.send(i)

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert got == [0, 1, 2, 3, 4, 5]

    def test_counters_track_flight(self):
        sim = Simulator()
        chan = Channel(sim, latency_fn=lambda m: 1.0)
        chan.send("a")
        chan.send("b")
        assert (chan.sent_count, chan.delivered_count) == (2, 0)
        sim.run(until=0.5)
        assert chan.delivered_count == 0 and chan.pending() == 0
        sim.run()
        assert (chan.sent_count, chan.delivered_count) == (2, 2)
        assert chan.pending() == 2

    def test_unreceived_delayed_message_costs_five_events(self):
        # bootstrap (URGENT, now), latency timeout, store put, ``done``
        # and the completion event: the budget the benchmark suite's
        # pinned event counts rest on
        sim = Simulator()
        trace = []
        sim.trace = lambda when, prio, seq, ev: trace.append((when, prio))
        chan = Channel(sim, latency_fn=lambda m: 2.0)
        done = chan.send("x")
        sim.run()
        assert sim.stats.events == 5
        assert trace == [(0.0, 0), (2.0, 1), (2.0, 1), (2.0, 1), (2.0, 1)]
        assert done.processed and chan.pending() == 1

    def test_zero_delay_costs_one_event(self):
        sim = Simulator()
        chan = Channel(sim)
        chan.send("x")
        sim.run()
        assert sim.stats.events == 1 and chan.pending() == 1
