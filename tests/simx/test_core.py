"""Unit tests for the DES kernel: events, processes, conditions, clock."""

import pytest

from repro.simx import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(2.5)

        sim.process(p(sim))
        sim.run()
        assert sim.now == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        seen = []

        def p(sim):
            yield sim.timeout(1.0)
            seen.append(sim.now)
            yield sim.timeout(0.5)
            seen.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert seen == [1.0, 1.5]

    def test_fifty_chains_of_100_hops(self):
        sim = Simulator()

        def chain(sim, hops):
            for _ in range(hops):
                yield sim.timeout(0.001)

        for _ in range(50):
            sim.process(chain(sim, 100))
        sim.run()
        assert sim.now == pytest.approx(0.1)

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(10.0)

        sim.process(p(sim))
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()  # drain the rest
        assert sim.now == 10.0

    def test_run_until_past_raises(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(5.0)

        sim.process(p(sim))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_timeout_rejected_and_the_clock_never_runs_back(self):
        # a NaN key in the heap broke its order: 3.0, NaN, 1.0, 2.0, 0.5
        # fired at 1.0, 0.5, 2.0, NaN, 3.0
        sim = Simulator()
        fired = []
        for delay in (3.0, float("nan"), 1.0, 2.0, 0.5):
            try:
                ev = sim.timeout(delay)
            except SimulationError:
                fired.append("rejected")
                continue
            ev.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == ["rejected", 0.5, 1.0, 2.0, 3.0]

    def test_infinite_timeout_stays_legal(self):
        sim = Simulator()
        sim.timeout(float("inf"))
        sim.run(until=5.0)
        assert sim.now == 5.0 and sim.peek() == float("inf")

    def test_run_until_nan_raises(self):
        sim = Simulator()
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.now == 0.0 and sim.peek() == 1.0

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_peek_empty_is_inf(self):
        assert Simulator().peek() == float("inf")

    def test_step_on_empty_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestEvent:
    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        results = []

        def p(sim, ev):
            value = yield ev
            results.append(value)

        sim.process(p(sim, ev))
        ev.succeed("payload")
        sim.run()
        assert results == ["payload"]

    def test_double_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_propagates_into_waiter(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def p(sim, ev):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(p(sim, ev))
        ev.fail(ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_raises_at_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            sim.run()

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_yield_already_processed_event_continues(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        assert ev.processed
        got = []

        def p(sim, ev):
            v = yield ev  # already processed: must not deadlock
            got.append(v)

        sim.process(p(sim, ev))
        sim.run()
        assert got == [7]


class TestProcess:
    def test_process_value_is_return(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)
            return 42

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == 42

    def test_process_is_waitable_event(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(2)
            return "done"

        def parent(sim):
            result = yield sim.process(child(sim))
            return ("parent saw", result)

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == ("parent saw", "done")

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1)
            raise KeyError("inner")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except KeyError:
                return "caught"

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "caught"

    def test_unobserved_process_exception_surfaces(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)
            raise RuntimeError("unobserved")

        sim.process(p(sim))
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def p(sim):
            yield 42

        sim.process(p(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        proc = sim.process(sleeper(sim))

        def interrupter(sim, proc):
            yield sim.timeout(1)
            proc.interrupt("wakeup")

        sim.process(interrupter(sim, proc))
        sim.run()
        assert log == [(1.0, "wakeup")]

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)

        proc = sim.process(p(sim))
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_is_alive_transitions(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)

        proc = sim.process(p(sim))
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def maker(tag):
            def p(sim):
                yield sim.timeout(1.0)
                order.append(tag)
            return p

        for tag in ("a", "b", "c", "d"):
            sim.process(maker(tag)(sim))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_two_identical_runs_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def p(sim, k):
                for i in range(3):
                    yield sim.timeout(0.1 * k)
                    trace.append((round(sim.now, 6), k, i))

            for k in (1, 2, 3):
                sim.process(p(sim, k))
            sim.run()
            return trace

        assert build() == build()


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        done = []

        def p(sim):
            t1, t2 = sim.timeout(1), sim.timeout(3)
            yield sim.all_of([t1, t2])
            done.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert done == [3.0]

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        done = []

        def p(sim):
            yield sim.any_of([sim.timeout(5), sim.timeout(2)])
            done.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert done == [2.0]

    def test_all_of_empty_triggers_immediately(self):
        sim = Simulator()
        done = []

        def p(sim):
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(p(sim))
        sim.run()
        assert done == [0.0]

    def test_all_of_collects_values(self):
        sim = Simulator()
        out = {}

        def p(sim):
            t1 = sim.timeout(1, value="one")
            t2 = sim.timeout(2, value="two")
            result = yield sim.all_of([t1, t2])
            out.update({"vals": sorted(str(v) for v in result.values())})

        sim.process(p(sim))
        sim.run()
        assert out["vals"] == ["one", "two"]

    def test_all_of_over_processes(self):
        sim = Simulator()

        def worker(sim, d):
            yield sim.timeout(d)
            return d

        def coordinator(sim):
            procs = [sim.process(worker(sim, d)) for d in (3, 1, 2)]
            yield sim.all_of(procs)
            return [p.value for p in procs]

        proc = sim.process(coordinator(sim))
        sim.run()
        assert proc.value == [3, 1, 2]
        assert sim.now == 3.0
