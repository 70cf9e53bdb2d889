"""Tests for the counted FIFO Resource."""

import pytest

from repro.simx import Resource, SimulationError, Simulator


class TestResource:
    def test_grant_within_capacity_is_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        grants = []

        def p(sim, tag):
            yield res.request()
            grants.append((tag, sim.now))

        sim.process(p(sim, "a"))
        sim.process(p(sim, "b"))
        sim.run()
        assert grants == [("a", 0.0), ("b", 0.0)]
        assert res.in_use == 2

    def test_waiter_blocks_until_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder(sim):
            yield res.request()
            yield sim.timeout(5)
            res.release()

        def waiter(sim):
            yield sim.timeout(1)
            yield res.request()
            log.append(sim.now)

        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.run()
        assert log == [5.0]

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder(sim):
            yield res.request()
            yield sim.timeout(1)
            res.release()

        def waiter(sim, tag, releases):
            yield res.request()
            order.append(tag)
            if releases:
                res.release()

        sim.process(holder(sim))
        sim.process(waiter(sim, "w1", True))
        sim.process(waiter(sim, "w2", True))
        sim.process(waiter(sim, "w3", False))
        sim.run()
        assert order == ["w1", "w2", "w3"]

    def test_try_request_nonblocking(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.try_request() is True
        assert res.try_request() is False
        res.release()
        assert res.try_request() is True

    def test_release_idle_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_nan_capacity_rejected(self):
        # NaN passed `capacity < 1`, and then no request was ever granted
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=float("nan"))
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.set_capacity(float("nan"))
        assert res.capacity == 1

    def test_high_water_mark(self):
        sim = Simulator()
        res = Resource(sim, capacity=4)
        for _ in range(3):
            assert res.try_request()
        res.release()
        assert res.max_in_use == 3
        assert res.available == 2

    def test_serialization_makes_total_time_linear(self):
        """N unit-time jobs through capacity-1 resource take N time units --
        the shared-filesystem contention model depends on this."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        finish = []

        def job(sim):
            yield res.request()
            yield sim.timeout(1.0)
            res.release()
            finish.append(sim.now)

        for _ in range(5):
            sim.process(job(sim))
        sim.run()
        assert finish == [1.0, 2.0, 3.0, 4.0, 5.0]
