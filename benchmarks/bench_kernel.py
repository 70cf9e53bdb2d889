"""Kernel bench: events/sec on zero-delay churn + a 64k-daemon fig6 point.

The simx scheduling hot path claims two things this file holds it to:

* **Fast-lane throughput.** Zero-delay events (``succeed``/``fail``
  storms, process completions, bootstraps) bypass the heap through the
  same-time FIFO lanes. On the churn microbench the fast lane must be at
  least ``SPEEDUP_FLOOR`` (3x) faster than the pure-heap scheduler --
  ``Simulator(fast_lane=False)``, whose two lanes are heap lanes: each
  append pushes the event onto the heap, which is the pre-optimization
  kernel's scheduling algorithm. Both kernels run the same inline
  producers, so the ratio measures the lanes alone. A second series
  measures the storm on top of a deep background heap (the 64k-daemon
  regime, where every bypassed push/pop used to pay O(log heap)).
* **64k-daemon reach.** A 65536-daemon fig6 LaunchMON point -- the
  machine size the paper could only extrapolate to -- must complete
  within ``XL_WALL_BUDGET`` wall seconds (it was unreachable before the
  fast path: the 4096-daemon point alone took ~3 minutes).

An interrupt-detach series tracks the O(1) target-identity detach: total
detach cost must scale ~linearly in the waiter count (the old
``list.remove`` scheme was quadratic across a gate's interrupt storm).

This file holds only the wall-clock gates. The virtual and count claims
live in tier-1: every churn event takes the fast lane
(``tests/simx/test_fast_lane.py``) and the 4096-daemon LaunchMON virtual
total is pinned (``tests/simx/test_aggregate.py``,
``TestHybridVsFull4096``).

Under pytest the wall gates run at quick scale; run the file directly
for plain JSON on stdout (the CI artifact that seeds the BENCH_*
trajectory):

    PYTHONPATH=src python benchmarks/bench_kernel.py [--quick]

``--quick`` downsizes the fig6 point to 4096 daemons (CI smoke).
"""

import json
import sys
import time

import pytest

from repro.simx import Simulator

#: fast lane vs pure-heap scheduler on the churn microbench (ratio floor)
SPEEDUP_FLOOR = 3.0
#: wall-clock budget for the 65536-daemon fig6 LaunchMON point (seconds)
XL_WALL_BUDGET = 600.0
#: wall-clock budget for the --quick (4096-daemon) point
QUICK_WALL_BUDGET = 120.0

CHURN_EVENTS = 300_000
DEEP_HEAP_BACKGROUND = 30_000


# ---------------------------------------------------------------------------
# microbenches
# ---------------------------------------------------------------------------

def churn_stats(fast_lane: bool, n_events: int = CHURN_EVENTS,
                background: int = 0):
    """Drain a storm of ``n_events`` zero-delay events; return SimStats.

    ``background`` schedules that many far-future timers first, so the
    storm runs against a deep heap -- the regime a 64k-daemon launch
    puts the kernel in.
    """
    sim = Simulator(fast_lane=fast_lane)
    for i in range(background):
        sim.timeout(1000.0 + i)
    for _ in range(n_events):
        sim.event().succeed()
    sim.run(until=999.0 if background else None)
    return sim.stats


def interrupt_detach_seconds(n_waiters: int) -> float:
    """Wall seconds to interrupt ``n_waiters`` processes parked on one
    event -- a go-broadcast gate being torn down. O(1) detach
    makes this linear in the waiter count; the historical ``list.remove``
    was quadratic."""
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except BaseException:
            pass

    procs = [sim.process(waiter()) for _ in range(n_waiters)]
    sim.run()  # park every waiter on the gate
    t0 = time.perf_counter()
    for p in procs:
        p.defuse()
        p.interrupt("teardown")
    sim.run()
    return time.perf_counter() - t0


def kernel_series(n_events: int = CHURN_EVENTS) -> dict:
    fast = churn_stats(True, n_events)
    heap = churn_stats(False, n_events)
    deep_fast = churn_stats(True, n_events, DEEP_HEAP_BACKGROUND)
    deep_heap = churn_stats(False, n_events, DEEP_HEAP_BACKGROUND)
    return {
        "n_events": n_events,
        "fast_events_per_sec": fast.events_per_sec(),
        "heap_events_per_sec": heap.events_per_sec(),
        "speedup": heap.wall_time / fast.wall_time,
        "deep_fast_events_per_sec": deep_fast.events_per_sec(),
        "deep_heap_events_per_sec": deep_heap.events_per_sec(),
        "deep_speedup": deep_heap.wall_time / deep_fast.wall_time,
        "deep_heap_high_water": deep_heap.heap_high_water,
        "fast_lane_share": fast.fast_events / max(1, fast.events),
        "interrupt_detach_5k_s": interrupt_detach_seconds(5_000),
        "interrupt_detach_20k_s": interrupt_detach_seconds(20_000),
    }


def fig6_xl_point(n_daemons: int) -> dict:
    """One fig6 LaunchMON point at xl scale, with kernel counters."""
    from repro.experiments.fig6 import measure_stat_startup

    t0 = time.perf_counter()
    box = measure_stat_startup(n_daemons, "launchmon", tasks_per_daemon=1)
    wall = time.perf_counter() - t0
    return {
        "n_daemons": n_daemons,
        "wall_s": wall,
        "virtual_startup_s": box["startup"].total,
    }


def kernel_bench_payload(quick: bool = False) -> dict:
    n = 4096 if quick else 65536
    budget = QUICK_WALL_BUDGET if quick else XL_WALL_BUDGET
    return {
        "config": {
            "speedup_floor": SPEEDUP_FLOOR,
            "xl_daemons": n,
            "xl_wall_budget_s": budget,
        },
        "kernel": kernel_series(),
        "fig6_xl": fig6_xl_point(n),
    }


def check_claims(payload: dict) -> None:
    k = payload["kernel"]
    # the fast lane must beat the pure-heap scheduler by the stated floor
    assert k["speedup"] >= SPEEDUP_FLOOR, k["speedup"]
    # deep-heap regime: still a clear win (the log-heap term is gone)
    assert k["deep_speedup"] >= 2.0, k["deep_speedup"]
    # O(1) detach: 4x the waiters must cost well under the quadratic 16x
    assert (k["interrupt_detach_20k_s"]
            < 10.0 * max(k["interrupt_detach_5k_s"], 1e-9)), k
    # the xl fig6 point fits its wall budget
    xl = payload["fig6_xl"]
    assert xl["wall_s"] < payload["config"]["xl_wall_budget_s"], xl


# ---------------------------------------------------------------------------
# pytest entry points (CI smoke: wall gates at quick scale)
# ---------------------------------------------------------------------------

class TestKernelBench:
    @pytest.fixture(scope="class")
    def payload(self):
        return kernel_bench_payload(quick=True)

    def test_fast_lane_speedup_floor(self, payload):
        assert payload["kernel"]["speedup"] >= SPEEDUP_FLOOR

    def test_deep_heap_speedup(self, payload):
        assert payload["kernel"]["deep_speedup"] >= 2.0

    def test_interrupt_detach_scales_linearly(self, payload):
        k = payload["kernel"]
        assert (k["interrupt_detach_20k_s"]
                < 10.0 * max(k["interrupt_detach_5k_s"], 1e-9))

    def test_quick_fig6_point_within_budget(self, payload):
        assert payload["fig6_xl"]["wall_s"] < QUICK_WALL_BUDGET


# ---------------------------------------------------------------------------
# plain-JSON mode (CI artifact)
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    payload = kernel_bench_payload(quick=quick)
    check_claims(payload)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
