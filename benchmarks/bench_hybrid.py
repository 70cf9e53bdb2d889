"""Hybrid-tier bench: 64k hybrid vs full simulation, plus the 1M point.

The hybrid analytic/discrete tier (``simx/aggregate.py`` + the tbon /
launch integration) claims three things this file holds it to:

* **Speed.** At 65536 daemons the hybrid fig6 LaunchMON point must be at
  least ``SPEEDUP_FLOOR`` (5x) faster than full simulation -- the whole
  reason the tier exists.
* **Fidelity.** The hybrid virtual startup total must match the full
  simulation within ``VIRTUAL_TOLERANCE`` (the launch model's validated
  error band; measured ~0.1-0.5% at 4k-64k), and class / task counts
  must be exact. The streaming tier must deliver bit-identical wave
  payloads and final filter state.
* **Reach.** The 1,048,576-daemon fig6 and streaming points -- four
  orders past the paper's largest measured machine -- must complete
  within ``XXL_WALL_BUDGET`` wall seconds on one machine.

The fidelity checks here run on the 65536-daemon fig6 pair and the
16384-leaf stream pair that the speed floor needs anyway; the same
checks at 4096 daemons are tier-1 tests (``tests/simx/test_aggregate.py``,
``TestHybridVsFull4096``). Run the file for plain JSON on stdout (the
artifact behind the committed ``BENCH_hybrid.json``):

    PYTHONPATH=src python benchmarks/bench_hybrid.py
"""

import json
import sys
import time

#: hybrid fig6 must beat full simulation by this wall-clock factor at 64k
SPEEDUP_FLOOR = 5.0
#: hybrid-vs-full virtual-total tolerance (the model's error band is
#: ~0.1-0.5% at 4k-64k; 5% leaves headroom without hiding regressions)
VIRTUAL_TOLERANCE = 0.05
#: stream throughput hybrid-vs-full tolerance (payloads are bit-exact;
#: only the model-derived wave timing carries error)
THROUGHPUT_TOLERANCE = 0.05
#: wall budget for each 1,048,576-daemon hybrid point (seconds)
XXL_WALL_BUDGET = 600.0

#: the hybrid-vs-full comparison points (fig6 daemons, stream leaves)
COMPARISON_DAEMONS = 65_536
COMPARISON_LEAVES = 16_384
XXL_DAEMONS = 1_048_576


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def fig6_pair(n_daemons: int) -> dict:
    """Full vs hybrid fig6 LaunchMON points at one scale."""
    from repro.experiments.fig6 import measure_stat_startup

    out = {"n_daemons": n_daemons}
    for mode, hybrid in (("full", False), ("hybrid", True)):
        t0 = time.perf_counter()
        box = measure_stat_startup(n_daemons, "launchmon",
                                   tasks_per_daemon=1, hybrid=hybrid)
        wall = time.perf_counter() - t0
        out[mode] = {
            "wall_s": wall,
            "virtual_startup_s": box["startup"].total,
            "classes": box["classes"],
            "n_tasks": box["n_tasks"],
            "sim_events": box["sim_events"],
        }
    full, hyb = out["full"], out["hybrid"]
    out["speedup"] = full["wall_s"] / max(hyb["wall_s"], 1e-9)
    out["virtual_err"] = (abs(hyb["virtual_startup_s"]
                              - full["virtual_startup_s"])
                          / full["virtual_startup_s"])
    return out


def stream_pair(n_leaves: int, n_waves: int = 10) -> dict:
    """Full vs hybrid streaming points at one scale."""
    from repro.experiments.streaming import measure_stream

    out = {"n_leaves": n_leaves, "n_waves": n_waves}
    cells = {}
    for mode, hybrid in (("full", False), ("hybrid", True)):
        t0 = time.perf_counter()
        cell = measure_stream(n_leaves, filter_name="histogram", window=8,
                              credit_limit=4, n_waves=n_waves,
                              hybrid=hybrid)
        wall = time.perf_counter() - t0
        cells[mode] = cell
        out[mode] = {
            "wall_s": wall,
            "throughput": cell["throughput"],
            "delivered": cell["delivered"],
            "sim_events": cell["sim_events"],
        }
    full, hyb = cells["full"], cells["hybrid"]
    out["speedup"] = out["full"]["wall_s"] / max(out["hybrid"]["wall_s"],
                                                 1e-9)
    out["throughput_err"] = (abs(hyb["throughput"] - full["throughput"])
                             / full["throughput"])
    out["waves_exact"] = hyb["waves"] == full["waves"]
    out["state_exact"] = hyb["final_state"] == full["final_state"]
    return out


def xxl_point(n_daemons: int = XXL_DAEMONS) -> dict:
    """The 1M-daemon hybrid points (fig6 + one stream cell)."""
    from repro.experiments.fig6 import measure_stat_startup
    from repro.experiments.streaming import measure_stream

    t0 = time.perf_counter()
    box = measure_stat_startup(n_daemons, "launchmon", tasks_per_daemon=1,
                               hybrid=True)
    fig6_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    cell = measure_stream(n_daemons, filter_name="histogram", window=8,
                          credit_limit=4, n_waves=10, hybrid=True)
    str_wall = time.perf_counter() - t0
    return {
        "n_daemons": n_daemons,
        "fig6": {"wall_s": fig6_wall,
                 "virtual_startup_s": box["startup"].total,
                 "sim_events": box["sim_events"]},
        "str": {"wall_s": str_wall,
                "throughput": cell["throughput"],
                "delivered": cell["delivered"],
                "sim_events": cell["sim_events"]},
    }


def hybrid_bench_payload() -> dict:
    return {
        "config": {
            "speedup_floor": SPEEDUP_FLOOR,
            "virtual_tolerance": VIRTUAL_TOLERANCE,
            "throughput_tolerance": THROUGHPUT_TOLERANCE,
            "comparison_daemons": COMPARISON_DAEMONS,
            "xxl_wall_budget_s": XXL_WALL_BUDGET,
        },
        "fig6": fig6_pair(COMPARISON_DAEMONS),
        "str": stream_pair(COMPARISON_LEAVES),
        "xxl": xxl_point(),
    }


def check_claims(payload: dict) -> None:
    fig6 = payload["fig6"]
    # fidelity: virtual totals inside the model band, counts exact
    assert fig6["virtual_err"] < VIRTUAL_TOLERANCE, fig6["virtual_err"]
    assert fig6["hybrid"]["classes"] == fig6["full"]["classes"], fig6
    assert fig6["hybrid"]["n_tasks"] == fig6["full"]["n_tasks"], fig6
    stream = payload["str"]
    assert stream["waves_exact"] and stream["state_exact"], stream
    assert stream["throughput_err"] < THROUGHPUT_TOLERANCE, \
        stream["throughput_err"]
    assert stream["hybrid"]["delivered"] == stream["full"]["delivered"]
    # speed: the 64k hybrid point must clear the 5x floor
    assert fig6["speedup"] >= SPEEDUP_FLOOR, fig6["speedup"]
    # reach: both 1M points inside the wall budget
    xxl = payload["xxl"]
    assert xxl["fig6"]["wall_s"] < XXL_WALL_BUDGET, xxl
    assert xxl["str"]["wall_s"] < XXL_WALL_BUDGET, xxl


# ---------------------------------------------------------------------------
# plain-JSON mode (the BENCH_hybrid.json artifact)
# ---------------------------------------------------------------------------

def main() -> int:
    payload = hybrid_bench_payload()
    check_claims(payload)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
