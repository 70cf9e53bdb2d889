"""Fleet bench: front-door overhead, failover cost, fleet-scale reach.

The federated fleet layer (``repro/fleet/``) claims three things this
file holds it to:

* **Zero-overhead pass-through.** A single-member fleet must produce the
  *same virtual result* as the direct ``make_env`` path -- identical
  startup totals and identical simulated event counts for the fig6
  LaunchMON point. The front door, gossip mesh, and placement layer may
  cost wall-clock (bounded by ``WRAP_WALL_FACTOR``) but must not perturb
  the simulation by a single event.
* **Failover beats resubmission.** With one cluster crashed mid-stream,
  every arrival still completes (no session is lost), zero node
  allocations leak from any member RM, and the p99 launch latency of the
  faulted run stays within ``FAILOVER_P99_FACTOR`` of the fault-free
  run -- the detour costs a retry, not a meltdown.
* **Reach.** A ``XL_CLUSTERS``-cluster fleet absorbing ``XL_ARRIVALS``
  sessions (crash included) completes within ``XL_WALL_BUDGET`` wall
  seconds on one machine.
* **Partition tolerance is inert until faulted.** A fleet carrying the
  full netfault/fencing machinery but an *empty* fault plan produces a
  door summary identical to one built with no plan at all -- the
  partition-tolerance tier perturbs nothing on the fault-free path.
* **Chaos storms stay cheap and audited.** A batch of seeded partition
  storms (``repro.fleet.chaos``) completes within
  ``CHAOS_WALL_PER_STORM`` wall seconds per storm with every invariant
  audit green: zero double allocations, zero leaks, bounded failover,
  post-heal convergence.

Under pytest the assertions run at quick scale (CI smoke); run the file
directly for plain JSON on stdout (the artifact behind the committed
``BENCH_fleet.json``):

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

``--quick`` downsizes the fleet points and skips the XL reach point.
"""

import json
import sys
import time

import pytest

#: wall-clock factor the single-member fleet wrapping may cost over the
#: direct make_env path (the wrapping adds construction, not simulation;
#: generous because the absolute times are milliseconds)
WRAP_WALL_FACTOR = 3.0
#: p99 launch latency of the faulted run vs the fault-free run -- a
#: failover detour re-places and re-launches one session batch, it must
#: not stall the whole stream
FAILOVER_P99_FACTOR = 5.0
#: wall budget for the XL reach point (seconds)
XL_WALL_BUDGET = 120.0
#: wall budget per seeded chaos storm (seconds) -- each storm is a full
#: 5-member fleet run through a partition schedule plus invariant audit
CHAOS_WALL_PER_STORM = 2.0

XL_CLUSTERS = 32
XL_ARRIVALS = 256
CHAOS_STORMS = 20

#: the fig6 LaunchMON point both env paths are compared at
WRAP_DAEMONS = 64


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def wrap_pair(n_daemons: int = WRAP_DAEMONS) -> dict:
    """Direct vs single-member-fleet fig6 LaunchMON point."""
    from repro.experiments.fig6 import measure_stat_startup
    from repro.fleet import make_fleet_member_env
    from repro.runner import make_env

    out = {"n_daemons": n_daemons}
    for mode, factory in (("direct", make_env),
                          ("fleet", make_fleet_member_env)):
        t0 = time.perf_counter()
        box = measure_stat_startup(n_daemons, "launchmon",
                                   tasks_per_daemon=1, env_factory=factory)
        wall = time.perf_counter() - t0
        out[mode] = {
            "wall_s": wall,
            "virtual_startup_s": box["startup"].total,
            "classes": box["classes"],
            "sim_events": box["sim_events"],
        }
    direct, fleet = out["direct"], out["fleet"]
    out["wall_factor"] = fleet["wall_s"] / max(direct["wall_s"], 1e-9)
    out["virtual_exact"] = (fleet["virtual_startup_s"]
                            == direct["virtual_startup_s"])
    out["events_exact"] = fleet["sim_events"] == direct["sim_events"]
    return out


def failover_pair(n_clusters: int = 8, arrival_rate: float = 8.0,
                  n_arrivals: int = 24) -> dict:
    """The same arrival stream with and without an injected crash."""
    from repro.audit import total
    from repro.experiments.common import percentile
    from repro.experiments.fleet import run_fleet_once

    out = {"n_clusters": n_clusters, "arrival_rate": arrival_rate,
           "n_arrivals": n_arrivals}
    for mode, fault in (("clean", False), ("faulted", True)):
        t0 = time.perf_counter()
        env, handles, info = run_fleet_once(
            n_clusters, arrival_rate, n_arrivals=n_arrivals, fault=fault)
        wall = time.perf_counter() - t0
        summary = env.fleet.door.summary()
        lat = summary["launch_latencies"]
        out[mode] = {
            "wall_s": wall,
            "completed": summary["completed"],
            "failovers": summary["failovers"],
            "p50_latency": percentile(lat, 50) if lat else None,
            "p99_latency": percentile(lat, 99) if lat else None,
            "leaked": total(info["audit"]["violations"], "leaked-nodes"),
            "audit_ok": info["audit"]["ok"],
            "fault_target": info["fault_target"],
        }
    clean, faulted = out["clean"], out["faulted"]
    out["p99_factor"] = (faulted["p99_latency"]
                         / max(clean["p99_latency"], 1e-9))
    return out


def xl_point(n_clusters: int = XL_CLUSTERS,
             n_arrivals: int = XL_ARRIVALS) -> dict:
    """The fleet-scale reach point: many clusters, long stream, crash."""
    from repro.audit import total
    from repro.experiments.fleet import run_fleet_once

    t0 = time.perf_counter()
    env, handles, info = run_fleet_once(
        n_clusters, 32.0, n_arrivals=n_arrivals, nodes_per_cluster=16,
        fault=True)
    wall = time.perf_counter() - t0
    summary = env.fleet.door.summary()
    return {
        "n_clusters": n_clusters,
        "n_arrivals": n_arrivals,
        "wall_s": wall,
        "completed": summary["completed"],
        "failovers": summary["failovers"],
        "served_by": summary["served_by"],
        "leaked": total(info["audit"]["violations"], "leaked-nodes"),
        "sim_events": env.sim.stats.events,
    }


def netfault_inert_pair(n_clusters: int = 4, n_arrivals: int = 12) -> dict:
    """The same arrival stream with no fault plan vs an *empty* plan.

    The empty-plan fleet carries the whole netfault/fencing apparatus
    (injector attached, reconcile pass armed) but schedules no faults;
    its door summary and simulated event count must match the plain
    fleet exactly.
    """
    from repro.apps import make_compute_app
    from repro.be import BackEnd
    from repro.cluster import NetFaultPlan
    from repro.fleet import make_fleet_env
    from repro.rm import DaemonSpec
    from repro.runner import drive
    from repro.simx import SeededRNG

    def daemon(ctx):
        be = BackEnd(ctx)
        yield from be.init()
        yield from be.ready()
        yield from be.finalize()

    def body(fe, session):
        yield fe.cluster.sim.timeout(0.25)
        yield from fe.detach(session, reclaim_job=True)
        return session.id

    def run(plan):
        env = make_fleet_env(n_clusters=n_clusters, nodes_per_cluster=8,
                             shard_size=2, net_fault_plan=plan, seed=7)
        fleet = env.fleet
        app = make_compute_app(n_tasks=8, tasks_per_node=4)
        spec = DaemonSpec("bench_fleet_be", main=daemon, image_mb=1.0)
        rng = SeededRNG(7, "bench:inert")

        def driver():
            for i in range(n_arrivals):
                fleet.submit_launch(app, spec, tool_name=f"user{i:03d}",
                                    body=body)
                yield env.sim.timeout(rng.expovariate(8.0))
            yield from fleet.drain()

        t0 = time.perf_counter()
        drive(env, driver())
        wall = time.perf_counter() - t0
        return fleet.door.summary(), env.sim.stats.events, wall

    plain_summary, plain_events, plain_wall = run(None)
    empty_summary, empty_events, empty_wall = run(NetFaultPlan())
    return {
        "n_clusters": n_clusters,
        "n_arrivals": n_arrivals,
        "plain": {"wall_s": plain_wall, "sim_events": plain_events,
                  "completed": plain_summary["completed"]},
        "empty_plan": {"wall_s": empty_wall, "sim_events": empty_events,
                       "completed": empty_summary["completed"]},
        "summary_identical": plain_summary == empty_summary,
        "events_identical": plain_events == empty_events,
    }


def chaos_batch(n_storms: int = CHAOS_STORMS) -> dict:
    """A batch of seeded partition storms with their invariant audits."""
    from repro.fleet.chaos import run_fleet_chaos, scenario_for_seed

    t0 = time.perf_counter()
    results = [run_fleet_chaos(scenario_for_seed(seed))
               for seed in range(n_storms)]
    wall = time.perf_counter() - t0
    return {
        "n_storms": n_storms,
        "wall_s": wall,
        "wall_per_storm": wall / max(n_storms, 1),
        "all_ok": all(r.ok for r in results),
        "double_allocations": sum(r.double_allocations for r in results),
        "leaked": sum(r.leaked for r in results),
        "unconverged": sum(1 for r in results if not r.converged),
        "abandoned": sum(r.abandoned for r in results),
        "fences_delivered": sum(r.fences_delivered for r in results),
        "breaker_trips": sum(r.breaker_trips for r in results),
        "readmissions": sum(r.readmissions for r in results),
    }


def fleet_bench_payload(quick: bool = False) -> dict:
    payload = {
        "config": {
            "wrap_wall_factor": WRAP_WALL_FACTOR,
            "failover_p99_factor": FAILOVER_P99_FACTOR,
            "xl_wall_budget_s": XL_WALL_BUDGET,
            "wrap_daemons": WRAP_DAEMONS,
            "chaos_wall_per_storm_s": CHAOS_WALL_PER_STORM,
        },
        "wrap": wrap_pair(16 if quick else WRAP_DAEMONS),
        "failover": failover_pair(n_arrivals=12 if quick else 24),
        "netfault_inert": netfault_inert_pair(),
        "chaos": chaos_batch(6 if quick else CHAOS_STORMS),
    }
    if not quick:
        payload["xl"] = xl_point()
    return payload


def check_claims(payload: dict, quick: bool = False) -> None:
    wrap = payload["wrap"]
    # pass-through: virtual result untouched by the fleet wrapping
    assert wrap["virtual_exact"], wrap
    assert wrap["events_exact"], wrap
    assert wrap["fleet"]["classes"] == wrap["direct"]["classes"], wrap
    failover = payload["failover"]
    for mode in ("clean", "faulted"):
        cell = failover[mode]
        assert cell["completed"] == failover["n_arrivals"], (mode, cell)
        assert cell["leaked"] == 0, (mode, cell)
        assert cell["audit_ok"], (mode, cell)
    assert failover["faulted"]["failovers"] > 0, failover
    assert failover["clean"]["failovers"] == 0, failover
    assert failover["p99_factor"] < FAILOVER_P99_FACTOR, failover
    inert = payload["netfault_inert"]
    assert inert["summary_identical"], inert
    assert inert["events_identical"], inert
    chaos = payload["chaos"]
    assert chaos["all_ok"], chaos
    assert chaos["double_allocations"] == 0, chaos
    assert chaos["leaked"] == 0, chaos
    assert chaos["unconverged"] == 0, chaos
    assert chaos["wall_per_storm"] < CHAOS_WALL_PER_STORM, chaos
    if not quick:
        # wall factors only mean anything at full scale (quick points
        # are milliseconds, dominated by interpreter noise)
        assert wrap["wall_factor"] < WRAP_WALL_FACTOR, wrap
        xl = payload["xl"]
        assert xl["wall_s"] < XL_WALL_BUDGET, xl
        assert xl["completed"] == xl["n_arrivals"], xl
        assert xl["leaked"] == 0, xl


# ---------------------------------------------------------------------------
# pytest entry points (CI smoke: assertions at quick scale)
# ---------------------------------------------------------------------------

class TestFleetBench:
    @pytest.fixture(scope="class")
    def payload(self):
        return fleet_bench_payload(quick=True)

    def test_single_member_fleet_is_pass_through(self, payload):
        wrap = payload["wrap"]
        assert wrap["virtual_exact"] and wrap["events_exact"]

    def test_faulted_stream_fails_over_and_completes(self, payload):
        failover = payload["failover"]
        assert failover["faulted"]["failovers"] > 0
        assert (failover["faulted"]["completed"]
                == failover["n_arrivals"])

    def test_no_leaked_allocations_either_way(self, payload):
        failover = payload["failover"]
        assert failover["clean"]["leaked"] == 0
        assert failover["faulted"]["leaked"] == 0

    def test_failover_detour_bounded(self, payload):
        assert payload["failover"]["p99_factor"] < FAILOVER_P99_FACTOR

    def test_netfault_machinery_inert_without_faults(self, payload):
        inert = payload["netfault_inert"]
        assert inert["summary_identical"] and inert["events_identical"]

    def test_chaos_storms_audited_green(self, payload):
        chaos = payload["chaos"]
        assert chaos["all_ok"]
        assert chaos["double_allocations"] == 0
        assert chaos["leaked"] == 0
        assert chaos["unconverged"] == 0


@pytest.mark.benchmark(group="fleet")
def bench_fleet_8x8(benchmark):
    """pytest-benchmark hook: one 8-cluster faulted arrival stream."""
    from repro.experiments.fleet import run_fleet_once

    def point():
        env, handles, info = run_fleet_once(8, 8.0, n_arrivals=24)
        return env.fleet.door.summary()

    summary = benchmark(point)
    benchmark.extra_info["failovers"] = summary["failovers"]


# ---------------------------------------------------------------------------
# plain-JSON mode (CI artifact)
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    payload = fleet_bench_payload(quick=quick)
    check_claims(payload, quick=quick)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
