"""Fleet-scale study: clusters x arrival rate through the front door.

The paper measures one launch on one machine; the fleet tier asks the
production question instead: with N clusters behind a sharded front
door, what launch latency does an *open-loop* stream of session arrivals
see, and what does a cluster crash cost?

Each grid point drives ``n_arrivals`` Poisson arrivals (rate sessions
per virtual second, seeded per point) into a fresh
:func:`~repro.fleet.make_fleet_env` fleet. Mid-stream, one member -- the
cluster that just got the fault arrival's session -- is crashed whole:
its in-flight sessions die, the front door fails the affected requests
over to surviving clusters, and gossip (shard neighbors only) spreads
the DOWN verdict so later arrivals never contact the corpse.

Reported per point: global p50/p99 launch latency (fleet submit to
session READY, failover detours included), failover and rejection
counts, makespan, and the leak audit. The experiment's built-in checks
(:meth:`~repro.experiments.common.ExperimentResult.check`) hold every
point to **zero leaked node allocations** across every member RM and
require **failover > 0** under the injected fault -- the acceptance
criteria of the fleet tier, machine-readable via ``--json``.

Each row also carries a table-invisible ``per_member`` mapping (member
name -> served / failed attempts / refusals / breaker trips / fences)
so the JSON report shows *where* the failovers and rejections landed,
not just their fleet-wide totals.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.apps import make_compute_app
from repro.audit import total
from repro.be import minimal_daemon
from repro.experiments.common import ExperimentResult, percentile
from repro.experiments.sweep import map_grid
from repro.fleet import FleetEnv, audit_fleet, make_fleet_env
from repro.rm import DaemonSpec
from repro.runner import drive
from repro.simx import SeededRNG

__all__ = ["run_fleet", "run_fleet_once"]

DAEMON_IMAGE_MB = 1.0

#: how long each session's tool body holds its nodes before detaching --
#: the load that makes high arrival rates actually contend
HOLD_TIME = 0.25


def _hold_and_detach(fe, session):
    """Session body: hold the allocation briefly, then detach+reclaim."""
    yield fe.cluster.sim.timeout(HOLD_TIME)
    yield from fe.detach(session, reclaim_job=True)
    return session.id


def run_fleet_once(n_clusters: int, arrival_rate: float,
                   n_arrivals: int = 24,
                   nodes_per_cluster: int = 8,
                   nodes_per_session: int = 2,
                   tasks_per_node: int = 4,
                   policy: str = "least-loaded",
                   shard_size: int = 4,
                   fault: bool = True,
                   fault_arrival: Optional[int] = None,
                   seed: int = 1) -> Tuple[FleetEnv, list, dict]:
    """One open-loop arrival stream against one fleet.

    Returns ``(env, handles, info)`` where ``info`` carries the injected
    fault's target (or None) and the post-drain leak audit.
    """
    env = make_fleet_env(n_clusters=n_clusters,
                         nodes_per_cluster=nodes_per_cluster,
                         policy=policy, shard_size=shard_size, seed=seed)
    fleet = env.fleet
    app = make_compute_app(n_tasks=nodes_per_session * tasks_per_node,
                           tasks_per_node=tasks_per_node)
    spec = DaemonSpec("fleet_tool_be", main=minimal_daemon,
                      image_mb=DAEMON_IMAGE_MB)
    rng = SeededRNG(seed, f"fleetexp:{n_clusters}x{arrival_rate}")
    if fault_arrival is None:
        fault_arrival = n_arrivals // 3
    info = {"fault_target": None, "killed": 0}
    handles = []

    def driver():
        for i in range(n_arrivals):
            handle = fleet.submit_launch(
                app, spec, tool_name=f"user{i:03d}", body=_hold_and_detach)
            handles.append(handle)
            if fault and i == fault_arrival:
                # let the supervisor place this arrival, then kill the
                # cluster that took it -- a crash mid-launch by
                # construction, so the failover path always runs
                yield env.sim.timeout(0.01)
                target = (handle.attempts[0] if handle.attempts
                          else fleet.member_names[0])
                info["fault_target"] = target
                info["killed"] = fleet.crash(target)
            yield env.sim.timeout(rng.expovariate(arrival_rate))
        yield from fleet.drain()

    drive(env, driver())
    info["audit"] = audit_fleet(fleet)
    return env, handles, info


def _fleet_point(n_clusters: int, arrival_rate: float, n_arrivals: int,
                 nodes_per_cluster: int, nodes_per_session: int,
                 tasks_per_node: int, policy: str, shard_size: int,
                 fault: bool) -> dict:
    """One grid point, reduced to row scalars (worker-safe)."""
    env, handles, info = run_fleet_once(
        n_clusters, arrival_rate, n_arrivals=n_arrivals,
        nodes_per_cluster=nodes_per_cluster,
        nodes_per_session=nodes_per_session,
        tasks_per_node=tasks_per_node, policy=policy,
        shard_size=shard_size, fault=fault)
    summary = env.fleet.door.summary()
    latencies = summary["launch_latencies"]
    audit = info["audit"]
    return {
        "clusters": n_clusters,
        "rate": arrival_rate,
        "arrivals": n_arrivals,
        "completed": summary["completed"],
        "cancelled": summary["cancelled"],
        "rejected": summary["rejected"],
        "failovers": summary["failovers"],
        "p50_latency": percentile(latencies, 50) if latencies else None,
        "p99_latency": percentile(latencies, 99) if latencies else None,
        "makespan": max(h.finished_at for h in handles),
        "fault_target": info["fault_target"] or "-",
        "leaked": total(audit["violations"], "leaked-nodes"),
        "audit_ok": audit["ok"],
        # table-invisible, travels through --json: per-member breakdown
        # of served / failed attempts / refusals / breaker trips / fences
        "per_member": summary["per_member"],
    }


def run_fleet(cluster_counts: Sequence[int] = (2, 4, 8),
              arrival_rates: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
              n_arrivals: int = 48,
              nodes_per_cluster: int = 8,
              nodes_per_session: int = 2,
              tasks_per_node: int = 4,
              policy: str = "least-loaded",
              shard_size: int = 4,
              fault: bool = True,
              jobs: int = 1) -> ExperimentResult:
    """Sweep clusters x arrival rate; audit failover and leaks."""
    result = ExperimentResult(
        exp_id="fleet",
        title=f"federated fleet front door: clusters x arrival rate "
              f"({nodes_per_cluster} nodes/cluster, "
              f"{nodes_per_session} nodes/session, policy={policy}, "
              f"{'one cluster crashed mid-stream' if fault else 'no faults'})",
        columns=["clusters", "rate", "arrivals", "completed", "cancelled",
                 "rejected", "failovers", "p50_latency", "p99_latency",
                 "makespan", "fault_target", "leaked", "audit_ok"],
        paper_reference={
            "note": "beyond the paper: one RM per machine is the paper's "
                    "world; this tier federates many of them behind "
                    "s_group-style partitioned gossip (Scaling Reliably) "
                    "and measures the routing tier itself",
        },
    )
    grid = [dict(n_clusters=c, arrival_rate=r, n_arrivals=n_arrivals,
                 nodes_per_cluster=nodes_per_cluster,
                 nodes_per_session=nodes_per_session,
                 tasks_per_node=tasks_per_node, policy=policy,
                 shard_size=shard_size, fault=fault)
            for c in cluster_counts for r in arrival_rates]
    result.rows = map_grid(_fleet_point, grid, jobs=jobs)
    leaked = sum(r["leaked"] for r in result.rows)
    bad_audits = [f"{r['clusters']}x{r['rate']}" for r in result.rows
                  if not r["audit_ok"]]
    result.check("zero-leaked-nodes", leaked == 0,
                 f"{leaked} node allocations still live after drain")
    result.check("clean-fleet-audits", not bad_audits,
                 "points with unfinished sessions/queues: "
                 + ", ".join(bad_audits))
    if fault:
        multi = [r for r in result.rows if r["clusters"] >= 2]
        if multi:
            no_failover = [f"{r['clusters']}x{r['rate']}" for r in multi
                           if r["failovers"] == 0]
            result.check(
                "failover-under-fault", not no_failover,
                "multi-cluster points whose injected crash caused no "
                "failover: " + ", ".join(no_failover))
        survivors = sum(r["completed"] for r in result.rows)
        result.check("service-continuity", survivors > 0,
                     "no session completed anywhere")
    result.notes.append(
        f"failovers total: {sum(r['failovers'] for r in result.rows)}; "
        f"every point audited against each member RM's live-allocation "
        f"ledger (leaked must be 0)")
    return result
