"""Fleet chaos harness: seeded partition x crash x flap schedules, audited.

*Understanding and Detecting Scalability Faults* (PAPERS.md) argues that
scale bugs only surface under scale-dependent fault patterns, and that
the way to trust a recovery design is seeded, reproducible schedules
with machine-checked invariants -- not ad-hoc tests. This module is that
methodology applied to the fleet's partition tolerance, the exact shape
of PR 8's crash-restart harness one tier up:

* :func:`scenario_for_seed` maps a seed to one of five scripted fault
  *variants* (minority split, asymmetric links, flap + message weather,
  partition + member crash, door-in-minority) with seed-varied
  parameters -- every seed is a distinct but reproducible storm;
* :func:`run_fleet_chaos` drives an open-loop arrival stream through the
  storm, heals it, runs the anti-entropy tail, and audits the run
  against the fleet's standing invariants:

  1. **zero double allocation** -- every fenced re-placement bumped the
     epoch first, every abandoned session is terminal, no stale session
     survives its fence, no fence left undelivered;
  2. **zero leaked nodes** -- every member RM ledger empty after drain
     (both checked by :func:`repro.audit.fleet_violations`);
  3. **bounded failover** -- no request exceeded the failover budget
     (flapping links must not drive storms);
  4. **view convergence** -- within ``suspect_rounds + diameter`` rounds
     of heal the gossip views agree and every live member is routable
     again (wrongly-suspected members re-admitted).

The ``fleetchaos`` experiment (:mod:`repro.experiments.fleetchaos`) and
the 200-iteration soak (``tests/fleet/test_chaos_soak.py``) both run on
this harness, exactly like ``ctlrestart`` rides on ``repro.ctl.harness``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.apps import make_compute_app
from repro.audit import Violation, fleet_violations, total
from repro.be import minimal_daemon
from repro.cluster.faults import (
    FlappingLink,
    GossipDelay,
    GossipDup,
    GossipLoss,
    NetFaultPlan,
    NetLinkDown,
    NetPartition,
)
from repro.fleet.fleet import make_fleet_env
from repro.fleet.health import ClusterState
from repro.rm import DaemonSpec
from repro.runner import drive
from repro.simx import SeededRNG

__all__ = ["ChaosResult", "ChaosScenario", "VARIANTS", "run_fleet_chaos",
           "scenario_for_seed"]

#: session body hold time -- long enough that sessions straddle several
#: gossip rounds, so partitions catch them genuinely in flight
HOLD_TIME = 1.0

VARIANTS = ("minority-split", "asym-links", "flap-weather",
            "split-plus-crash", "door-minority")


def _hold_and_detach(fe, session):
    """Session body: hold the allocation, then detach+reclaim."""
    yield fe.cluster.sim.timeout(HOLD_TIME)
    yield from fe.detach(session, reclaim_job=True)
    return session.id


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded chaos run: fleet shape + fault schedule + traffic."""

    seed: int
    variant: str
    plan: NetFaultPlan
    n_clusters: int = 5
    nodes_per_cluster: int = 6
    shard_size: int = 2
    suspect_rounds: int = 2
    gossip_period: float = 0.1
    n_arrivals: int = 10
    arrival_rate: float = 8.0
    nodes_per_session: int = 2
    tasks_per_node: int = 2
    policy: str = "least-loaded"
    max_failovers: int = 4
    breaker_threshold: int = 3
    breaker_cooldown: float = 1.0
    abandon_after: float = 0.2
    #: member crashed after this arrival index (None: no crash)
    crash_after_arrival: Optional[int] = None
    crash_member: str = ""


def scenario_for_seed(seed: int) -> ChaosScenario:
    """Deterministic seed -> scenario mapping (the soak's iteration map).

    The variant rotates with ``seed % 5``; window starts shift with the
    seed so consecutive iterations hit launches in different phases.
    Members are named ``c0..c4`` and the door ``frontdoor`` -- the names
    the plans below partition.
    """
    variant = VARIANTS[seed % len(VARIANTS)]
    start = 1 + (seed // len(VARIANTS)) % 3  # fault onset round 1..3
    heal = start + 6
    crash_after: Optional[int] = None
    crash_member = ""
    if variant == "minority-split":
        # {c0, c1} cut off from the door's majority side
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("c0", "c1"),
                                 ("c2", "c3", "c4", "frontdoor")),
                         at_round=start, heal_round=heal),))
    elif variant == "asym-links":
        # the door can talk *at* c1 but never hears back, and c2 goes
        # silent toward the door entirely -- classic one-way WAN rot
        plan = NetFaultPlan(link_downs=(
            NetLinkDown(src="c1", dst="frontdoor",
                        at_round=start, heal_round=heal),
            NetLinkDown(src="frontdoor", dst="c2",
                        at_round=start, heal_round=heal, symmetric=True),
            NetLinkDown(src="c0", dst="c2",
                        at_round=start, heal_round=heal),))
    elif variant == "flap-weather":
        # a strobing bridge link plus lossy/dup/delayed gossip everywhere
        plan = NetFaultPlan(
            flaps=(FlappingLink(a="frontdoor", b="c0", down_rounds=2,
                                up_rounds=1, at_round=start,
                                heal_round=heal + 2),),
            losses=(GossipLoss(rate=0.2, window=(start, heal + 2)),),
            delays=(GossipDelay(rate=0.2, rounds=2,
                                window=(start, heal + 2)),),
            dups=(GossipDup(rate=0.3, window=(start, heal + 2)),))
    elif variant == "split-plus-crash":
        # a netsplit *and* a real death on the majority side: suspicion
        # must resolve one as transient and the other as permanent
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("c3", "c4"),
                                 ("c0", "c1", "c2", "frontdoor")),
                         at_round=start, heal_round=heal),))
        crash_after = 3
        crash_member = "c1"
    else:  # door-minority
        # the door itself lands on the small side: reject-or-local
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("frontdoor", "c0"),
                                 ("c1", "c2", "c3", "c4")),
                         at_round=start, heal_round=heal),))
    return ChaosScenario(seed=seed, variant=variant, plan=plan,
                         crash_after_arrival=crash_after,
                         crash_member=crash_member)


@dataclass
class ChaosResult:
    """Counters and verdict of one chaos run: ``ok`` iff no violations."""

    scenario: ChaosScenario
    violations: List[Violation] = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    minority_rejections: int = 0
    failovers: int = 0
    max_request_failovers: int = 0
    abandoned: int = 0
    fences_delivered: int = 0
    fenced_kills: int = 0
    stale_completions: int = 0
    breaker_trips: int = 0
    readmissions: int = 0
    rounds_run: int = 0
    converged: bool = False
    leaked: int = 0
    double_allocations: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_fleet_chaos(scenario: ChaosScenario) -> ChaosResult:
    """Run one scenario end to end: storm, heal, anti-entropy, audit."""
    env = make_fleet_env(
        n_clusters=scenario.n_clusters,
        nodes_per_cluster=scenario.nodes_per_cluster,
        policy=scenario.policy, shard_size=scenario.shard_size,
        suspect_rounds=scenario.suspect_rounds,
        gossip_period=scenario.gossip_period, seed=scenario.seed,
        net_fault_plan=scenario.plan,
        max_failovers=scenario.max_failovers,
        breaker_threshold=scenario.breaker_threshold,
        breaker_cooldown=scenario.breaker_cooldown,
        abandon_after=scenario.abandon_after)
    fleet = env.fleet
    mesh = fleet.mesh
    door = fleet.door
    app = make_compute_app(
        n_tasks=scenario.nodes_per_session * scenario.tasks_per_node,
        tasks_per_node=scenario.tasks_per_node)
    spec = DaemonSpec("chaos_tool_be", main=minimal_daemon, image_mb=1.0)
    rng = SeededRNG(scenario.seed, "fleetchaos")
    handles: List[Any] = []

    def driver() -> Generator[Any, Any, None]:
        for i in range(scenario.n_arrivals):
            handle = fleet.submit_launch(app, spec,
                                         tool_name=f"chaos{i:03d}",
                                         body=_hold_and_detach)
            handles.append(handle)
            if (scenario.crash_after_arrival is not None
                    and i == scenario.crash_after_arrival):
                fleet.crash(scenario.crash_member)
            yield env.sim.timeout(rng.expovariate(scenario.arrival_rate))
        yield from fleet.drain()

    drive(env, driver())

    # -- heal + anti-entropy tail: make sure the storm is over, then run
    # exactly the convergence budget the ISSUE's bound promises --------------
    heal_round = mesh.netfaults.last_heal_round if mesh.netfaults else 0
    if mesh.rounds_run < heal_round:
        mesh.run_rounds(heal_round - mesh.rounds_run)
        door.reconcile()
        env.sim.run()
    mesh.run_rounds(mesh.suspect_rounds + mesh.diameter())
    door.reconcile()
    env.sim.run()  # let fence kills unwind and release their nodes

    # -- audits ---------------------------------------------------------------
    result = ChaosResult(scenario=scenario)
    summary = door.summary()
    result.submitted = summary["submitted"]
    result.completed = summary["completed"]
    result.rejected = summary["rejected"]
    result.minority_rejections = summary["minority_rejections"]
    result.failovers = summary["failovers"]
    result.max_request_failovers = max(
        (h.failovers for h in handles), default=0)
    result.abandoned = summary["abandoned"]
    result.breaker_trips = summary["breaker_trips"]
    result.readmissions = summary["readmissions"]
    result.rounds_run = mesh.rounds_run
    result.converged = mesh.state_converged()
    for member in fleet.members:
        result.fences_delivered += member.fence_stats["fences_received"]
        result.fenced_kills += member.fence_stats["fenced_kills"]
        result.stale_completions += member.fence_stats["stale_completions"]

    # 1. zero double allocation and 2. zero leaked nodes (plus queue,
    # free-index and terminal-state hygiene)
    violations = result.violations
    violations += fleet_violations(fleet)
    result.leaked = total(violations, "leaked-nodes")
    result.double_allocations = total(
        violations, "stale-live-sessions", "epoch-fence", "live-abandoned")
    # 3. bounded failover
    if result.max_request_failovers > scenario.max_failovers:
        violations.append(Violation("failover-budget", "",
                                    result.max_request_failovers))
    # 4. post-heal view convergence + re-admission
    if not result.converged:
        violations.append(Violation("unconverged", "", 1))
    for member in fleet.members:
        rec = door.view.get(member.name)
        if not member.crashed and (rec is None
                                   or rec.state is ClusterState.DOWN):
            violations.append(Violation("down-in-view", member.name, 1))
    # conservation: every request reached a terminal account
    unaccounted = result.submitted - (
        summary["completed"] + summary["rejected"] + summary["cancelled"]
        + summary["failed"])
    if unaccounted:
        violations.append(Violation("unaccounted-requests", door.name,
                                    unaccounted))
    return result
