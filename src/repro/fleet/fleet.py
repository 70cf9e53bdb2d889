"""Assemble whole fleets: members + gossip mesh + front door, one call.

:func:`make_fleet_env` is the fleet-scale analogue of
:func:`repro.runner.make_service_env`: one :class:`~repro.simx.Simulator`
timeline, N member clusters (each with its own RM and ToolService,
disjoint node namespaces ``c0n000...``), an s_group-partitioned
:class:`~repro.fleet.gossip.GossipMesh`, and a
:class:`~repro.fleet.frontdoor.FleetFrontDoor` routing through a chosen
placement policy. The returned :class:`FleetEnv` is a
:class:`~repro.runner.SimEnv`, so :func:`repro.runner.drive` works on it
unchanged (its ``cluster``/``rm`` are member 0's, which keeps the
stall diagnostics meaningful).

:func:`make_fleet_member_env` is the degenerate case the bit-identity
regression pins: a fleet of **one** member built with exactly
:func:`~repro.runner.make_env`'s cluster spec. None of the fleet wrapping
(service, mesh, front door) schedules events or consumes RNG, so fig6/lmx
driven against the member's cluster/RM are byte-identical to the direct
path -- the fleet layer costs nothing until it is exercised.

:func:`audit_fleet` runs :func:`repro.audit.fleet_violations` after a
drain: every member RM ledger empty and balanced, every session and
request terminal, every fence delivered -- the "zero leaked nodes"
acceptance gate of the fleet experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Type, Union

from repro.audit import fleet_violations
from repro.cluster import (
    ClusterSpec,
    CostModel,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.fe.service import ToolService
from repro.fleet.frontdoor import FleetFrontDoor, FleetHandle
from repro.fleet.gossip import GossipMesh
from repro.fleet.member import FleetCluster
from repro.fleet.placement import PlacementPolicy
from repro.rm import ResourceManager, SlurmRM
from repro.runner import SimEnv
from repro.simx import Simulator

__all__ = ["Fleet", "FleetEnv", "audit_fleet", "make_fleet_env",
           "make_fleet_member_env"]


class Fleet:
    """The assembled federation: members, mesh, front door."""

    def __init__(self, members: Sequence[FleetCluster],
                 door: FleetFrontDoor, mesh: Optional[GossipMesh] = None):
        self.members = tuple(members)
        self.door = door
        self.mesh = mesh
        self.sim: Simulator = door.sim
        self._by_name: Dict[str, FleetCluster] = {
            m.name: m for m in self.members}

    def member(self, name: str) -> FleetCluster:
        return self._by_name[name]

    @property
    def member_names(self) -> tuple:
        return tuple(m.name for m in self.members)

    # -- conveniences that delegate to the front door ------------------------
    def submit_launch(self, *args: Any, **kwargs: Any) -> FleetHandle:
        return self.door.submit_launch(*args, **kwargs)

    def drain(self) -> Generator[Any, Any, list]:
        return self.door.drain()

    def crash(self, name: str) -> int:
        """Crash a member by name (fault injection); returns the number
        of in-flight sessions it took down."""
        return self._by_name[name].crash()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Fleet {len(self.members)} members "
                f"policy={self.door.policy.name}>")


@dataclass
class FleetEnv(SimEnv):
    """A :class:`~repro.runner.SimEnv` whose machine is a whole fleet.

    ``cluster``/``rm`` refer to member 0 so existing single-cluster
    helpers (``drive`` stall hints, direct FE use in the bit-identity
    tests) keep working; fleet traffic goes through ``fleet.door``.
    """

    fleet: Fleet


def make_fleet_env(n_clusters: int = 4, nodes_per_cluster: int = 16,
                   policy: Union[PlacementPolicy, str] = "least-loaded",
                   shard_size: int = 4, suspect_rounds: int = 3,
                   max_in_flight: Optional[int] = None,
                   member_max_in_flight: Optional[int] = None,
                   gossip_period: float = 0.25,
                   rm_cls: Type[ResourceManager] = SlurmRM,
                   seed: int = 1,
                   zones: Optional[Dict[str, str]] = None,
                   costs: Optional[CostModel] = None,
                   net_fault_plan: Optional[NetFaultPlan] = None,
                   max_failovers: Optional[int] = None,
                   breaker_threshold: int = 3,
                   breaker_cooldown: float = 5.0,
                   abandon_after: Optional[float] = None,
                   **rm_kwargs: Any) -> FleetEnv:
    """Build an N-cluster fleet on one simulator.

    Member ``i`` is named ``c{i}`` (zero-padded so lexicographic order is
    numeric order -- shard membership depends on it), seeded ``seed + i``
    so clusters are statistically independent but the whole fleet is a
    pure function of ``seed``. Zones default to one zone per shard
    (``z0``, ``z1``, ...), which makes the locality policy's preference
    coincide with gossip adjacency -- override via ``zones``.

    ``net_fault_plan`` attaches network weather to the gossip mesh (its
    injector is seeded from ``seed``, so a chaos run is a pure function
    of ``(seed, plan)``); the remaining knobs tune the front door's
    partition-tolerance machinery and keep their PR 9-compatible
    defaults when left alone.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    sim = Simulator()
    width = len(str(n_clusters - 1))
    members: List[FleetCluster] = []
    for i in range(n_clusters):
        name = f"c{i:0{width}d}"
        zone = (zones or {}).get(name, f"z{i // shard_size}")
        members.append(FleetCluster.build(
            sim, name, nodes_per_cluster, rm_cls=rm_cls, seed=seed + i,
            zone=zone, max_in_flight=member_max_in_flight, costs=costs,
            **rm_kwargs))
    netfaults = (NetFaultInjector(net_fault_plan, seed=seed)
                 if net_fault_plan is not None else None)
    mesh = GossipMesh(members, shard_size=shard_size,
                      suspect_rounds=suspect_rounds, netfaults=netfaults)
    door = FleetFrontDoor(members, policy=policy, mesh=mesh,
                          max_in_flight=max_in_flight,
                          gossip_period=gossip_period,
                          max_failovers=max_failovers,
                          breaker_threshold=breaker_threshold,
                          breaker_cooldown=breaker_cooldown,
                          abandon_after=abandon_after)
    fleet = Fleet(members, door, mesh)
    return FleetEnv(sim=sim, cluster=members[0].cluster, rm=members[0].rm,
                    fleet=fleet)


def make_fleet_member_env(n_compute: int = 16,
                          rm_cls: Type[ResourceManager] = SlurmRM,
                          spec: Optional[ClusterSpec] = None,
                          costs: Optional[CostModel] = None,
                          seed: int = 1,
                          **rm_kwargs: Any) -> FleetEnv:
    """A single-member fleet whose cluster is specced exactly like
    :func:`repro.runner.make_env`'s (default ``atlas`` naming and all).

    Drop-in ``env_factory`` for the fig6/launch-matrix measurements: the
    member's cluster and RM are constructed with the same spec, seeds and
    ordering as the direct path, and the fleet wrapping schedules no
    events and draws no RNG -- the bit-identity regression holds the two
    outputs byte-equal.
    """
    sim = Simulator()
    cluster_spec = spec or ClusterSpec(n_compute=n_compute, seed=seed)
    member = FleetCluster.build(sim, "c0", n_compute, rm_cls=rm_cls,
                                seed=seed, spec=cluster_spec, costs=costs,
                                **rm_kwargs)
    mesh = GossipMesh([member])
    door = FleetFrontDoor([member], policy="least-loaded", mesh=mesh)
    fleet = Fleet([member], door, mesh)
    return FleetEnv(sim=sim, cluster=member.cluster, rm=member.rm,
                    fleet=fleet)


def audit_fleet(fleet: Fleet) -> dict:
    """The fleet's run-end audit, for a drained fleet: ``violations`` is
    :func:`repro.audit.fleet_violations`, and ``ok`` means it is empty."""
    violations = fleet_violations(fleet)
    return {"ok": not violations, "violations": violations}
