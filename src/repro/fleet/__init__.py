"""Federated multi-cluster fleet layer: many clusters behind one front door.

The paper launches tool daemons through *one* machine's resource manager;
one :class:`~repro.fe.service.ToolService` per cluster is therefore the
reproduction's scaling ceiling. Production traffic from millions of users
means many clusters behind a routing tier. This package is that tier:

* :class:`FleetCluster` -- one member: its own simulated
  :class:`~repro.cluster.Cluster`, resource manager and
  :class:`~repro.fe.service.ToolService`, all sharing the fleet's single
  :class:`~repro.simx.Simulator` timeline;
* :func:`least_loaded` (:mod:`repro.fleet.placement`) -- the one
  placement rule: each incoming session request goes to the least-loaded
  member of the front door's *gossiped* view -- never ground truth --
  avoiding saturated or DEGRADED members while any other remains;
* :mod:`repro.fleet.gossip` -- s_group-style partitioned peering
  (*Scaling Reliably*'s SD Erlang lineage): members exchange versioned
  health/load digests only with their shard neighbors plus one bridge
  link per shard, never all-to-all, yet fleet-wide state converges
  within a bounded number of rounds;
* :class:`FleetFrontDoor` -- the front door: fleet-wide admission
  control, placement, and cross-cluster failover when a member is
  saturated, DEGRADED or crashed -- existing ``fe/service.py`` sessions
  route through it unchanged.

Build a whole fleet with :func:`make_fleet_env`; the ``fleet`` experiment
(:mod:`repro.experiments.fleet`) sweeps clusters x arrival rate over it.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.fleet.health": ("ClusterHealth", "ClusterState", "FleetView"),
    "repro.fleet.placement": ("least_loaded",),
    "repro.fleet.gossip": ("GossipMesh",),
    "repro.fleet.member": ("ClusterUnavailable", "FenceToken", "StaleEpoch"),
    "repro.fleet.chaos": ("ChaosResult", "ChaosScenario", "run_fleet_chaos",
                          "scenario_for_seed"),
    "repro.fleet.frontdoor": ("FleetHandle", "FleetFrontDoor",
                              "FleetUnavailable"),
    "repro.fleet.fleet": ("Fleet", "FleetEnv", "audit_fleet",
                          "make_fleet_env", "make_fleet_member_env"),
})

__all__ = [
    "ChaosResult",
    "ChaosScenario",
    "ClusterHealth",
    "ClusterState",
    "ClusterUnavailable",
    "FenceToken",
    "Fleet",
    "FleetEnv",
    "FleetFrontDoor",
    "FleetHandle",
    "FleetUnavailable",
    "FleetView",
    "GossipMesh",
    "StaleEpoch",
    "audit_fleet",
    "least_loaded",
    "make_fleet_env",
    "make_fleet_member_env",
    "run_fleet_chaos",
    "scenario_for_seed",
]
