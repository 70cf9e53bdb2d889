"""The STAT tool: sampling daemons, TBON reduction, equivalence classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.cluster import Cluster
from repro.fe import ToolFrontEnd
from repro.mpir import RPDTAB
from repro.perfmodel import LaunchModel
from repro.rm.base import ResourceManager, RMJob
from repro.rm.slurm import SlurmConfig
from repro.tbon import (
    MRNET_PER_BE_HANDSHAKE,
    RankRuns,
    StartupFailure,
    StartupReport,
    TBONTopology,
    launchmon_startup,
    native_startup,
)
from repro.tools.stat_tool.prefix_tree import PrefixTree

__all__ = ["StatResult", "run_stat_launchmon", "run_stat_mrnet_native",
           "HANG_BULK_STACK"]

#: STAT daemon + MRNet library package: a heavyweight image whose
#: shared-filesystem distribution dominates large launches
STAT_IMAGE_MB = 15.0

#: per-frame sampling cost (stack walk of one frame via the debugger iface)
SAMPLE_PER_FRAME = 0.00012

#: fixed STAT front-end bootstrap: loading the MRNet/STAT front-end
#: libraries and building the tree specification before any launch
STAT_FE_INIT = 0.3

#: the stack every non-special rank of the hang scenario sits in
#: (:func:`repro.apps.make_hang_app`'s bulk); hybrid aggregate spans are
#: homogeneous by construction, so this is the collapsed leaves' sample
HANG_BULK_STACK = ("_start", "main", "do_work", "MPI_Barrier")


@dataclass
class StatResult:
    """Merged tree + equivalence classes + startup timing."""

    tree: PrefixTree
    #: ``PrefixTree.equivalence_classes()``: (call path, ranks) pairs,
    #: largest class first; the ranks compare equal to a ``frozenset``
    classes: list[tuple[tuple[str, ...], RankRuns]] = field(
        default_factory=list)
    startup: Optional[StartupReport] = None
    t_total: float = 0.0
    n_tasks: int = 0


def _sample_local_tasks(ctx, entries) -> Generator[Any, Any, PrefixTree]:
    """Walk each local task's stack and build the local prefix tree."""
    tree = PrefixTree()
    for entry in entries:
        proc = ctx.node.procs.get(entry.pid)
        if proc is None:
            continue
        stack = list(proc.call_stack)
        yield ctx.sim.timeout(SAMPLE_PER_FRAME * max(1, len(stack)))
        tree.insert(stack, entry.rank)
    return tree


def run_stat_launchmon(cluster: Cluster, rm: ResourceManager, job: RMJob,
                       topology: Optional[TBONTopology] = None,
                       plan=None, bulk_stack: tuple = HANG_BULK_STACK,
                       ) -> Generator[Any, Any, StatResult]:
    """STAT with LaunchMON startup (Figure 6's fast curve).

    LaunchMON identifies the application tasks through the RM's RPDTAB,
    co-locates the stack-sampling daemons, and broadcasts the MRNet tree
    info over LMONP instead of command lines or a shared file.

    Hybrid tier: pass an :class:`~repro.simx.aggregate.AggregationPlan`
    whose exact region matches the job's daemons. The tree is then built
    with :meth:`TBONTopology.hybrid_one_deep`; every aggregate subtree
    contributes the collapsed span's sample wave (all its ranks on
    ``bulk_stack`` -- special ranks must be in the exact region, which
    :func:`repro.simx.aggregate.auto_expand` guarantees) and its launch
    phases are folded from the validated :class:`LaunchModel` terms, so
    the merged tree and class counts are *exact* while the phase totals
    carry the model's error band.
    """
    sim = cluster.sim
    t0 = sim.now
    if plan is not None:
        if topology is not None:
            raise ValueError("pass either a topology or a plan, not both")
        topology = TBONTopology.hybrid_one_deep(plan)
    fe = ToolFrontEnd(cluster, rm, "STAT")
    yield sim.timeout(STAT_FE_INIT)
    yield from fe.init()
    session = fe.create_session()

    hosts: dict[str, None] = {}
    for t in job.tasks:
        hosts.setdefault(t.host)
    tasks_per_daemon = len(job.tasks) // max(1, len(hosts))

    def stat_daemon_body(be, ctx, endpoint):
        tree = yield from _sample_local_tasks(ctx, be.get_my_proctab())
        yield from endpoint.send_wave(stream_id=1, wave=0,
                                      payload=tree.to_dict())

    def stat_aggregate_body(pos, lo, hi, n_contrib, endpoint):
        # the collapsed daemons sample their local tasks in parallel, so
        # the span is ready after ONE daemon's stack walks
        yield sim.timeout(SAMPLE_PER_FRAME * max(1, len(bulk_stack))
                          * tasks_per_daemon)
        # the span's merged prefix tree in closed form: every covered
        # rank sits on the homogeneous bulk stack, so each path node
        # carries the same single run (one shared list)
        runs = [lo * tasks_per_daemon, hi * tasks_per_daemon]
        node: dict = {"r": runs, "c": {}}
        for frame in reversed(bulk_stack):
            node = {"r": runs, "c": {frame: node}}
        yield from endpoint.send_wave(
            stream_id=1, wave=0,
            payload={"tree": node, "n": (hi - lo) * tasks_per_daemon})

    overlay, report = yield from launchmon_startup(
        fe, session, job, topology=topology,
        daemon_executable="stat_be", image_mb=STAT_IMAGE_MB,
        stream_filter="prefix_tree_merge",
        daemon_body=stat_daemon_body,
        aggregate_body=stat_aggregate_body)
    # the FE bootstrap is on this path's critical path (in the native path
    # it overlaps the long sequential spawn loop)
    report.total += STAT_FE_INIT

    # hybrid: fold each aggregate subtree's launch phases from the model
    # terms, with a cumulative base so the deltas telescope to
    # phases(n_virtual) - phases(n_simulated)
    topo = overlay.topology
    agg_positions = topo.agg_positions()
    if agg_positions:
        model = LaunchModel(
            costs=cluster.network.costs,
            slurm=getattr(rm, "config", None) or SlurmConfig(),
            staging=report.staging_mode)
        base = len(topo.backends())  # simlint: allow[agg-leaves]
        for pos in agg_positions:
            lo, hi = topo.agg_span(pos)
            phases = model.subtree_launch_phases(
                base, hi - lo, tasks_per_daemon=tasks_per_daemon,
                daemon_image_mb=STAT_IMAGE_MB,
                per_be_handshake=MRNET_PER_BE_HANDSHAKE, mode="attach")
            report.fold_aggregate(f"agg@{pos}[{lo}:{hi})", phases)
            base += hi - lo

    root = overlay.endpoint(0)
    pkt = yield from root.collect_wave()
    tree = PrefixTree.from_dict(pkt.payload)
    yield from fe.detach(session)
    folded = sum(sum(ph.values()) for _, ph in report.aggregate_accounts)
    return StatResult(
        tree=tree,
        classes=tree.equivalence_classes(),
        startup=report,
        t_total=sim.now - t0 + folded,
        n_tasks=(topo.virtual_leaf_count() * tasks_per_daemon
                 if agg_positions else len(session.rpdtab)),
    )


def run_stat_mrnet_native(cluster: Cluster, rm: ResourceManager, job: RMJob,
                          topology: Optional[TBONTopology] = None,
                          ) -> Generator[Any, Any, StatResult]:
    """STAT with MRNet's native startup (Figure 6's ad-hoc curve).

    The user manually identifies the application partition; the front end
    rsh-es every daemon sequentially; the topology travels through a shared
    file. Raises :class:`~repro.tbon.StartupFailure` when the front end can
    no longer fork rsh clients.
    """
    sim = cluster.sim
    t0 = sim.now

    # manual partition identification: read the job's node list by hand
    hosts: dict[str, None] = {}
    for t in job.tasks:
        hosts.setdefault(t.host)
    backend_nodes = [cluster.node(h) for h in hosts]

    overlay, report = yield from native_startup(
        cluster, backend_nodes, daemon_executable="stat_be",
        image_mb=STAT_IMAGE_MB, topology=topology,
        stream_filter="prefix_tree_merge")

    # without LaunchMON there is no RPDTAB service: daemons find local
    # tasks by scanning the node process table for the app executable
    app_exe = job.app.executable
    topo = overlay.topology
    # pids are only node-unique: key the rank map by (host, pid)
    rank_of = {(t.host, t.pid): t.memory.get("_rank", -1)
               for t in job.tasks}

    def native_daemon_body(pos: int, node):
        tree = PrefixTree()
        local = node.processes_of(app_exe)
        for proc in local:
            stack = list(proc.call_stack)
            yield sim.timeout(SAMPLE_PER_FRAME * max(1, len(stack)))
            tree.insert(stack, rank_of.get((proc.host, proc.pid), -1))
        ep = overlay.endpoint(pos)
        yield from ep.send_wave(stream_id=1, wave=0, payload=tree.to_dict())

    for pos in topo.backends():  # simlint: allow[agg-leaves] -- daemon bodies spawn per simulated BE; agg spans fold analytically
        sim.process(native_daemon_body(pos, overlay.placement[pos]),
                    name=f"stat-native:{pos}")

    root = overlay.endpoint(0)
    pkt = yield from root.collect_wave()
    tree = PrefixTree.from_dict(pkt.payload)
    return StatResult(
        tree=tree,
        classes=tree.equivalence_classes(),
        startup=report,
        t_total=sim.now - t0,
        n_tasks=len(job.tasks),
    )
