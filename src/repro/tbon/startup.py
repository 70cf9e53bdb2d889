"""TBON startup paths: ad-hoc rsh vs LaunchMON (the Figure 6 comparison).

``native_startup`` is MRNet's classic mechanism: the front end forks one
rsh client per daemon *sequentially* and keeps each client alive to carry
the daemon's stdio; daemons learn the topology from a single shared file.
Cost is linear in daemon count with the rsh-connection slope, and the whole
scheme dies with :class:`StartupFailure` once the front end's process table
fills -- the paper observed consistent fork failure at 512 daemons.

``launchmon_startup`` brings the back ends up through LaunchMON
(``attachAndSpawn``), piggybacks the topology on the LMONP handshake, and
distributes placement with one LMONP broadcast; only the tree-edge connects
and the TBON's own per-backend stream handshake remain.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Generator, Optional

from repro.be import BackEnd
from repro.cluster import Cluster, Node
from repro.launch import LaunchReport, LaunchRequest, get_strategy
from repro.rm.base import DaemonSpec, RMJob
from repro.tbon.overlay import Overlay, StreamSpec
from repro.tbon.topology import TBONTopology

__all__ = ["StartupFailure", "launchmon_startup", "native_startup",
           "MRNET_PER_BE_HANDSHAKE"]

#: per-backend stream/port setup cost at the front end (calibrated against
#: the paper's 0.77 s MRNet handshake at 256 back ends)
MRNET_PER_BE_HANDSHAKE = 0.003


class StartupFailure(RuntimeError):
    """The startup mechanism collapsed (e.g. fork failure at scale)."""

    def __init__(self, message: str, spawned: int = 0):
        super().__init__(message)
        self.spawned = spawned


def _build_overlay(cluster: Cluster, topology: TBONTopology,
                   placement: dict[int, Node],
                   stream_filter: str) -> Overlay:
    overlay = Overlay(cluster.sim, cluster.network, topology, placement,
                      streams={1: StreamSpec(1, stream_filter)})
    overlay.start_routers()
    return overlay


# ---------------------------------------------------------------------------
# Ad-hoc (MRNet-native) startup
# ---------------------------------------------------------------------------

def native_startup(cluster: Cluster, backend_nodes: list[Node],
                   daemon_executable: str = "mrnet_commnode",
                   image_mb: float = 18.0,
                   topology: Optional[TBONTopology] = None,
                   comm_nodes: Optional[list[Node]] = None,
                   stream_filter: str = "concat",
                   ) -> Generator[Any, Any, tuple[Overlay, LaunchReport]]:
    """Launch and connect a TBON the ad-hoc way (sequential rsh).

    Raises :class:`StartupFailure` if the front end can no longer fork rsh
    clients -- the paper's observed failure mode at 512 daemons.
    """
    sim = cluster.sim
    fe = cluster.front_end
    topo = topology or TBONTopology.one_deep(len(backend_nodes))
    t0 = sim.now

    # placement: comm positions from the comm pool, BEs in node order
    placement: dict[int, Node] = {0: fe}
    comm_pool = list(comm_nodes or [])
    be_iter = iter(backend_nodes)
    for pos in range(1, topo.size):
        if topo.kind[pos] == "comm":
            if not comm_pool:
                raise StartupFailure("no nodes available for comm daemons")
            placement[pos] = comm_pool.pop(0)
        else:
            placement[pos] = next(be_iter)

    # topology distributed through one shared file: write once...
    topo_bytes = json.dumps(topo.to_jsonable()).encode()
    topo_file_mb = len(topo_bytes) / (1024 * 1024)
    yield from cluster.fs.load_image(topo_file_mb)
    t_topo_dist = sim.now - t0

    # ...then sequential rsh spawn of every daemon (clients held open);
    # every daemon re-reads the topology file right after it starts
    # (shared-file contention), which the post-spawn hook charges inside
    # the spawn window exactly as the historical loop did
    def read_topo_file(i, node, proc):
        yield from cluster.fs.load_image(topo_file_mb)

    launch = yield from get_strategy("serial-rsh").launch(LaunchRequest(
        cluster=cluster,
        nodes=[placement[pos] for pos in range(1, topo.size)],
        executable=daemon_executable,
        args_for=lambda i, node: (f"pos={i + 1}",),
        image_mb=image_mb,
        hold_clients=True,
        post_spawn=read_topo_file))
    report = launch.report
    report.mechanism = "mrnet-rsh"
    if report.n_failed:
        raise StartupFailure(
            f"ad-hoc startup failed after {launch.n_spawned} daemons: "
            f"{report.failure}", spawned=launch.n_spawned)
    report.n_daemons = topo.size - 1
    report.t_topo_dist = t_topo_dist

    # daemons connect to their parents (parallel) and FE handshakes streams
    t_conn0 = sim.now

    def connect_one(pos: int):
        parent = topo.parent[pos]
        yield from cluster.network.connect(placement[pos],
                                           placement[parent])

    procs = [sim.process(connect_one(pos), name=f"tbon-conn:{pos}")
             for pos in range(1, topo.size)]
    yield sim.all_of(procs)
    report.t_connect = sim.now - t_conn0

    t_hs0 = sim.now
    n_be = len(topo.backends())  # simlint: allow[agg-leaves] -- mrnet path, never hybrid
    yield sim.timeout(MRNET_PER_BE_HANDSHAKE * n_be)
    report.t_handshake = sim.now - t_hs0

    overlay = _build_overlay(cluster, topo, placement, stream_filter)
    report.total = sim.now - t0
    return overlay, report


# ---------------------------------------------------------------------------
# LaunchMON startup
# ---------------------------------------------------------------------------

def launchmon_startup(fe_api, session, job: RMJob,
                      topology: Optional[TBONTopology] = None,
                      daemon_executable: str = "stat_be",
                      image_mb: float = 18.0,
                      stream_filter: str = "concat",
                      daemon_body: Optional[Callable] = None,
                      aggregate_body: Optional[Callable] = None,
                      ) -> Generator[Any, Any, tuple[Overlay, LaunchReport]]:
    """Launch and connect a TBON through LaunchMON (attachAndSpawn path).

    ``fe_api`` is a :class:`repro.fe.ToolFrontEnd`; ``session`` a fresh
    session. The topology rides the LMONP handshake as piggybacked user
    data; daemon placement is distributed with one LMONP message + ICCL
    broadcast. ``daemon_body(be, ctx, endpoint)`` runs in every daemon after
    the overlay is connected (this is where a tool like STAT does its work).

    Hybrid topologies (ones carrying ``"agg"`` positions -- see
    :meth:`TBONTopology.hybrid_one_deep`) additionally run
    ``aggregate_body(pos, lo, hi, n_contrib, endpoint)`` as one emitter
    process per aggregate subtree, started at the same barrier the daemon
    bodies pass (tree connected): this is where the tool contributes the
    collapsed span's analytic wave payload. Aggregate positions are never
    placed on nodes and never spawn daemons; their launch-phase charges
    are folded in by the caller (see ``LaunchReport.fold_aggregate``).
    """
    cluster = fe_api.cluster
    sim = cluster.sim
    report = LaunchReport("launchmon", n_daemons=0)
    t0 = sim.now

    n_be = len(job.hosts)
    topo = topology or TBONTopology.one_deep(n_be)
    # the RPDTAB hosts place only the *simulated* back ends, so aggregate
    # positions are deliberately absent from this count
    n_be_slots = len(topo.backends())  # simlint: allow[agg-leaves]
    if n_be_slots != n_be:
        raise StartupFailure(
            f"topology has {n_be_slots} BE slots for {n_be} nodes")
    report.n_daemons = topo.size - 1 - len(topo.agg_positions())
    report.n_virtual_daemons = topo.virtual_daemon_count()

    shared: dict[str, Any] = {}

    def overlay_daemon(ctx):
        be = BackEnd(ctx)
        yield from be.init()
        yield from be.ready()
        # master receives placement over LMONP, ICCL-broadcasts it
        if be.am_i_master():
            info = yield from be.recv_usrdata()
        else:
            info = None
        info = yield from be.broadcast(info)
        # every daemon decodes the piggybacked topology and the broadcast
        # placement; the decode costs no virtual time, so daemons of one
        # session share one parsed form instead of each re-parsing the
        # same wire object -- at 64k daemons the per-daemon parses were
        # an O(N^2) wall-clock term that dwarfed the simulation itself
        wire = ctx.usr_data_init["topology"]
        if shared.get("topo_wire") is not wire:
            shared["topo_wire"] = wire
            shared["topo_parsed"] = TBONTopology.from_jsonable(wire)
            shared["be_positions"] = shared["topo_parsed"].backends()  # simlint: allow[agg-leaves] -- daemon-side parse: only simulated daemons exist
        topo_l = shared["topo_parsed"]
        if shared.get("placement_wire") is not info:
            shared["placement_wire"] = info
            shared["placement_names"] = {
                int(k): v for k, v in info["placement"].items()}
        placement_names = shared["placement_names"]
        my_pos = shared["be_positions"][ctx.rank]
        parent_pos = topo_l.parent[my_pos]
        parent_node = cluster.node(placement_names[parent_pos])
        yield from cluster.network.connect(ctx.node, parent_node)
        done = yield from be.gather("connected")
        if be.am_i_master():
            yield from be.send_usrdata({"connected": len(done)})
        if daemon_body is not None:
            endpoint = shared["overlay"].endpoint(my_pos)
            yield from daemon_body(be, ctx, endpoint)
        yield from be.finalize()

    spec = DaemonSpec(daemon_executable, main=overlay_daemon,
                      image_mb=image_mb)
    t_spawn0 = sim.now
    yield from fe_api.attach_and_spawn(
        session, job, spec,
        usr_data={"topology": topo.to_jsonable()})
    report.t_spawn = sim.now - t_spawn0
    # the RM's bulk launch recorded how much of that window was image
    # staging; carve it out so the phases attribute like every other path.
    # The session's own spawn report, not the RM-wide last one: another
    # session's spawn may have finished during this handshake.
    spawn_report = session.launch_report
    report.t_image_stage = spawn_report.t_image_stage
    report.t_spawn = max(0.0, report.t_spawn - spawn_report.t_image_stage)
    report.staging_mode = spawn_report.staging_mode

    # build placement: BE position i <-> i-th host in RPDTAB order; comm
    # positions come from MW daemons (launch_mw_daemons) -- the
    # experiments use the paper's 1-deep topology (no comm daemons).
    placement: dict[int, Node] = {0: cluster.front_end}
    comm_positions = topo.comm_positions()
    mw_runtimes: list = []
    if comm_positions:
        def comm_daemon(ctx):
            yield from _comm_mw_daemon(ctx, mw_runtimes)

        mw_spec = DaemonSpec("mrnet_commnode", main=comm_daemon,
                             image_mb=image_mb)
        yield from fe_api.launch_mw_daemons(
            session, mw_spec, n_nodes=len(comm_positions))
        for pos, d in zip(comm_positions, session.mw_daemons):
            placement[pos] = d.node
    for pos, host in zip(topo.backends(), session.rpdtab.hosts):  # simlint: allow[agg-leaves] -- placement: aggregates occupy no node
        placement[pos] = cluster.node(host)

    overlay = _build_overlay(cluster, topo, placement, stream_filter)
    shared["overlay"] = overlay
    # the session owns the overlay from here on: Session.open_stream()
    # hands out persistent data-plane streams over it. It is also
    # recorded on the *job*: routers and streams are data plane and
    # outlive the session object, so a restarted control plane
    # re-adopting the job (see repro.ctl.restore) can re-reference the
    # live overlay instead of rebuilding -- or worse, respawning -- it.
    session.overlay = overlay
    job.overlay = overlay
    # bind each comm daemon to its overlay position, enabling the MW
    # stream face (stream_open / stream_subscribe taps / stream_state)
    mw_runtimes.sort(key=lambda mw: mw.get_personality())
    for pos, mw in zip(comm_positions, mw_runtimes):
        mw.attach_overlay(overlay.endpoint(pos))
    session.mw_runtimes = mw_runtimes
    job.mw_runtimes = mw_runtimes

    # distribute placement over LMONP; daemons connect; master confirms
    t_conn0 = sim.now
    yield from fe_api.send_usrdata_be(session, {
        "placement": {str(p): n.name for p, n in placement.items()}})
    ack = yield from fe_api.recv_usrdata_be(session)
    if ack.get("connected") != n_be:
        raise StartupFailure(
            f"only {ack.get('connected')} of {n_be} daemons connected")
    report.t_connect = sim.now - t_conn0

    # aggregate emitters join the plane at the same barrier the daemon
    # bodies pass (tree connected); they are pure simulation processes --
    # no node, no placement, no daemon -- contributing the collapsed
    # spans' analytic payloads
    if aggregate_body is not None:
        for pos in topo.agg_positions():
            lo, hi = topo.agg_span(pos)
            sim.process(
                aggregate_body(pos, lo, hi, topo.contrib_weight(pos),
                               overlay.endpoint(pos)),
                name=f"tbon-agg:{pos}")

    t_hs0 = sim.now
    yield sim.timeout(MRNET_PER_BE_HANDSHAKE * n_be)
    report.t_handshake = sim.now - t_hs0

    report.fe_procs_peak = cluster.front_end.max_uid_procs_seen
    report.total = sim.now - t0
    return overlay, report


def _comm_mw_daemon(ctx, registry: list):
    """Comm-node daemon body: init, ready, serve (routing is overlay-level).

    The runtime object is parked in ``registry`` so the startup path can
    bind it to its overlay position once the overlay exists -- that is
    what turns on the MW stream face (``session.mw_runtimes``).
    """
    from repro.mw import Middleware

    mw = Middleware(ctx)
    yield from mw.init()
    yield from mw.ready()
    registry.append(mw)
