"""Closed-form prediction of launchAndSpawn/attachAndSpawn components
and of the streaming data plane's per-wave behaviour."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import STAGING_MODES, StagingError
from repro.cluster.costs import CostModel
from repro.engine.timeline import ComponentTimes
from repro.rm.slurm import SlurmConfig
from repro.tbon.packets import Packet

__all__ = ["LaunchModel", "ModelInputs", "StreamModel"]


@dataclass(frozen=True)
class ModelInputs:
    """Workload parameters for one prediction."""

    n_daemons: int
    tasks_per_daemon: int = 8
    mode: str = "launch"  # "launch" | "attach"
    daemon_image_mb: float = 1.0
    app_image_mb: float = 4.0

    @property
    def n_tasks(self) -> int:
        return self.n_daemons * self.tasks_per_daemon


class LaunchModel:
    """The Section 4 analytic model, parameterized by the same constants
    that drive the simulation (so disagreement indicates a modeling error,
    not a calibration gap)."""

    def __init__(self, costs: CostModel | None = None,
                 slurm: SlurmConfig | None = None, fs_servers: int = 1,
                 staging: str = "shared-fs"):
        self.costs = costs or CostModel()
        self.slurm = slurm or SlurmConfig()
        self.fs_servers = max(1, fs_servers)
        if staging not in STAGING_MODES:
            raise StagingError(
                f"unknown staging mode {staging!r}; one of {STAGING_MODES}")
        #: the storage layer's staging mode the prediction assumes
        self.staging = staging

    # -- helpers ------------------------------------------------------------
    def _tree_depth(self, n: int) -> float:
        return max(1, math.ceil(math.log(max(2, n), self.slurm.fanout)))

    def _image_serial(self, image_mb: float, n_loads: int) -> float:
        """Shared-FS serialized image distribution across n_loads nodes."""
        per = self.costs.fs_open + image_mb * 1024 * 1024 / self.costs.fs_bandwidth
        return per * n_loads / self.fs_servers

    def _image_broadcast(self, image_mb: float, n_loads: int) -> float:
        """Cooperative broadcast: one FS read + O(log N) copy rounds."""
        c = self.costs
        nbytes = image_mb * 1024 * 1024
        one_read = c.fs_open + nbytes / c.fs_bandwidth
        if n_loads <= 1:
            return one_read
        fanout = max(2, c.bcast_fanout)
        rounds = math.ceil(math.log(n_loads, fanout))
        per_round = (c.tcp_connect + c.bcast_hop_overhead
                     + (fanout - 1) * (c.net_latency + c.msg_overhead
                                       + nbytes / c.net_bandwidth))
        return one_read + rounds * per_round

    def image_stage_time(self, image_mb: float, n_loads: int,
                         warm_nodes: int = 0,
                         staging: str | None = None) -> float:
        """T(image-stage) for one image onto ``n_loads`` nodes.

        ``shared-fs`` serializes every load through the FS servers (the
        classic linear term); ``cache`` pays the serial term only for the
        cold nodes (warm nodes hit their local caches in parallel, one
        page-cache window); ``broadcast`` pays one FS read plus a
        logarithmic distribution tree regardless of warmth.
        """
        mode = staging or self.staging
        if mode not in STAGING_MODES:
            raise StagingError(
                f"unknown staging mode {mode!r}; one of {STAGING_MODES}")
        if image_mb <= 0 or n_loads <= 0:
            return 0.0
        warm = min(max(0, warm_nodes), n_loads)
        cold = n_loads - warm
        if mode == "broadcast":
            if cold == 0:
                return self.costs.cache_hit
            return self._image_broadcast(image_mb, cold)
        if mode == "cache":
            return (self._image_serial(image_mb, cold)
                    + (self.costs.cache_hit if warm else 0.0))
        return self._image_serial(image_mb, n_loads)

    # -- per-component terms -------------------------------------------------
    def n_debug_events(self) -> int:
        """Events the engine handles during one traced launch."""
        # EXEC + (count-3) helper forks + MPIR_Breakpoint
        return self.slurm.debug_event_count - 1

    def t_trace(self, inp: ModelInputs) -> float:
        if inp.mode != "launch":
            return 0.0
        n_events = self.n_debug_events()
        if self.slurm.legacy_events:
            n_events += inp.n_tasks
        return n_events * self.costs.event_handle

    def t_job(self, inp: ModelInputs) -> float:
        if inp.mode != "launch":
            return 0.0
        c, s = self.costs, self.slurm
        n = inp.n_daemons
        n_events = self.n_debug_events()
        if s.legacy_events:
            n_events += inp.n_tasks
        per_event_os = c.ptrace_trap + c.ptrace_continue
        return (s.ctl_job_setup
                + s.ctl_per_node_job * n
                + self._tree_depth(n) * s.hop_cost
                + self.image_stage_time(inp.app_image_mb, n)
                + inp.tasks_per_daemon * c.fork_exec
                + s.pmi_per_task * inp.n_tasks
                + n_events * per_event_os
                + c.ptrace_continue)

    def t_rpdtab(self, inp: ModelInputs) -> float:
        # one size read + three word-granular reads per task
        return (1 + 3 * inp.n_tasks) * self.costs.ptrace_word_read

    def t_daemon(self, inp: ModelInputs) -> float:
        c, s = self.costs, self.slurm
        n = inp.n_daemons
        congestion = s.ctl_congestion_per_node * max(
            0, n - s.ctl_congestion_threshold)
        return (c.fork_exec  # the transient daemon launcher
                + s.ctl_daemon_setup
                + s.ctl_per_node_daemon * n
                + congestion
                + self._tree_depth(n) * s.hop_cost
                + self.image_stage_time(inp.daemon_image_mb, n)
                + c.fork_exec)

    def t_setup(self, inp: ModelInputs) -> float:
        """Fabric wireup: connects in parallel + synchronizing barrier."""
        c = self.costs
        n = inp.n_daemons
        if n <= 1:
            return c.tcp_connect
        depth = max(1, math.ceil(math.log2(n)))
        accept = 0.00005
        barrier_msgs = 4 * depth * (c.net_latency + c.msg_overhead + 0.0001)
        return c.tcp_connect + accept * depth + barrier_msgs

    def t_collective(self, inp: ModelInputs) -> float:
        """Handshake gather + scatter through the RM fabric."""
        s, c = self.slurm, self.costs
        n = inp.n_daemons
        per_rec = 2 * s.fabric_per_rec * max(0, n - 1)
        # gathered daemon records + scattered proctable slices
        gather_bytes = 40 * n
        scatter_bytes = 24 * inp.n_tasks
        transfer = (gather_bytes + scatter_bytes) / c.net_bandwidth
        depth = max(1, math.ceil(math.log2(max(2, n))))
        hops = 3 * depth * (c.net_latency + c.msg_overhead + 0.0001)
        return per_rec + transfer + hops

    #: one MPIR_PROCDESC entry on the ICCL scatter wire (rank + pid ints,
    #: host and executable names, tuple framing), matching ``message_size``
    SCATTER_ENTRY_BYTES = 260

    @staticmethod
    def piggyback_bytes(n_daemons: int) -> int:
        """Compact-JSON bytes of the one-deep topology piggyback
        (``{"topology": {"parent": [-1,0,...], "kind": ["fe","be",...]}}``)
        the TBON launchmon path ships to every daemon."""
        return 7 * n_daemons + 42

    def t_usrdata_scatter(self, inp: ModelInputs,
                          usr_payload_bytes: Optional[int] = None) -> float:
        """Critical path of the ICCL scatter that hands every daemon its
        proctable slice *plus a full copy of the piggybacked usr data*.

        The scatter batches per-rank items down the binomial tree and each
        item carries the whole O(n)-byte topology piggyback, so the root's
        serialized sends move ``n * O(n)`` bytes -- the quadratic term that
        dominates T(spawn) at 10k+ daemons. Children are served smallest
        subtree first, so the largest child's batch leaves the root last
        and the chain repeats at every level: ~``2n`` items end to end.
        """
        n = inp.n_daemons
        if n <= 1:
            return 0.0
        c = self.costs
        if usr_payload_bytes is None:
            usr_payload_bytes = self.piggyback_bytes(n)
        slice_bytes = 16 + inp.tasks_per_daemon * self.SCATTER_ENTRY_BYTES
        # (rank, (slice, usr)) inside the batch list: two tuple frames
        # of 16 bytes plus the opaque-int rank (64)
        item = 16 + 64 + 16 + slice_bytes + usr_payload_bytes
        depth = max(1, math.ceil(math.log2(n)))
        items_serial = 2 * n - depth - 2
        msgs_serial = depth * (depth + 1) // 2
        return (items_serial * item / c.net_bandwidth
                + msgs_serial * (c.net_latency + c.msg_overhead))

    def t_handshake(self, inp: ModelInputs) -> float:
        """Region C: FE-side processing + proctable/ready transfers."""
        c = self.costs
        rpdtab_bytes = 22 * inp.n_tasks + 24 * inp.n_daemons
        return (c.fe_handshake_per_daemon * inp.n_daemons
                + c.tcp_connect
                + rpdtab_bytes / c.net_bandwidth
                + 4 * (c.net_latency + c.msg_overhead))

    def t_other(self, inp: ModelInputs) -> float:
        """Scale-independent LaunchMON costs (the paper's ~12 ms)."""
        c = self.costs
        return (2 * c.fork_exec          # FE runtime + engine processes
                + c.ptrace_attach
                + 2 * c.ptrace_word_read
                + 2 * c.ptrace_continue
                + 0.004)                 # session bookkeeping + engine msg

    # -- the full prediction -----------------------------------------------------
    def predict(self, inp: ModelInputs) -> ComponentTimes:
        times = ComponentTimes(
            t_job=self.t_job(inp),
            t_daemon=self.t_daemon(inp),
            t_setup=self.t_setup(inp),
            t_collective=self.t_collective(inp),
            t_trace=self.t_trace(inp),
            t_rpdtab=self.t_rpdtab(inp),
            t_handshake=self.t_handshake(inp),
            t_other=self.t_other(inp),
        )
        times.total = (times.rm_time() + times.t_trace + times.t_rpdtab
                       + times.t_handshake + times.t_other)
        return times

    # -- the inverse: model terms per LaunchReport phase -----------------------
    def launch_report_phases(self, n_daemons: int, tasks_per_daemon: int = 8,
                             daemon_image_mb: float = 1.0,
                             per_be_handshake: float = 0.0,
                             mode: str = "attach") -> dict:
        """Model prediction keyed by :data:`repro.launch.report.PHASES`.

        The simulated launchmon path attributes its wall clock to six
        report phases; this is the analytic view of the same carve-up
        (validated against simulation within a few percent):

        * ``t_spawn`` -- the RM attach/spawn window *minus* the image
          staging the simulator carves out of it, plus every fabric/
          engine term that lands inside the window;
        * ``t_image_stage`` -- exactly :meth:`image_stage_time`;
        * ``t_connect`` -- the FE's collective bring-up (one TCP connect
          plus the per-record fabric cost);
        * ``t_handshake`` -- the MRNet-style per-BE handshake, linear
          with the caller's per-daemon constant;
        * ``t_topo_dist``/``t_repair`` -- zero on a fault-free launch.

        ``per_be_handshake`` is passed in as a plain float (the startup
        layer owns the constant) so this module never imports it.
        """
        inp = ModelInputs(n_daemons=n_daemons,
                          tasks_per_daemon=tasks_per_daemon, mode=mode,
                          daemon_image_mb=daemon_image_mb)
        image = self.image_stage_time(daemon_image_mb, n_daemons)
        spawn = (self.t_daemon(inp) - image + self.t_setup(inp)
                 + self.t_collective(inp) + self.t_usrdata_scatter(inp)
                 + self.t_trace(inp) + self.t_rpdtab(inp)
                 + self.t_handshake(inp) + self.t_other(inp))
        connect = (self.costs.tcp_connect
                   + self.slurm.fabric_per_rec * max(0, n_daemons - 1))
        return {
            "t_spawn": max(0.0, spawn),
            "t_image_stage": image,
            "t_topo_dist": 0.0,
            "t_connect": connect,
            "t_handshake": per_be_handshake * n_daemons,
            "t_repair": 0.0,
        }

    def subtree_launch_phases(self, base_daemons: int, n_leaves: int,
                              tasks_per_daemon: int = 8,
                              daemon_image_mb: float = 1.0,
                              per_be_handshake: float = 0.0,
                              mode: str = "attach") -> dict:
        """Marginal per-phase cost of ``n_leaves`` more daemons on top of
        a launch that already has ``base_daemons``.

        This is the hybrid tier's analytic charge for one
        :class:`~repro.simx.aggregate.AggregateSubtree`: the phase deltas
        telescope, so folding every subtree with a cumulative base
        reproduces ``launch_report_phases(n_total) -
        launch_report_phases(n_exact)`` exactly regardless of how the
        aggregated span is partitioned.
        """
        hi = self.launch_report_phases(
            base_daemons + n_leaves, tasks_per_daemon, daemon_image_mb,
            per_be_handshake, mode)
        lo = self.launch_report_phases(
            base_daemons, tasks_per_daemon, daemon_image_mb,
            per_be_handshake, mode)
        return {k: max(0.0, hi[k] - lo[k]) for k in hi}


class StreamModel:
    """Analytic per-wave terms for the persistent TBON data plane.

    Parameterized by the same :class:`CostModel` constants the simulated
    stream plane pays, so disagreement indicates a modeling error, not a
    calibration gap. Two regimes matter for a sustained stream:

    * **unloaded wave latency** -- one wave rippling up an idle tree:
      along the deepest leaf-to-root path, each level pays one hop
      (latency + per-message overhead + packet serialization) plus the
      level's filter-merge processing (``msg_overhead`` per merged child,
      matching the router's charge);
    * **sustained throughput** -- under continuous publishing the
      pipeline bottlenecks on its busiest router: a position merging
      ``c`` children spends ``msg_overhead * c`` per wave, so waves
      cannot drain faster than the widest position can merge them
      (credit-based flow control holds publishers to exactly that rate
      instead of letting inboxes grow).
    """

    #: packet framing bytes (the wire format's own constant)
    PACKET_HEADER = Packet.HEADER_BYTES
    #: ``message_size`` fallback for opaque (dict) payloads
    OPAQUE_PAYLOAD = 64

    def __init__(self, costs: CostModel | None = None):
        self.costs = costs or CostModel()

    def hop_time(self, payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """One child -> parent packet transfer (unjittered mean)."""
        c = self.costs
        nbytes = self.PACKET_HEADER + payload_bytes
        return c.net_latency + c.msg_overhead + nbytes / c.net_bandwidth

    def merge_time(self, n_children: int) -> float:
        """One position's filter processing for one wave."""
        return self.costs.msg_overhead * max(1, n_children)

    # -- per-topology terms ---------------------------------------------------
    def _level_children(self, topology) -> list[list[int]]:
        """Child counts of the internal positions along each leaf's
        root path (one list per leaf, leaf-side first).

        Aggregate-aware: leaf iteration covers ``"agg"`` positions too and
        counts are *virtual* (an aggregate child counts as the physical
        fan-in it collapsed), so the model predicts the full underlying
        tree whether or not the topology is hybrid."""
        paths = []
        # one count per router: every leaf under it shares it
        child_counts: dict[int, int] = {}
        for leaf in topology.leaves():
            counts = []
            pos = topology.parent[leaf]
            while pos is not None:
                if pos not in child_counts:
                    child_counts[pos] = topology.virtual_child_count(pos)
                counts.append(child_counts[pos])
                pos = topology.parent[pos]
            paths.append(counts)
        return paths

    def wave_latency(self, topology,
                     payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """T(wave): one unloaded wave, first publish to root delivery.

        The slowest leaf-to-root path dominates: per level one hop plus
        that level's merge processing.
        """
        worst = 0.0
        for counts in self._level_children(topology):
            t = sum(self.hop_time(payload_bytes) + self.merge_time(c)
                    for c in counts)
            worst = max(worst, t)
        return worst

    def service_time(self, topology, credit_limit: Optional[int] = None,
                     payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """Per-wave occupancy of the pipeline's busiest router.

        A position merging ``c`` children spends, per wave:

        * ``merge_time(c)`` of filter processing (its inbox cannot drain
          meanwhile, so at most ``credit_limit`` contributions of the
          next wave land during it);
        * the *feeding* serialization the credit gate imposes:
          contributions arrive in batches of ``credit_limit`` parallel
          transfers, so ``c`` of them need ``ceil(c/limit) - 1``
          additional hop times beyond the batch that overlapped the
          merge (unbounded credits overlap all of it);
        * one forward hop to its parent's inbox (the root banks locally
          instead).
        """
        hop = self.hop_time(payload_bytes)
        worst = 0.0
        for pos in range(topology.size):
            if not topology.children(pos):
                continue
            # virtual count: an aggregate child models its whole collapsed
            # fan-in, so the busiest-router bound is over the *underlying*
            # tree (identical to the physical count on non-hybrid trees)
            c = topology.virtual_child_count(pos)
            t = self.merge_time(c)
            if credit_limit:
                t += max(0, math.ceil(c / credit_limit) - 1) * hop
            if pos != 0:
                t += hop
            worst = max(worst, t)
        return worst

    def aggregate_contribution_delay(self, n_leaves: int, n_contrib: int,
                                     credit_limit: Optional[int] = None,
                                     payload_bytes: int = OPAQUE_PAYLOAD,
                                     ) -> float:
        """Per-wave delay an :class:`~repro.simx.aggregate.AggregateSubtree`
        emitter waits before publishing, modeling the collapsed subtree's
        *internal* pipeline occupancy.

        A flat span (``n_contrib == n_leaves``: leaves that would publish
        straight to the parent) has no internal levels -- the parent-side
        merge and feeding are already charged by the weighted router --
        so the delay is zero. A collapsed comm level (balanced hybrid)
        pays one comm's service time: merging its ``ceil(n_leaves /
        n_contrib)`` leaves, the credit-gated feeding of those leaves,
        and the forward hop (the collapsed comms run in parallel, so one
        comm's occupancy is the per-wave delay).
        """
        if n_contrib >= n_leaves:
            return 0.0
        g = math.ceil(n_leaves / max(1, n_contrib))
        hop = self.hop_time(payload_bytes)
        t = self.merge_time(g)
        if credit_limit:
            t += max(0, math.ceil(g / credit_limit) - 1) * hop
        return t + hop

    def sustained_throughput(self, topology,
                             credit_limit: Optional[int] = None,
                             payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """Waves per second under saturating publishers (pipelined)."""
        return 1.0 / self.service_time(topology, credit_limit,
                                       payload_bytes)

    def wave_interval_throughput(self, topology, publish_interval: float,
                                 credit_limit: Optional[int] = None,
                                 payload_bytes: int = OPAQUE_PAYLOAD,
                                 ) -> float:
        """Waves per second when leaves publish every
        ``publish_interval`` seconds: the slower of the publishing
        cadence and the pipeline's sustained rate."""
        sustained = self.sustained_throughput(topology, credit_limit,
                                              payload_bytes)
        if publish_interval <= 0:
            return sustained
        return min(1.0 / publish_interval, sustained)
