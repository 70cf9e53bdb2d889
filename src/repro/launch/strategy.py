"""LaunchStrategy: the single pluggable layer behind every daemon launch.

The repo used to carry three divergent copies of the hottest path in the
codebase -- the ad-hoc rsh loops in :mod:`repro.adhoc.launchers`, the RM
bulk spawn inside each resource manager, and the TBON startup spawn loop in
:mod:`repro.tbon.startup`. All of them now route through one of three
strategies:

* :class:`SerialRshStrategy` (``serial-rsh``) -- one rsh per daemon, in a
  loop; optionally holding every client open (the MRNet behaviour that
  exhausts the front end's process table at scale).
* :class:`TreeRshStrategy` (``tree-rsh``) -- spawned daemons spawn their
  children, parallelizing the rsh cost across tree levels.
* :class:`RmBulkStrategy` (``rm-bulk``) -- the paper's efficient path: the
  RM's scalable launch machinery forks every daemon in parallel; resource
  managers wrap it with their protocol costs (controller bookkeeping,
  fan-out tree descent).

Every strategy takes a :class:`LaunchRequest`, stages executable images
through the cluster's storage layer (:class:`~repro.cluster.SharedFilesystem`,
honouring its ``shared-fs``/``cache``/``broadcast`` staging mode) when
``stage_images`` is set, and returns a :class:`LaunchResult` carrying the
spawned processes plus a per-phase :class:`~repro.launch.report.LaunchReport`.

Failure contract
----------------
Every strategy spawns each daemon through one per-index routine
(:meth:`LaunchStrategy._spawn`): the attempt is bounded by
``per_daemon_timeout``, retried ``max_retries`` times with exponential
backoff, and a node whose retries are exhausted joins the ``blacklist``;
the index's outcome (``outcomes`` / ``retries`` / ``blacklisted``) lands in
the report either way. With every knob at its default the attempt simply
runs inline, once. What an exhausted failure does to the rest of the
launch is the request's ``on_failure``:

* ``"stop"`` (the default) -- record the first failure in
  ``report.failure`` and start no further spawns; the partial result is
  returned (ad-hoc practice limps along);
* ``"raise"`` -- propagate the failure out of the launch;
* ``"continue"`` -- record it and launch the rest (tree-rsh re-roots the
  failed head's remaining subtree at the live origin -- launch-time
  self-repair). This is what a :class:`~repro.launch.policy.LaunchPolicy`
  selects; deciding whether the partial set is acceptable stays with the
  caller (``min_daemon_fraction`` in the resource manager).

``rm-bulk`` is all-or-nothing under both ``"stop"`` and ``"raise"``: it
interrupts the in-flight spawns, reaps the daemons already forked and
re-raises, like a real RM aborting a job step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

from repro.cluster import (
    Cluster,
    ForkError,
    Node,
    NodeDown,
    NodeTaggedError,
    RemoteExecError,
    SimProcess,
)
from repro.launch.report import LaunchReport
from repro.simx import run_bounded

__all__ = [
    "LaunchRequest",
    "LaunchResult",
    "LaunchStrategy",
    "LaunchTimeout",
    "RmBulkStrategy",
    "SerialRshStrategy",
    "SPAWN_ERRORS",
    "TreeRshStrategy",
    "get_strategy",
    "strategy_names",
]


class LaunchTimeout(NodeTaggedError):
    """A single daemon's spawn attempt exceeded the per-daemon timeout.

    ``node`` names the unresponsive target (the node is held culpable --
    stragglers and dead-but-undiagnosed hosts look identical from the
    launcher's side)."""


#: the ``LaunchRequest.on_failure`` values (see the module docstring)
ON_FAILURE = ("stop", "raise", "continue")

#: the failures a launch records (and retries) per index; anything else is
#: a programming error and raises through
SPAWN_ERRORS = (ForkError, RemoteExecError, NodeDown, LaunchTimeout)


@dataclass
class LaunchRequest:
    """One daemon-launch work order, mechanism-independent.

    ``image_mb < 0`` resolves to ``CostModel.daemon_image_mb``. The
    per-index hooks exist for callers whose daemons are not uniform:
    ``args_for(i, node)`` / ``image_mb_for(i, node)`` override ``args`` /
    ``image_mb`` per spawn, and ``post_spawn(i, node, proc)`` runs right
    after each successful spawn (it may return a generator to cost virtual
    time -- e.g. the ad-hoc topology-file read -- or do plain bookkeeping
    and return None).

    The per-daemon knobs (``per_daemon_timeout`` / ``max_retries`` /
    ``retry_backoff`` / ``blacklist``) default to off, and ``on_failure``
    says what an exhausted failure does to the launch (see the module
    docstring). ``blacklist`` is a caller-owned mutable set of node names,
    shared so what one launch condemns a later launch skips.
    """

    cluster: Cluster
    nodes: Sequence[Node]
    executable: str
    image_mb: float = -1.0
    args: tuple = ()
    uid: str = "user"
    #: keep each rsh client alive to carry daemon stdio (MRNet behaviour)
    hold_clients: bool = False
    #: fan-out of the tree-rsh strategy
    fanout: int = 8
    #: route ``image_mb`` through the storage layer's staging mode
    stage_images: bool = False
    #: cache key for staged images (defaults to the executable name)
    image_key: Optional[str] = None
    #: node the launch originates from (defaults to the front end)
    source: Optional[Node] = None
    #: what an exhausted spawn failure does: "stop", "raise" or "continue"
    on_failure: str = "stop"
    #: interrupt one daemon's spawn attempt after this long (0 = never)
    per_daemon_timeout: float = 0.0
    #: extra attempts per daemon after the first fails
    max_retries: int = 0
    #: backoff before the k-th retry: ``retry_backoff * 2**k`` seconds
    retry_backoff: float = 0.05
    #: shared set of condemned node names (None = no blacklisting)
    blacklist: Optional[set] = None
    args_for: Optional[Callable[[int, Node], tuple]] = None
    image_mb_for: Optional[Callable[[int, Node], float]] = None
    post_spawn: Optional[Callable[[int, Node, SimProcess], Any]] = None

    def __post_init__(self):
        if self.on_failure not in ON_FAILURE:
            raise ValueError(f"on_failure must be one of {ON_FAILURE}, "
                             f"not {self.on_failure!r}")

    @property
    def key(self) -> str:
        return self.image_key or self.executable

    def apply_policy(self, policy, blacklist: Optional[set] = None) -> None:
        """Copy a :class:`~repro.launch.policy.LaunchPolicy`'s per-daemon
        knobs onto this request and launch past failures (``"continue"``):
        the policy's min-fraction verdict, which stays with the caller,
        judges a set in which every index was attempted and attributed."""
        self.per_daemon_timeout = policy.per_daemon_timeout
        self.max_retries = policy.max_retries
        self.retry_backoff = policy.retry_backoff
        self.on_failure = "continue"
        if policy.blacklist_nodes:
            self.blacklist = blacklist if blacklist is not None else set()

    def resolved_image_mb(self, i: int = 0, node: Optional[Node] = None,
                          ) -> float:
        if self.image_mb_for is not None:
            return self.image_mb_for(i, node)
        if self.image_mb < 0:
            return self.cluster.costs.daemon_image_mb
        return self.image_mb

    def resolved_args(self, i: int, node: Node) -> tuple:
        if self.args_for is not None:
            return self.args_for(i, node)
        return self.args


@dataclass
class LaunchResult:
    """Spawned daemon processes plus the per-phase timing report.

    ``procs`` holds the successes in spawn-completion order; ``slots`` maps
    *request index* -> process so partial results keep the index <-> node
    association (failed indices are left out -- pair ``slots`` with
    ``request.nodes`` to know exactly which daemon runs where).
    """

    procs: list = field(default_factory=list)
    report: LaunchReport = None  # type: ignore[assignment]
    #: request index -> spawned process (absent where the spawn failed)
    slots: dict = field(default_factory=dict)

    @property
    def n_spawned(self) -> int:
        return len(self.procs)


class LaunchStrategy:
    """Interface + shared machinery of one launch mechanism."""

    name = "abstract"

    def launch(self, req: LaunchRequest,
               ) -> Generator[Any, Any, LaunchResult]:
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared helpers ------------------------------------------------------
    def _begin(self, req: LaunchRequest) -> LaunchResult:
        report = LaunchReport(
            self.name, n_daemons=0, requested=len(req.nodes),
            staging_mode=req.cluster.fs.staging)
        return LaunchResult(procs=[], report=report)

    def _prestage(self, req: LaunchRequest,
                  report: LaunchReport) -> Generator[Any, Any, None]:
        """Broadcast-mode staging runs as one explicit up-front phase.

        In ``shared-fs``/``cache`` modes images load per-spawn instead (the
        serialized loads are attributed to ``t_image_stage`` afterwards via
        the filesystem's busy-time meter). Non-uniform image sets
        (``image_mb_for``) cannot ride one broadcast either -- they fall
        back to per-spawn loads, which the broadcast-mode cache still
        coalesces per distinct key.
        """
        fs = req.cluster.fs
        if (not req.stage_images or fs.staging != "broadcast"
                or req.image_mb_for is not None):
            return
        sim = req.cluster.sim
        t0 = sim.now
        yield from fs.stage_images(
            list(req.nodes), req.resolved_image_mb(), req.key)
        report.t_image_stage += sim.now - t0

    def _run_post_spawn(self, req: LaunchRequest, i: int, node: Node,
                        proc: SimProcess) -> Generator[Any, Any, None]:
        if req.post_spawn is None:
            return
        gen = req.post_spawn(i, node, proc)
        if gen is not None:
            yield from gen

    # -- the per-index spawn routine ----------------------------------------
    #: ``on_failure`` values under which an exhausted failure propagates
    #: out of :meth:`_spawn` instead of being recorded and returned as None
    propagate_on = ("raise",)

    def _spawn(self, req: LaunchRequest, report: LaunchReport, i: int,
               node: Node, attempt_factory: Callable[[], Generator],
               ) -> Generator[Any, Any, Optional[SimProcess]]:
        """Spawn daemon ``i``; every strategy's only spawn path.

        Returns the process, or None after recording the index's outcome
        (``skipped`` for an already-blacklisted node, ``failed`` once the
        bounded retries -- exponential backoff between attempts -- are
        exhausted; the first such failure also lands in
        ``report.failure``). Without a per-daemon timeout each attempt runs
        inline; with one it runs through :func:`~repro.simx.run_bounded`
        -- on timeout the attempt is interrupted (image loads and forks
        release their resources; they are interrupt-safe by construction)
        and counts as a :class:`LaunchTimeout`. Exhausted retries condemn
        the node on the shared blacklist **only when the failure is
        attributable to it** (the exception's ``node`` tag matches the
        target): a source-side failure -- the front end's own process
        table filling, the origin dying -- must not condemn a healthy
        target.
        """
        sim = req.cluster.sim
        blacklist = req.blacklist
        if blacklist is not None and node.name in blacklist:
            report.outcomes[i] = "skipped"
            return None
        timeout = req.per_daemon_timeout
        delay = max(0.0, req.retry_backoff)
        retries = 0
        while True:
            try:
                if timeout <= 0:
                    proc = yield from attempt_factory()
                else:
                    worker = yield from run_bounded(
                        sim, attempt_factory(), timeout,
                        name=f"spawn-try:{node.name}")
                    if worker is None:
                        raise LaunchTimeout(
                            f"{node.name}: spawn attempt exceeded "
                            f"{timeout}s", node=node.name)
                    proc = worker.value
            except SPAWN_ERRORS as exc:
                if retries < req.max_retries:
                    retries += 1
                    report.retries[i] = retries
                    if delay > 0:
                        yield sim.timeout(delay)
                    delay *= 2.0
                    continue
                report.outcomes[i] = "failed"
                if not report.failure:
                    report.failure = str(exc)
                culprit = getattr(exc, "node", "") or node.name
                if (blacklist is not None and culprit == node.name
                        and node.name not in blacklist):
                    blacklist.add(node.name)
                    report.blacklisted.append(node.name)
                if req.on_failure in self.propagate_on:
                    raise
                return None
            report.outcomes[i] = "ok"
            return proc

    @staticmethod
    def _attribute_fs_time(report: LaunchReport, req: LaunchRequest,
                           busy0: float, window: float) -> float:
        """Attribute shared-FS service time inside the spawn window to the
        image-stage phase (approximate under concurrent foreign loads);
        returns the attributed seconds so callers can carve it out of the
        spawn phase."""
        fs = req.cluster.fs
        if not req.stage_images or fs.staging == "broadcast":
            return 0.0
        served = (fs.busy_time - busy0) / max(1, fs._servers.capacity)
        attributed = min(window, served)
        report.t_image_stage += attributed
        return attributed

    def _finish(self, result: LaunchResult, req: LaunchRequest,
                t0: float) -> LaunchResult:
        report = result.report
        report.n_daemons = len(result.procs)
        report.total = req.cluster.sim.now - t0
        src = req.source or req.cluster.front_end
        report.fe_procs_peak = src.max_uid_procs_seen
        return result


class SerialRshStrategy(LaunchStrategy):
    """The most common ad-hoc practice: one rsh per daemon, in a loop.

    With ``hold_clients`` (the MRNet behaviour) each rsh client stays alive
    on the source node, so the launch eventually exhausts its process table
    instead of merely being slow.
    """

    name = "serial-rsh"

    def launch(self, req: LaunchRequest,
               ) -> Generator[Any, Any, LaunchResult]:
        cluster = req.cluster
        sim = cluster.sim
        fs = cluster.fs
        src = req.source or cluster.front_end
        result = self._begin(req)
        report = result.report
        t0 = sim.now
        yield from self._prestage(req, report)
        t_spawn0 = sim.now
        busy0 = fs.busy_time
        for i, node in enumerate(req.nodes):
            if report.failure and req.on_failure != "continue":
                break

            def attempt(i=i, node=node):
                image = req.resolved_image_mb(i, node)
                if req.stage_images:
                    yield from fs.load_image(image, node=node, key=req.key)
                _client, proc = yield from src.rsh_spawn(
                    node, req.executable, args=req.resolved_args(i, node),
                    uid=req.uid, image_mb=image,
                    hold_client=req.hold_clients)
                return proc

            proc = yield from self._spawn(req, report, i, node, attempt)
            if proc is None:
                continue
            result.procs.append(proc)
            result.slots[i] = proc
            yield from self._run_post_spawn(req, i, node, proc)
        window = sim.now - t_spawn0
        staged = self._attribute_fs_time(report, req, busy0, window)
        report.t_spawn = max(0.0, window - staged)
        return self._finish(result, req, t0)


class TreeRshStrategy(LaunchStrategy):
    """Tree-based ad-hoc protocol: spawned daemons spawn children daemons.

    Parallelizes the rsh cost across levels (depth x per-rsh instead of
    count x per-rsh) but keeps every other ad-hoc weakness: it still needs
    rshd on the compute nodes, manual placement, and a manual protocol for
    daemons to find their children.

    Under ``on_failure="continue"`` the launch repairs itself: when a
    subtree head cannot be spawned (its node crashed, flapped past its
    retries, or timed out), the head's remaining targets are *re-rooted at
    the live origin* instead of being orphaned -- the tree grows around
    the hole.
    """

    name = "tree-rsh"

    def launch(self, req: LaunchRequest,
               ) -> Generator[Any, Any, LaunchResult]:
        cluster = req.cluster
        sim = cluster.sim
        fs = cluster.fs
        src = req.source or cluster.front_end
        fanout = max(2, req.fanout)
        result = self._begin(req)
        report = result.report
        t0 = sim.now
        yield from self._prestage(req, report)
        t_spawn0 = sim.now
        busy0 = fs.busy_time

        def spawn_subtree(origin: Node, targets: list):
            """rsh the first target from origin; it spawns its slices.

            ``targets`` holds ``(index, node)`` pairs so the per-index
            request hooks (args_for / image_mb_for / post_spawn) see each
            daemon's position in ``req.nodes`` despite the tree order.
            A failed head's remaining targets re-root here at ``origin``
            (the nearest live ancestor) unless the launch has stopped.
            """
            while targets:
                if report.failure and req.on_failure != "continue":
                    return
                (idx, head), rest = targets[0], targets[1:]

                def attempt(idx=idx, head=head, origin=origin):
                    image = req.resolved_image_mb(idx, head)
                    if req.stage_images:
                        yield from fs.load_image(image, node=head,
                                                 key=req.key)
                    _client, proc = yield from origin.rsh_spawn(
                        head, req.executable,
                        args=req.resolved_args(idx, head),
                        uid=req.uid, image_mb=image,
                        hold_client=req.hold_clients)
                    return proc

                proc = yield from self._spawn(req, report, idx, head,
                                              attempt)
                if proc is None:
                    # self-repair: origin adopts the failed head's
                    # remaining subtree
                    targets = rest
                    continue
                result.procs.append(proc)
                result.slots[idx] = proc
                yield from self._run_post_spawn(req, idx, head, proc)
                if not rest:
                    return
                # split the remainder into fanout slices handled in parallel
                slices = [rest[i::fanout]
                          for i in range(min(fanout, len(rest)))]
                procs = [sim.process(spawn_subtree(head, s), name="tree-rsh")
                         for s in slices if s]
                yield sim.all_of(procs)
                return

        nodes = list(enumerate(req.nodes))
        roots = [nodes[i::fanout] for i in range(min(fanout, len(nodes)))]
        top = [sim.process(spawn_subtree(src, s), name="tree-rsh-root")
               for s in roots if s]
        yield sim.all_of(top)
        window = sim.now - t_spawn0
        staged = self._attribute_fs_time(report, req, busy0, window)
        report.t_spawn = max(0.0, window - staged)
        return self._finish(result, req, t0)


class RmBulkStrategy(LaunchStrategy):
    """The RM's efficient daemon launch: all nodes fork in parallel.

    Models the per-node half of ``spawn_daemons`` (Section 3.1): every node
    stages the daemon image through the storage layer and forks it locally,
    in parallel across nodes. The RM-protocol half (controller bookkeeping,
    launch-tree descent) stays with the resource manager, which adds it to
    the report's spawn phase.

    All-or-nothing unless ``on_failure="continue"``: a failed spawn
    interrupts the in-flight workers, reaps the daemons already forked, and
    re-raises -- a failed set must not leave orphan processes squatting on
    the nodes. Under ``"continue"`` each node's worker absorbs its own
    failures and the set completes with whatever survived, attributed per
    index.
    """

    name = "rm-bulk"
    propagate_on = ("stop", "raise")

    def launch(self, req: LaunchRequest,
               ) -> Generator[Any, Any, LaunchResult]:
        cluster = req.cluster
        sim = cluster.sim
        fs = cluster.fs
        result = self._begin(req)
        report = result.report
        nodes = list(req.nodes)
        t0 = sim.now
        yield from self._prestage(req, report)
        t_spawn0 = sim.now
        busy0 = fs.busy_time
        procs: list = [None] * len(nodes)

        def _attempt_one(i: int, node: Node):
            image = req.resolved_image_mb(i, node)
            if req.stage_images:
                yield from fs.load_image(image, node=node, key=req.key)
            proc = yield from node.fork_exec(
                req.executable, args=req.resolved_args(i, node),
                uid=req.uid, image_mb=image)
            return proc

        def _spawn_one(i: int, node: Node):
            proc = yield from self._spawn(
                req, report, i, node, lambda: _attempt_one(i, node))
            if proc is None:
                return
            procs[i] = proc
            yield from self._run_post_spawn(req, i, node, proc)

        workers = [sim.process(_spawn_one(i, node), name=f"spawn:{node.name}")
                   for i, node in enumerate(nodes)]
        barrier = sim.all_of(workers)
        try:
            yield barrier
        except BaseException:
            # abort the set: stop in-flight spawners and reap daemons
            # already forked -- a failed spawn must not leave orphans.
            # The barrier must be defused too: this frame may be unwinding
            # because *we* were interrupted (not because a worker failed),
            # in which case the interrupt detached us from the barrier --
            # when the aborted workers' failures then complete it, the
            # composite failure would have no observer left and would
            # detonate the whole simulator run
            barrier.defuse()
            for w in workers:
                # defuse every worker: a sibling that failed at the same
                # instant is already dead but its failure event would
                # otherwise crash the whole simulator run
                w.defuse()
                if w.is_alive:
                    w.interrupt("daemon spawn aborted")
            for p in procs:
                if p is not None and p.alive:
                    p.exit(9)
            raise
        result.procs = [p for p in procs if p is not None]
        result.slots = {i: p for i, p in enumerate(procs) if p is not None}
        window = sim.now - t_spawn0
        staged = self._attribute_fs_time(report, req, busy0, window)
        report.t_spawn = max(0.0, window - staged)
        return self._finish(result, req, t0)


#: the strategy registry; every entry is stateless and shareable
_STRATEGIES = {
    cls.name: cls()
    for cls in (SerialRshStrategy, TreeRshStrategy, RmBulkStrategy)
}


def strategy_names() -> tuple:
    """Names of the registered launch strategies."""
    return tuple(sorted(_STRATEGIES))


def get_strategy(name: str) -> LaunchStrategy:
    """Look up a registered strategy by name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown launch strategy {name!r}; "
            f"one of {strategy_names()}") from None
