"""LaunchStrategy: the single pluggable layer behind every daemon launch.

Every daemon launch in the repo -- the ad-hoc rsh loops of Section 2, the
RM bulk spawn inside each resource manager, and MRNet's TBON startup --
runs one :meth:`LaunchStrategy.launch` routine. It pre-stages images in
broadcast mode, times the spawn window, attributes the shared-FS time
inside it to ``t_image_stage`` and totals the report; a strategy supplies
only its spawn order (:meth:`LaunchStrategy._spawn_all`):

* :class:`SerialRshStrategy` (``serial-rsh``) -- one rsh per daemon, in a
  loop; optionally holding every client open (the MRNet behaviour that
  exhausts the front end's process table at scale).
* :class:`TreeRshStrategy` (``tree-rsh``) -- spawned daemons spawn their
  children, parallelizing the rsh cost across tree levels.
* :class:`RmBulkStrategy` (``rm-bulk``) -- the paper's efficient path: the
  RM's scalable launch machinery forks every daemon in parallel; resource
  managers wrap it with their protocol costs (controller bookkeeping,
  fan-out tree descent).

Strategies come from :func:`get_strategy`. Every one takes a
:class:`LaunchRequest`, stages executable images through the cluster's
storage layer (:class:`~repro.cluster.SharedFilesystem`, honouring its
``shared-fs``/``cache``/``broadcast`` staging mode) when ``stage_images``
is set, and returns a :class:`LaunchResult` carrying the spawned processes
plus a per-phase :class:`~repro.launch.report.LaunchReport`.

Failure contract
----------------
Every daemon is spawned through one per-index routine
(:meth:`LaunchStrategy._spawn`), whose one attempt
(:meth:`LaunchStrategy._attempt`) stages the image and then rsh-spawns or
forks. The index's outcome (``outcomes`` / ``retries`` / ``blacklisted``)
lands in the report either way, and a node on the request's ``blacklist``
is skipped. The request's ``policy`` decides the rest:

* **no policy** -- each daemon is spawned once and the launch stops at the
  first failure, recorded in ``report.failure``; the rsh strategies return
  the partial result, and ``rm-bulk`` is all-or-nothing: it interrupts
  the in-flight spawns, reaps the daemons already forked and re-raises,
  like a real RM aborting a job step;
* **a** :class:`~repro.launch.policy.LaunchPolicy` -- each attempt is
  bounded by its ``per_daemon_timeout`` and retried ``max_retries`` times
  with exponential backoff, and the launch goes on past failures
  (tree-rsh re-roots the failed head's remaining subtree at the live
  origin -- launch-time self-repair). Whether the partial set is
  acceptable stays with the caller (``min_daemon_fraction`` in the
  resource manager).
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
from repro.launch.policy import LaunchPolicy
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


#: the failures a launch records (and retries) per index; anything else is
#: a programming error and raises through
SPAWN_ERRORS = (ForkError, RemoteExecError, NodeDown, LaunchTimeout)


@dataclass
class LaunchRequest:
    """One daemon-launch work order, mechanism-independent.

    The launch originates at the cluster's front end, and ``executable``
    keys the staged image. ``image_mb < 0`` resolves to
    ``CostModel.daemon_image_mb``. The per-index hooks exist for callers
    whose daemons are not uniform: ``args_for(i, node)`` /
    ``image_mb_for(i, node)`` override ``args`` / ``image_mb`` per spawn,
    and ``post_spawn(i, node, proc)`` runs right after each successful
    spawn (it may return a generator to cost virtual time -- e.g. the
    ad-hoc topology-file read -- or do plain bookkeeping and return None).

    ``policy`` says how each daemon is spawned and what a failure does to
    the launch (see the module docstring). ``blacklist`` is a caller-owned
    mutable set of node names, shared so what one launch condemns a later
    launch skips.
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
    #: per-daemon timeout, retries and backoff, launching past failures
    #: (None: spawn each daemon once and stop at the first failure)
    policy: Optional[LaunchPolicy] = None
    #: shared set of condemned node names (None = no blacklisting)
    blacklist: Optional[set] = None
    args_for: Optional[Callable[[int, Node], tuple]] = None
    image_mb_for: Optional[Callable[[int, Node], float]] = None
    post_spawn: Optional[Callable[[int, Node, SimProcess], Any]] = None

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

    ``slots`` maps *request index* -> process so partial results keep the
    index <-> node association (failed indices are left out -- pair
    ``slots`` with ``request.nodes`` to know exactly which daemon runs
    where). ``procs`` lists the same processes in spawn-completion order
    (``rm-bulk``: request order).
    """

    procs: list = field(default_factory=list)
    report: LaunchReport = None  # type: ignore[assignment]
    #: request index -> spawned process (absent where the spawn failed)
    slots: dict = field(default_factory=dict)

    @property
    def n_spawned(self) -> int:
        return len(self.procs)


class LaunchStrategy:
    """One launch mechanism: the shared launch routine around a spawn
    order that each subclass supplies."""

    name = "abstract"
    #: without a policy, an exhausted failure aborts the whole launch
    #: (raises out of :meth:`_spawn`) instead of stopping it
    all_or_nothing = False

    def launch(self, req: LaunchRequest,
               ) -> Generator[Any, Any, LaunchResult]:
        """Launch one daemon per ``req.nodes`` entry.

        Broadcast-mode staging runs as one explicit up-front phase. In
        ``shared-fs``/``cache`` modes images load per spawn instead, and
        the filesystem's service time inside the spawn window is
        attributed to ``t_image_stage`` afterwards (approximate under
        concurrent foreign loads). Non-uniform image sets
        (``image_mb_for``) cannot ride one broadcast either -- they fall
        back to per-spawn loads, which the broadcast-mode cache still
        coalesces per distinct key.
        """
        cluster = req.cluster
        sim = cluster.sim
        fs = cluster.fs
        report = LaunchReport(self.name, n_daemons=0,
                              requested=len(req.nodes),
                              staging_mode=fs.staging)
        result = LaunchResult(report=report)
        t0 = sim.now
        if (req.stage_images and fs.staging == "broadcast"
                and req.image_mb_for is None):
            yield from fs.stage_images(
                list(req.nodes), req.resolved_image_mb(), req.executable)
            report.t_image_stage += sim.now - t0
        t_spawn0 = sim.now
        busy0 = fs.busy_time
        yield from self._spawn_all(req, result)
        window = sim.now - t_spawn0
        staged = 0.0
        if req.stage_images and fs.staging != "broadcast":
            served = (fs.busy_time - busy0) / max(1, fs._servers.capacity)
            staged = min(window, served)
            report.t_image_stage += staged
        report.t_spawn = max(0.0, window - staged)
        result.procs = list(result.slots.values())
        report.n_daemons = len(result.procs)
        report.total = sim.now - t0
        report.fe_procs_peak = cluster.front_end.max_uid_procs_seen
        return result

    def _spawn_all(self, req: LaunchRequest, result: LaunchResult,
                   ) -> Generator[Any, Any, None]:
        """Spawn every daemon of ``req`` through :meth:`_spawn`, in this
        strategy's order."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _attempt(self, req: LaunchRequest, i: int, node: Node,
                 origin: Optional[Node],
                 ) -> Generator[Any, Any, SimProcess]:
        """One spawn attempt of daemon ``i``: stage its image, then
        rsh-spawn it from ``origin``, or fork it locally when ``origin``
        is None."""
        image = req.resolved_image_mb(i, node)
        if req.stage_images:
            yield from req.cluster.fs.load_image(image, node=node,
                                                 key=req.executable)
        if origin is None:
            return (yield from node.fork_exec(
                req.executable, args=req.resolved_args(i, node),
                uid=req.uid, image_mb=image))
        _client, proc = yield from origin.rsh_spawn(
            node, req.executable, args=req.resolved_args(i, node),
            uid=req.uid, image_mb=image, hold_client=req.hold_clients)
        return proc

    def _spawn(self, req: LaunchRequest, result: LaunchResult, i: int,
               node: Node, origin: Optional[Node],
               ) -> Generator[Any, Any, Optional[SimProcess]]:
        """Spawn daemon ``i`` on ``node``; every strategy's only spawn path.

        On success the process lands in ``result.slots`` and
        ``post_spawn`` runs. Otherwise returns None after recording the
        index's outcome (``skipped`` for an already-blacklisted node,
        ``failed`` once the policy's bounded retries -- exponential
        backoff between attempts -- are exhausted; the first such failure
        also lands in ``report.failure``). Without a per-daemon timeout
        each attempt runs inline; with one it runs through
        :func:`~repro.simx.run_bounded` -- on timeout the attempt is
        interrupted (image loads and forks release their resources; they
        are interrupt-safe by construction) and counts as a
        :class:`LaunchTimeout`. Exhausted retries condemn the node on the
        shared blacklist **only when the failure is attributable to it**
        (the exception's ``node`` tag matches the target): a source-side
        failure -- the front end's own process table filling, the origin
        dying -- must not condemn a healthy target.
        """
        report = result.report
        blacklist = req.blacklist
        if blacklist is not None and node.name in blacklist:
            report.outcomes[i] = "skipped"
            return None
        sim = req.cluster.sim
        policy = req.policy
        timeout = policy.per_daemon_timeout if policy else 0.0
        max_retries = policy.max_retries if policy else 0
        delay = max(0.0, policy.retry_backoff) if policy else 0.0
        retries = 0
        while True:
            try:
                if timeout <= 0:
                    proc = yield from self._attempt(req, i, node, origin)
                else:
                    worker = yield from run_bounded(
                        sim, self._attempt(req, i, node, origin), timeout,
                        name=f"spawn-try:{node.name}")
                    if worker is None:
                        raise LaunchTimeout(
                            f"{node.name}: spawn attempt exceeded "
                            f"{timeout}s", node=node.name)
                    proc = worker.value
            except SPAWN_ERRORS as exc:
                if retries < max_retries:
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
                if policy is None and self.all_or_nothing:
                    raise
                return None
            report.outcomes[i] = "ok"
            result.slots[i] = proc
            if req.post_spawn is not None:
                gen = req.post_spawn(i, node, proc)
                if gen is not None:
                    yield from gen
            return proc


class SerialRshStrategy(LaunchStrategy):
    """The most common ad-hoc practice: one rsh per daemon, in a loop.

    With ``hold_clients`` (the MRNet behaviour) each rsh client stays alive
    on the front end, so the launch eventually exhausts its process table
    instead of merely being slow.
    """

    name = "serial-rsh"

    def _spawn_all(self, req: LaunchRequest, result: LaunchResult,
                   ) -> Generator[Any, Any, None]:
        fe = req.cluster.front_end
        for i, node in enumerate(req.nodes):
            if result.report.failure and req.policy is None:
                break
            yield from self._spawn(req, result, i, node, fe)


class TreeRshStrategy(LaunchStrategy):
    """Tree-based ad-hoc protocol: spawned daemons spawn children daemons.

    Parallelizes the rsh cost across levels (depth x per-rsh instead of
    count x per-rsh) but keeps every other ad-hoc weakness: it still needs
    rshd on the compute nodes, manual placement, and a manual protocol for
    daemons to find their children.

    Under a policy the launch repairs itself: when a subtree head cannot
    be spawned (its node crashed, flapped past its retries, or timed out),
    the head's remaining targets are *re-rooted at the live origin*
    instead of being orphaned -- the tree grows around the hole.
    """

    name = "tree-rsh"

    def _spawn_all(self, req: LaunchRequest, result: LaunchResult,
                   ) -> Generator[Any, Any, None]:
        yield from self._fan_out(req, result, req.cluster.front_end,
                                 list(enumerate(req.nodes)))

    def _fan_out(self, req: LaunchRequest, result: LaunchResult,
                 origin: Node, targets: list,
                 ) -> Generator[Any, Any, None]:
        """Split ``targets`` into ``fanout`` slices that ``origin`` spawns
        in parallel."""
        sim = req.cluster.sim
        fanout = max(2, req.fanout)
        slices = [targets[k::fanout]
                  for k in range(min(fanout, len(targets)))]
        yield sim.all_of([
            sim.process(self._subtree(req, result, origin, s),
                        name="tree-rsh")
            for s in slices])

    def _subtree(self, req: LaunchRequest, result: LaunchResult,
                 origin: Node, targets: list,
                 ) -> Generator[Any, Any, None]:
        """rsh the first target from ``origin``; it spawns the rest.

        ``targets`` holds ``(index, node)`` pairs so the per-index
        request hooks (args_for / image_mb_for / post_spawn) see each
        daemon's position in ``req.nodes`` despite the tree order. A
        failed head's remaining targets re-root here at ``origin`` (the
        nearest live ancestor) unless the launch has stopped.
        """
        while targets:
            if result.report.failure and req.policy is None:
                return
            (i, head), targets = targets[0], targets[1:]
            proc = yield from self._spawn(req, result, i, head, origin)
            if proc is None:
                # self-repair: origin adopts the failed head's remaining
                # subtree
                continue
            if targets:
                yield from self._fan_out(req, result, head, targets)
            return


class RmBulkStrategy(LaunchStrategy):
    """The RM's efficient daemon launch: all nodes fork in parallel.

    Models the per-node half of ``spawn_daemons`` (Section 3.1): every node
    stages the daemon image through the storage layer and forks it locally,
    in parallel across nodes. The RM-protocol half (controller bookkeeping,
    launch-tree descent) stays with the resource manager, which adds it to
    the report's spawn phase.

    All-or-nothing without a policy: a failed spawn interrupts the
    in-flight workers, reaps the daemons already forked, and re-raises --
    a failed set must not leave orphan processes squatting on the nodes.
    Under a policy each node's worker absorbs its own failures and the set
    completes with whatever survived, attributed per index.
    """

    name = "rm-bulk"
    all_or_nothing = True

    def _spawn_all(self, req: LaunchRequest, result: LaunchResult,
                   ) -> Generator[Any, Any, None]:
        sim = req.cluster.sim
        workers = [sim.process(self._spawn(req, result, i, node, None),
                               name=f"spawn:{node.name}")
                   for i, node in enumerate(req.nodes)]
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
            for i in sorted(result.slots):
                result.slots[i].exit(9)
            raise
        # the workers finish in any order; list the set in request order
        result.slots = dict(sorted(result.slots.items()))


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
