"""Simulated cluster nodes: process tables, fork/exec, and rshd service.

Two behaviours here carry the paper's arguments:

* **Bounded process tables.** ``Node.fork_exec`` fails with
  :class:`ForkError` once ``max_user_procs`` concurrent processes exist for a
  user. The ad-hoc MRNet launcher keeps one rsh client per daemon alive on
  the front end, so at 512 daemons the fork fails -- exactly the failure the
  paper observed (Section 5.2).
* **Restricted node-local services.** MPP-style systems (BG/L, Cray XT)
  don't run rshd on compute nodes; ``Node.rshd_enabled = False`` makes any
  rsh-based launcher fail with :class:`RemoteExecError`, which is the
  portability argument for RM-based launching (Section 2).

A third behaviour supports the fault model (:mod:`repro.cluster.faults`):
a node can *fail* (:meth:`Node.fail`), after which every process on it is
killed, registered daemon bodies are interrupted, and any later
fork/rsh against it raises :class:`NodeDown`. Straggler nodes scale their
local fork/exec costs by ``cost_factor`` (1.0 -- the exact identity -- when
healthy, so fault-free runs are bit-identical).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.simx import Interrupt, SeededRNG, Simulator
from repro.cluster.costs import CostModel
from repro.cluster.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["ForkError", "Node", "NodeDown", "NodeTaggedError",
           "RemoteExecError"]


class NodeTaggedError(OSError):
    """An OS-level failure attributable to one host.

    ``node`` names the culpable host; the launch layer consults it to
    decide whether an exhausted failure condemns the *target* node on the
    blacklist -- a source-side failure (the front end's own process table
    filling) carries the source's name and must not blacklist a healthy
    target. Every spawn-path fault exception derives from this class so
    the attribution is a typed guarantee, not a ``getattr`` convention.
    """

    def __init__(self, *args, node: str = ""):
        super().__init__(*args)
        self.node = node


class ForkError(NodeTaggedError):
    """fork() failed (process table exhausted) -- models EAGAIN.

    ``node`` is the host the fork failed *on* -- for an rsh spawn that may
    be the source (forking the rsh client) rather than the target.
    """


class RemoteExecError(NodeTaggedError):
    """Remote execution service unavailable or connection refused.

    ``node`` names the unreachable target."""


class NodeDown(NodeTaggedError):
    """The node has failed (crashed / powered off): every local fork and
    every remote attempt against it fails until the end of the simulation.
    Injected by :mod:`repro.cluster.faults`. ``node`` names the dead
    host."""


class Node:
    """One host: name, cores, a bounded process table, optional rshd."""

    __slots__ = ("sim", "name", "cores", "costs", "rng", "max_user_procs",
                 "rshd_enabled", "cluster", "_next_pid", "procs",
                 "_uid_counts", "max_uid_procs_seen", "failed",
                 "fail_reason", "cost_factor", "_resident_bodies",
                 "_prune_at")

    def __init__(self, sim: Simulator, name: str, cores: int = 8,
                 costs: Optional[CostModel] = None,
                 rng: Optional[SeededRNG] = None,
                 max_user_procs: int = 400,
                 rshd_enabled: bool = True,
                 cluster: Optional["Cluster"] = None):
        self.sim = sim
        self.name = name
        self.cores = cores
        self.costs = costs or CostModel()
        self.rng = (rng or SeededRNG(0)).child(f"node:{name}")
        self.max_user_procs = max_user_procs
        self.rshd_enabled = rshd_enabled
        self.cluster = cluster
        self._next_pid = 1000
        self.procs: dict[int, SimProcess] = {}
        #: per-uid live process counts (for the user process-table bound)
        self._uid_counts: dict[str, int] = {}
        #: diagnostics: high-water mark of any single user's processes
        self.max_uid_procs_seen = 0
        #: fault state: a failed node rejects all fork/rsh with NodeDown
        self.failed = False
        self.fail_reason = ""
        #: straggler multiplier on local fork/exec costs (1.0 = healthy)
        self.cost_factor = 1.0
        #: simulation processes (daemon bodies, routers) hosted here, to be
        #: interrupted when the node fails -- see register_body()
        self._resident_bodies: list = []
        #: prune the resident list when it reaches this length (amortized
        #: O(1) per registration; a per-call aliveness scan was O(n))
        self._prune_at = 8

    # -- inspection -----------------------------------------------------------
    def user_proc_count(self, uid: str = "user") -> int:
        return self._uid_counts.get(uid, 0)

    def processes_of(self, executable_prefix: str = "") -> list[SimProcess]:
        """Live processes whose executable starts with the given prefix."""
        return [p for p in self.procs.values()
                if p.alive and p.executable.startswith(executable_prefix)]

    # -- failure ----------------------------------------------------------
    def register_body(self, sim_proc) -> None:
        """Register a simulation process (a daemon body, a TBON router)
        as *resident* on this node, so :meth:`fail` can interrupt it --
        code does not keep running on dead hardware. Finished residents
        are pruned when the list doubles past its last post-prune size
        (amortized O(1) per registration), bounding the list on
        long-lived nodes that host many generations of daemons."""
        bodies = self._resident_bodies
        if len(bodies) >= self._prune_at:
            bodies = [body for body in bodies if body.is_alive]
            self._resident_bodies = bodies
            self._prune_at = max(8, 2 * len(bodies) + 1)
        bodies.append(sim_proc)

    def fail(self, reason: str = "node failure") -> tuple[int, int]:
        """Take the node down: kill every process (SIGKILL, freeing their
        process-table slots via the normal reap path), interrupt resident
        simulation bodies, and reject all later fork/rsh with
        :class:`NodeDown`. Returns ``(procs_killed, bodies_interrupted)``;
        idempotent."""
        if self.failed:
            return 0, 0
        self.failed = True
        self.fail_reason = reason
        killed = 0
        for proc in list(self.procs.values()):
            if proc.alive:
                proc.exit(137)
                killed += 1
        interrupted = 0
        for body in self._resident_bodies:
            if body.is_alive:
                # the interrupt is the body's death notice; defuse so an
                # uncaught Interrupt cannot detonate the whole run
                body.defuse()
                body.interrupt(f"{self.name}: {reason}")
                interrupted += 1
        self._resident_bodies.clear()
        if self.cluster is not None:
            self.cluster.notify_node_failed(self)
        return killed, interrupted

    # -- fork/exec ---------------------------------------------------------------
    def fork_exec(self, executable: str, args: tuple = (),
                  uid: str = "user", image_mb: float = 2.0,
                  ) -> Generator[Any, Any, SimProcess]:
        """fork+exec a new process; a generator costing virtual time.

        Raises :class:`ForkError` immediately (before any time passes) if the
        user's process-table quota is exhausted -- fork returns EAGAIN without
        blocking on real systems -- and :class:`NodeDown` if the node has
        failed (including mid-fork: a node dying under a fork in flight
        returns the reserved slot and raises).
        """
        if self.failed:
            raise NodeDown(f"fork on {self.name}: node is down "
                           f"({self.fail_reason})", node=self.name)
        count = self._uid_counts.get(uid, 0)
        if count >= self.max_user_procs:
            raise ForkError(
                f"fork on {self.name}: user {uid!r} at process limit "
                f"({count}/{self.max_user_procs})", node=self.name)
        self._uid_counts[uid] = count + 1
        self.max_uid_procs_seen = max(self.max_uid_procs_seen, count + 1)

        try:
            yield self.sim.timeout(
                self.rng.jitter(self.costs.fork_exec * self.cost_factor,
                                self.costs.fork_jitter))
        except BaseException:
            # fork aborted (e.g. the spawning process was interrupted):
            # return the reserved process-table slot
            self._uid_counts[uid] = max(0, self._uid_counts.get(uid, 1) - 1)
            raise
        if self.failed:
            # the node died while the fork was in flight
            self._uid_counts[uid] = max(0, self._uid_counts.get(uid, 1) - 1)
            raise NodeDown(f"fork on {self.name}: node died mid-fork "
                           f"({self.fail_reason})", node=self.name)

        pid = self._next_pid
        self._next_pid += 1
        proc = SimProcess(self.sim, self, pid, executable, args,
                          uid=uid, image_mb=image_mb)
        self.procs[pid] = proc
        return proc

    def _reap(self, proc: SimProcess) -> None:
        """Internal: account a process exit against the user's quota."""
        if proc.pid in self.procs:
            del self.procs[proc.pid]
            remaining = self._uid_counts.get(proc.uid, 0) - 1
            if remaining > 0:
                self._uid_counts[proc.uid] = remaining
            else:
                self._uid_counts.pop(proc.uid, None)

    # -- remote execution (rshd) ---------------------------------------------------
    def rsh_spawn(self, target: "Node", executable: str, args: tuple = (),
                  uid: str = "user", image_mb: float = 2.0,
                  hold_client: bool = True,
                  ) -> Generator[Any, Any, tuple[Optional[SimProcess], SimProcess]]:
        """Launch ``executable`` on ``target`` through an rsh-like service.

        Models the full ad-hoc path: fork a local rsh client, connect and
        authenticate to the remote rshd, remote fork+exec. Returns
        ``(client_process, remote_process)``. With ``hold_client=True`` (the
        MRNet behaviour) the client stays alive to carry the remote stdio,
        pinning a process-table slot on this node for the daemon's lifetime.

        Raises :class:`RemoteExecError` if the target runs no rshd (or on a
        transient injected link fault), :class:`NodeDown` if the target has
        failed, and propagates :class:`ForkError` from the local fork.
        """
        if not target.rshd_enabled:
            raise RemoteExecError(
                f"{target.name}: connection refused (no remote access "
                f"service on this platform)", node=target.name)
        if target.failed:
            raise NodeDown(f"{target.name}: no route to host "
                           f"({target.fail_reason})", node=target.name)
        client = yield from self.fork_exec(
            "rsh", args=(target.name, executable), uid=uid, image_mb=0.5)
        try:
            yield self.sim.timeout(
                self.rng.jitter(self.costs.rsh_fork_overhead))
            if (self.cluster is not None
                    and self.cluster.faults.rsh_attempt_fails(self, target)):
                # transient link fault: the connect attempt is paid for,
                # then resets; the client exits so its slot is not leaked
                yield self.sim.timeout(
                    self.rng.jitter(self.costs.rsh_connect))
                client.exit(1)
                raise RemoteExecError(
                    f"{self.name} -> {target.name}: connection reset "
                    f"(transient link fault)", node=target.name)
            # connection + authentication round trips
            yield self.sim.timeout(self.rng.jitter(self.costs.rsh_connect))
            remote = yield from target.fork_exec(
                executable, args=args, uid=uid, image_mb=image_mb)
        except (NodeDown, Interrupt, GeneratorExit):
            # the target died under the connection, or the whole attempt
            # was aborted (e.g. a per-daemon launch timeout): tear the
            # client down so its process-table slot cannot leak. The
            # historical remote-ForkError leak is deliberately preserved
            # (the ad-hoc clients really did linger on such failures).
            if client.alive:
                client.exit(1)
            raise
        if not hold_client:
            client.exit(0)
            client = None
        return client, remote

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} procs={len(self.procs)}>"
