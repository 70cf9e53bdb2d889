"""Simulated OS processes with /proc-style statistics and debug events.

A :class:`SimProcess` is the unit everything else manipulates: MPI tasks,
RM launcher processes, tool daemons and rsh clients are all SimProcesses
living in some :class:`~repro.cluster.node.Node`'s process table.

For the MPIR/APAI substrate a process exposes:

* ``memory`` -- a symbol-addressed dictionary standing in for the process
  address space (``MPIR_proctable`` etc. live here);
* ``debug_events`` -- a Store into which the process pushes
  :class:`DebugEvent` records while traced (the Engine's trace loop waits
  on this, mirroring how LaunchMON waits on the RM process via the OS
  debugger interface).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.simx import Event, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["DebugEvent", "DebugEventType", "ProcState", "ProcStats", "SimProcess"]


class ProcState(enum.Enum):
    """Linux-style process states as /proc reports them."""

    RUNNING = "R"
    SLEEPING = "S"
    DISK_WAIT = "D"
    STOPPED = "T"
    ZOMBIE = "Z"


class ProcStats:
    """The /proc-derived statistics Jobsnap reports, one record per task.

    Mirrors the fields named in Section 5.1: personality (rank, executable),
    state (process state, program counter, thread count), memory statistics
    (virtual/physical high watermark, locked memory) and performance metrics
    (user time, system time, major page faults).
    """

    __slots__ = ("utime", "stime", "vm_size_kb", "vm_hwm_kb", "vm_rss_kb",
                 "vm_lck_kb", "maj_flt", "num_threads", "program_counter")

    def __init__(self) -> None:
        self.utime = 0.0
        self.stime = 0.0
        self.vm_size_kb = 0
        self.vm_hwm_kb = 0
        self.vm_rss_kb = 0
        self.vm_lck_kb = 0
        self.maj_flt = 0
        self.num_threads = 1
        self.program_counter = 0x400000


class DebugEventType(enum.Enum):
    """Native debug events a traced process can deliver."""

    BREAKPOINT = "breakpoint"
    FORK = "fork"
    EXEC = "exec"
    EXITED = "exited"


@dataclass
class DebugEvent:
    """One native debug event, as the Engine's trace loop receives it."""

    etype: DebugEventType
    pid: int
    detail: Any = None


#: the stack of a process no behaviour imprinted: one shared tuple
_ENTRY_STACK = ("_start", "main")


class SimProcess:
    """A process in a node's process table.

    Attributes of note:

    ``memory``
        symbol name -> value; the MPIR interface reads ``MPIR_proctable``
        and friends from here word-by-word (each read costs virtual time).
    ``call_stack``
        the current stack trace as a tuple, outermost frame first; STAT
        daemons sample this.
    ``stats``
        :class:`ProcStats` for /proc reads.
    ``debug_events``
        the :class:`~repro.simx.Store` a tracer takes debug events from.
    ``exit_event``
        triggers with the exit code when the process terminates.

    Memory contract: a process pays only for the state something uses.
    The exit event and the list of resume waiters are made on first
    use, so a process nothing waits on holds neither until it exits.
    :meth:`exit` makes its event before triggering it, so every exit
    still fires exactly one event. The debug-event store is made when a
    tracer first waits on it or the process first emits to one (in a
    launch, only the traced RM launcher), and :attr:`stats` when a
    behaviour, a CPU charge or a /proc read first needs it (the
    application's tasks, not the tool daemons). A process whose stack
    nothing set shares one entry-point tuple.
    """

    __slots__ = ("sim", "node", "pid", "executable", "args", "uid",
                 "image_mb", "state", "call_stack", "memory", "traced_by",
                 "exit_code", "_stats", "_debug_events", "_exit_event",
                 "_resume_waiters")

    def __init__(self, sim: Simulator, node: "Node", pid: int,
                 executable: str, args: tuple = (),
                 uid: str = "user", image_mb: float = 2.0):
        self.sim = sim
        self.node = node
        self.pid = pid
        self.executable = executable
        self.args = args
        self.uid = uid
        self.image_mb = image_mb
        self.state = ProcState.RUNNING
        self.call_stack: tuple[str, ...] = _ENTRY_STACK
        self.memory: dict[str, Any] = {}
        self.traced_by: Optional[object] = None
        self.exit_code: Optional[int] = None
        self._stats: Optional[ProcStats] = None
        self._debug_events: Optional[Store] = None
        self._exit_event: Optional[Event] = None
        self._resume_waiters: Optional[list[Event]] = None

    # -- identity ----------------------------------------------------------
    @property
    def host(self) -> str:
        return self.node.name

    @property
    def alive(self) -> bool:
        return self.exit_code is None

    @property
    def exit_event(self) -> Event:
        ev = self._exit_event
        if ev is None:
            ev = self._exit_event = self.sim.event()
        return ev

    @property
    def stats(self) -> ProcStats:
        stats = self._stats
        if stats is None:
            stats = self._stats = ProcStats()
        return stats

    @property
    def debug_events(self) -> Store:
        store = self._debug_events
        if store is None:
            store = self._debug_events = Store(self.sim)
        return store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimProcess {self.executable} pid={self.pid} on {self.host}>"

    # -- debug-event plumbing -----------------------------------------------
    def emit_debug_event(self, event: DebugEvent) -> None:
        """Deliver a native debug event to whoever is tracing this process."""
        if self.traced_by is not None:
            self.debug_events.put(event)

    def stop(self) -> None:
        self.state = ProcState.STOPPED

    def resume(self) -> None:
        if self.alive and self.state is ProcState.STOPPED:
            self.state = ProcState.RUNNING
            waiters, self._resume_waiters = self._resume_waiters, None
            for ev in waiters or ():
                ev.succeed()

    def wait_resumed(self) -> Event:
        """Event that triggers next time a tracer resumes this process.

        The RM launcher uses this to block at ``MPIR_Breakpoint`` until the
        debugger (the LaunchMON Engine) continues it.
        """
        ev = self.sim.event()
        if self.state is not ProcState.STOPPED:
            ev.succeed()
        elif self._resume_waiters is None:
            self._resume_waiters = [ev]
        else:
            self._resume_waiters.append(ev)
        return ev

    # -- lifecycle -----------------------------------------------------------
    def exit(self, code: int = 0) -> None:
        """Terminate the process, freeing its process-table slot."""
        if not self.alive:
            return
        self.exit_code = code
        self.state = ProcState.ZOMBIE
        self.node._reap(self)
        self.emit_debug_event(DebugEvent(DebugEventType.EXITED, self.pid, code))
        # made here if nothing waited on it: every exit fires one event
        self.exit_event.succeed(code)

    # -- /proc-ish accounting --------------------------------------------------
    def account_cpu(self, user: float = 0.0, system: float = 0.0) -> None:
        """Accumulate CPU time into the /proc counters."""
        stats = self.stats
        stats.utime += user
        stats.stime += system

    def set_stack(self, frames: tuple[str, ...]) -> None:
        """Replace the sampled call stack (outermost first); stored as a
        tuple, so a tuple is kept as it is."""
        self.call_stack = tuple(frames)
