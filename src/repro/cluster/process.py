"""Simulated OS processes with /proc-style statistics and debug events.

A :class:`SimProcess` is the unit everything else manipulates: MPI tasks,
RM launcher processes, tool daemons and rsh clients are all SimProcesses
living in some :class:`~repro.cluster.node.Node`'s process table.

For the MPIR/APAI substrate a process exposes:

* ``memory`` -- a symbol-addressed dictionary standing in for the process
  address space (``MPIR_proctable`` etc. live here);
* ``debug_events`` -- a Store into which the process pushes
  :class:`DebugEvent` records while traced (the Engine's EventManager polls
  this, mirroring how LaunchMON waits on the RM process via the OS debugger
  interface).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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


@dataclass
class ProcStats:
    """The /proc-derived statistics Jobsnap reports, one record per task.

    Mirrors the fields named in Section 5.1: personality (rank, executable),
    state (process state, program counter, thread count), memory statistics
    (virtual/physical high watermark, locked memory) and performance metrics
    (user time, system time, major page faults).
    """

    utime: float = 0.0
    stime: float = 0.0
    vm_size_kb: int = 0
    vm_hwm_kb: int = 0
    vm_rss_kb: int = 0
    vm_lck_kb: int = 0
    maj_flt: int = 0
    num_threads: int = 1
    program_counter: int = 0x400000


class DebugEventType(enum.Enum):
    """Native debug events a traced process can deliver."""

    STOPPED_AT_ENTRY = "stopped-at-entry"
    BREAKPOINT = "breakpoint"
    FORK = "fork"
    EXEC = "exec"
    SIGNAL = "signal"
    EXITED = "exited"


@dataclass
class DebugEvent:
    """One native debug event (decoded later by the Engine's EventDecoder)."""

    etype: DebugEventType
    pid: int
    detail: Any = None


class SimProcess:
    """A process in a node's process table.

    Attributes of note:

    ``memory``
        symbol name -> value; the MPIR interface reads ``MPIR_proctable``
        and friends from here word-by-word (each read costs virtual time).
    ``call_stack``
        the current stack trace, innermost frame last; STAT daemons sample
        this.
    ``stats``
        :class:`ProcStats` for /proc reads.
    ``exit_event``
        triggers with the exit code when the process terminates.

    Memory contract: the exit event and the list of resume waiters are
    made on first use, so a process nothing waits on holds neither until
    it exits. :meth:`exit` makes its event before triggering it, so every
    exit still fires exactly one event.
    """

    __slots__ = ("sim", "node", "pid", "executable", "args", "uid",
                 "image_mb", "state", "stats", "call_stack", "memory",
                 "traced_by", "debug_events", "exit_code", "_exit_event",
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
        self.stats = ProcStats()
        self.call_stack: list[str] = ["_start", "main"]
        self.memory: dict[str, Any] = {}
        self.traced_by: Optional[object] = None
        self.debug_events: Store = Store(sim)
        self.exit_code: Optional[int] = None
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
        self.stats.utime += user
        self.stats.stime += system

    def set_stack(self, frames: list[str]) -> None:
        """Replace the sampled call stack (innermost last)."""
        self.call_stack = list(frames)
