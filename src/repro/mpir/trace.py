"""Ptrace-style process tracing over simulated processes.

The LaunchMON Engine must act as a debugger on the RM launcher process:
attach, set ``MPIR_being_debugged``, run it to ``MPIR_Breakpoint``, then
read the proctable out of its address space. :class:`TracedProcess` provides
exactly those verbs with per-operation costs from the cluster cost model.

Reading the RPDTAB is deliberately word-granular: each proctable entry
requires several remote reads (pointers, then each string), which is why
Region B of the paper's model is linear in task count.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cluster.process import DebugEvent, SimProcess
from repro.mpir.rpdtab import RPDTAB, ProcDesc
from repro.mpir import symbols as S

__all__ = ["TraceError", "TracedProcess"]


class TraceError(RuntimeError):
    """Tracing misuse or target-state violations."""


class TracedProcess:
    """A debugger's handle on one simulated process.

    All operations are generators advancing virtual time; costs come from
    the target node's :class:`~repro.cluster.costs.CostModel`. Only one
    tracer may hold a process at a time (matching ptrace semantics).
    """

    def __init__(self, target: SimProcess):
        self.target = target
        self.attached = False
        #: count of word-granular remote reads performed (model validation)
        self.words_read = 0
        #: count of debug events consumed
        self.events_seen = 0

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> Generator[Any, Any, None]:
        """Attach to the target (ptrace ATTACH + wait for stop)."""
        if self.target.traced_by is not None:
            raise TraceError(
                f"{self.target!r} already traced by {self.target.traced_by!r}")
        if not self.target.alive:
            raise TraceError(f"cannot attach to dead process {self.target!r}")
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_attach)
        self.target.traced_by = self
        self.attached = True
        self.target.stop()

    def detach(self) -> Generator[Any, Any, None]:
        """Detach and let the target run freely again."""
        self._check()
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_continue)
        self.target.traced_by = None
        self.attached = False
        self.target.resume()

    # -- execution control -------------------------------------------------------
    def cont(self) -> Generator[Any, Any, None]:
        """Resume the stopped target."""
        self._check()
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_continue)
        self.target.resume()

    def wait_event(self) -> Generator[Any, Any, DebugEvent]:
        """Block until the target delivers its next native debug event."""
        self._check()
        event = yield self.target.debug_events.get()
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_trap)
        self.events_seen += 1
        self.target.stop()
        return event

    # -- memory access ---------------------------------------------------------------
    def read_symbol(self, name: str) -> Generator[Any, Any, Any]:
        """Read one scalar symbol from the target's address space."""
        self._check()
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_word_read)
        self.words_read += 1
        if name not in self.target.memory:
            raise TraceError(f"symbol {name!r} not found in "
                             f"{self.target.executable}")
        return self.target.memory[name]

    def write_symbol(self, name: str, value: Any) -> Generator[Any, Any, None]:
        """Write one scalar symbol into the target's address space."""
        self._check()
        costs = self.target.node.costs
        yield self.target.sim.timeout(costs.ptrace_word_read)
        self.words_read += 1
        self.target.memory[name] = value

    def read_proctable(self) -> Generator[Any, Any, RPDTAB]:
        """Fetch the full RPDTAB, word-granular (Region B of the model).

        Each entry costs: one pointer-struct read plus one read per string
        (host and executable names) -- three word-read units per task.
        """
        self._check()
        costs = self.target.node.costs
        sim = self.target.sim
        size = yield from self.read_symbol(S.MPIR_PROCTABLE_SIZE)
        raw = self.target.memory.get(S.MPIR_PROCTABLE)
        if raw is None:
            raise TraceError("MPIR_proctable not published by launcher")
        if len(raw) != size:
            raise TraceError(
                f"MPIR_proctable_size={size} but table has {len(raw)} entries")
        entries: list[ProcDesc] = []
        # 3 remote reads per entry: the fixed struct, then the two strings.
        per_entry = 3 * costs.ptrace_word_read
        # batch the timeout per 64 entries to keep the event count sane at
        # 10^4 tasks while preserving the exact linear cost
        batch = 64
        for start in range(0, size, batch):
            chunk = raw[start:start + batch]
            yield sim.timeout(per_entry * len(chunk))
            self.words_read += 3 * len(chunk)
            entries.extend(chunk)
        return RPDTAB(entries)

    # -- helpers --------------------------------------------------------------------
    def _check(self) -> None:
        if not self.attached or self.target.traced_by is not self:
            raise TraceError("operation on non-attached tracer")
