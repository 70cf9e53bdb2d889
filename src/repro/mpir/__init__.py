"""repro.mpir -- the MPIR / Automatic Process Acquisition Interface (APAI).

Resource managers expose parallel-job information to debuggers through the
de-facto MPIR interface: the launcher process publishes ``MPIR_proctable``
(the Remote Process Descriptor Table, RPDTAB in the paper), sets
``MPIR_debug_state`` and calls ``MPIR_Breakpoint`` when the job is stable.
A tool attaches to the launcher like a debugger, waits for the breakpoint,
and reads the table out of the launcher's address space word by word.

This package provides:

* :class:`ProcDesc` / :class:`RPDTAB` -- the proctable with real binary
  serialization (the same bytes travel inside LMONP messages);
* :class:`TracedProcess` -- ptrace-style attach/continue/read-memory over
  simulated processes, with per-operation virtual-time costs;
* MPIR symbol-name constants.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.mpir.rpdtab": ("ProcDesc", "RPDTAB"),
    "repro.mpir.trace": ("TraceError", "TracedProcess"),
    "repro.mpir.symbols": ("MPIR_BEING_DEBUGGED", "MPIR_BREAKPOINT",
                           "MPIR_DEBUG_STATE", "MPIR_PROCTABLE",
                           "MPIR_PROCTABLE_SIZE", "MPIR_DEBUG_SPAWNED",
                           "MPIR_NULL"),
})

__all__ = [
    "MPIR_BEING_DEBUGGED",
    "MPIR_BREAKPOINT",
    "MPIR_DEBUG_STATE",
    "MPIR_DEBUG_SPAWNED",
    "MPIR_NULL",
    "MPIR_PROCTABLE",
    "MPIR_PROCTABLE_SIZE",
    "ProcDesc",
    "RPDTAB",
    "TraceError",
    "TracedProcess",
]
