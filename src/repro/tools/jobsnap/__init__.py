"""Jobsnap: a distributed application-state snapshot tool (Section 5.1).

Jobsnap gathers each MPI task's personality (rank, executable), state
(process state, program counter, thread count), memory statistics (virtual/
physical high watermark, locked memory) and performance metrics (user time,
system time, major page faults), presenting one concise text line per task.

The implementation follows Figure 4's choreography exactly: the front end
attaches and spawns lightweight back-end daemons (step 1), each daemon
collects /proc snapshots for the local tasks named in its RPDTAB slice
(step 2), a master daemon gathers the records over ICCL (step 3), merges
them and emits the report, then signals *work-done* to the front end
(step 4). The paper built this in ~100 front-end + ~500 back-end lines;
ours is of the same order.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.tools.jobsnap.tool": ("JobsnapReport", "JobsnapResult",
                                 "run_jobsnap"),
    "repro.tools.jobsnap.tbon_variant": ("run_jobsnap_tbon",),
})

__all__ = ["JobsnapReport", "JobsnapResult", "run_jobsnap",
           "run_jobsnap_tbon"]
