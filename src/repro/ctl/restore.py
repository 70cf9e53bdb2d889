"""Checkpoint restore: re-adopt, resubmit, or reap -- never relaunch.

A restarting :class:`~repro.ctl.daemon.CtlDaemon` faces three kinds of
checkpointed session, and one kind of state the checkpoint *cannot*
describe:

**Adoptable** (``ready`` / ``degraded`` / ``mw-ready``)
    The daemon tree, overlay and allocations are data plane: they
    survived the control-plane death and are still running headless.
    The restore builds a fresh :class:`~repro.fe.session.LMONSession`
    and rebinds it to the surviving RM job (``job.daemons``,
    ``job.overlay``, ``job.mw_runtimes``, the ledger allocations named
    by the record) -- the tree is **never relaunched**. Adopted sessions
    are engine-free: overlay streaming and reap-style teardown work;
    LMONP verbs do not.

**Resubmittable** (``queued`` -- includes CREATED)
    No tree existed yet. The record's
    :class:`~repro.ctl.registry.LaunchSpec` is resubmitted through the
    registry under the *same* ctl id, in ctl-id (submission) order so
    FIFO fairness is preserved.

**Reapable** (``spawning``)
    Mid-launch at the crash: the set died with its traced launcher (the
    RM aborted the job -- see the crash policy in
    :mod:`repro.ctl.daemon`). Whatever that abort left behind is swept.

**Orphan allocations** (in no record)
    A crash freezes queued async requesters *without* withdrawing their
    RM queue entries; a later release can still grant one -- nodes
    handed to a waiter that no longer exists. The RM-side
    ``live_allocations`` ledger (the RM outlives the control plane,
    like a real SLURM controller) is the ground truth: after claims,
    every unclaimed allocation is reaped -- stray processes on its nodes
    ended (the RM epilogue) and the nodes released. The restore
    therefore assumes the control plane is the sole allocation client
    of its RM, which is the deployment model throughout this repo.

The restore runs synchronously at daemon start, before the daemon
admits new work, so no new allocation can race the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.ctl.checkpoint import Checkpoint, SessionRecord, decode_checkpoint
from repro.ctl.registry import LaunchSpec
from repro.fe.session import LMONSession, SessionState
from repro.rm.base import Allocation, ResourceManager, RMJob

__all__ = ["RestoreReport", "reap_session_resources", "restore",
           "restore_from_store"]


@dataclass
class RestoreReport:
    """Audit trail of one restore: every record and orphan accounted for."""

    generation: int
    checkpoint_generation: int = 0
    checkpoint_sessions: int = 0
    adopted: int = 0
    resubmitted: int = 0
    reaped_sessions: int = 0
    orphan_allocs_reaped: int = 0
    orphan_nodes_reaped: int = 0
    stray_procs_killed: int = 0
    queue_entries_withdrawn: int = 0
    blacklist_applied: int = 0
    #: daemon trees started over for an already-live session -- the
    #: invariant this whole subsystem exists to keep at zero
    relaunched: int = 0
    notes: List[str] = field(default_factory=list)


_ADOPT_STATES = {
    "ready": SessionState.READY,
    "degraded": SessionState.DEGRADED,
    "mw-ready": SessionState.MW_READY,
}


def _reap_job_procs(job: RMJob, code: int = 9) -> int:
    """End a dead job's remaining processes (tasks, daemons, launcher)."""
    killed = 0
    for task in job.tasks:
        if task.alive:
            task.exit(code)
            killed += 1
    for d in job.daemons:
        if d.proc is not None and d.proc.alive:
            d.proc.exit(code)
            killed += 1
    if job.launcher is not None and job.launcher.alive:
        job.launcher.exit(code)
        killed += 1
    return killed


def _reap_allocation(rm: ResourceManager, alloc: Allocation,
                     code: int = 9) -> int:
    """The RM epilogue: end every process still on the allocation's
    nodes, then return the nodes to the free pool. Idempotent."""
    killed = 0
    for node in alloc.nodes:
        for proc in list(node.processes_of("")):
            if proc.alive:
                proc.exit(code)
                killed += 1
    if alloc.alloc_id in rm.live_allocations:
        rm.release(alloc)
    return killed


def reap_session_resources(rm: ResourceManager, session: LMONSession,
                           code: int = 0) -> int:
    """Engine-free teardown of an adopted session: end its job's
    processes, sweep its allocations' nodes, release the allocations."""
    killed = 0
    if session.job is not None:
        killed += _reap_job_procs(session.job, code=code)
    while session.owned_allocs:
        alloc = session.owned_allocs.pop()
        killed += _reap_allocation(rm, alloc, code=code)
    return killed


def _adopt(daemon, rec: SessionRecord, job: RMJob,
           allocs: List[Allocation]):
    """Rebind a fresh session to the surviving tree (no relaunch)."""
    from repro.ctl.daemon import CtlSession

    session = LMONSession(rec.tool_name)
    session.adopted = True
    session.job = job
    session.daemons = list(job.daemons)
    session.owned_allocs = list(allocs)
    session.overlay = job.overlay
    session.mw_runtimes = list(job.mw_runtimes)
    session.launch_report = job.daemon_spawn_report
    # the task set is still running: the proctable can be rebuilt exactly
    session.rpdtab = job.build_proctable()
    session.state = _ADOPT_STATES[rec.state]

    spec = LaunchSpec(rec.tool, rec.n_nodes, rec.params)
    cs = CtlSession(rec.ctl_id, spec, submitted_at=rec.submitted_at)
    cs.session = session
    cs.adopted = True
    daemon.sessions[rec.ctl_id] = cs
    daemon._by_session[session.id] = cs
    daemon._next_ctl_id = max(daemon._next_ctl_id, rec.ctl_id + 1)
    session.register_status_cb(daemon._on_transition)
    return cs


def restore_from_store(daemon) -> RestoreReport:
    """Decode the store's latest checkpoint and restore from it."""
    return restore(daemon, decode_checkpoint(daemon.store.read()))


def restore(daemon, cp: Checkpoint) -> RestoreReport:
    rm: ResourceManager = daemon.rm
    rep = RestoreReport(generation=daemon.generation,
                        checkpoint_generation=cp.generation,
                        checkpoint_sessions=len(cp.sessions))

    # 1. the async queue holds entries whose requesters died with the old
    #    generation; purge them before anything here releases nodes, or
    #    the releases would pump fresh grants into the void
    rep.queue_entries_withdrawn = rm.withdraw_all_queued()

    # 2. the blacklist is daemon policy state: reapply it before any
    #    release re-indexes nodes as free
    for name in cp.blacklist:
        if name not in rm.node_blacklist:
            rm.node_blacklist.add(name)
            rep.blacklist_applied += 1

    daemon._next_ctl_id = max(daemon._next_ctl_id, cp.next_ctl_id)

    jobs_by_id = {job.jobid: job for job in rm.jobs}
    jobs_by_alloc = {job.allocation.alloc_id: job for job in rm.jobs}
    claimed = set()

    # 3. per-record disposition, in ctl-id (submission) order
    for rec in cp.sessions:
        if rec.state == "queued":
            spec = LaunchSpec(rec.tool, rec.n_nodes, rec.params)
            daemon.submit(spec, ctl_id=rec.ctl_id, resubmitted=True)
            rep.resubmitted += 1
            continue
        job = jobs_by_id.get(rec.jobid)
        allocs = [rm.live_allocations[a] for a in rec.alloc_ids
                  if a in rm.live_allocations]
        if rec.state == "spawning":
            # died with its launcher; sweep what the abort left behind
            if job is not None:
                rep.stray_procs_killed += _reap_job_procs(job)
            for alloc in allocs:
                rep.orphan_nodes_reaped += len(alloc.nodes)
                rep.stray_procs_killed += _reap_allocation(rm, alloc)
            rep.reaped_sessions += 1
            continue
        # ready / degraded / mw-ready: adopt iff the tree still lives
        tree_alive = job is not None and any(
            d.proc is not None and d.proc.alive for d in job.daemons)
        if not tree_alive or not allocs:
            if job is not None:
                rep.stray_procs_killed += _reap_job_procs(job)
            for alloc in allocs:
                rep.orphan_nodes_reaped += len(alloc.nodes)
                rep.stray_procs_killed += _reap_allocation(rm, alloc)
            rep.reaped_sessions += 1
            rep.notes.append(
                f"ctl{rec.ctl_id}: tree died while control plane was down")
            continue
        _adopt(daemon, rec, job, allocs)
        claimed.update(alloc.alloc_id for alloc in allocs)
        rep.adopted += 1

    # 4. orphan sweep: every ledger allocation no adopted session claimed
    #    belongs to no one -- grants into killed waiters, or sets whose
    #    records never reached "ready". Reap via the RM epilogue.
    for alloc_id in sorted(rm.live_allocations):
        if alloc_id in claimed:
            continue
        alloc = rm.live_allocations[alloc_id]
        job = jobs_by_alloc.get(alloc_id)
        if job is not None:
            rep.stray_procs_killed += _reap_job_procs(job)
        rep.orphan_allocs_reaped += 1
        rep.orphan_nodes_reaped += len(alloc.nodes)
        rep.stray_procs_killed += _reap_allocation(rm, alloc)

    return rep
