"""Crash-restart scenario engine for the control plane.

One scenario = one seeded workload driven through a
:class:`~repro.ctl.daemon.ControlPlane`, killed at a randomized
lifecycle point, restarted after a downtime, driven to completion, and
then audited: every session must end **re-adopted or cleanly reaped --
never relaunched, never leaked**. The audits are independent of the
restore's own bookkeeping (the relaunch audit compares job and daemon
identities across the restart; the ledger audits are
:func:`repro.audit.ledger_violations`, recounting from the RM and the
cluster), so a restore that lies to its report still fails the scenario.

Scenario variants (selected by the config, exercised across seeds by
the soak test and the ``ctl`` experiment):

* plain restart under load (kill while launching / serving)
* drain begun before the crash (kill mid-drain)
* node-fault weather (a :class:`~repro.cluster.FaultPlan` crashing
  nodes under a repair-enabled :class:`~repro.launch.LaunchPolicy`, so
  the kill can land mid-repair and adopt DEGRADED trees)
* tight admission gate (``max_in_flight=1``: the kill lands on queued,
  not-yet-admitted work)

The submitter retries :class:`~repro.ctl.errors.CtlUnavailable` with a
backoff, exactly like a CLI looping on "connection refused" while the
daemon restarts -- so every scenario also exercises the daemon's
refuse-while-down behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.audit import Violation, ledger_violations, total
from repro.cluster import ClusterSpec, FaultPlan
from repro.ctl.daemon import ControlPlane
from repro.ctl.errors import CtlUnavailable
from repro.fe.session import LIVE_STATES, TERMINAL_STATES, SessionState
from repro.launch import LaunchPolicy
from repro.runner import drive, make_env
from repro.simx.rng import SeededRNG

__all__ = ["CrashResult", "CrashScenario", "run_crash_restart",
           "scenario_for_seed"]


@dataclass
class CrashScenario:
    """One seeded crash-restart run's configuration."""

    seed: int = 0
    n_sessions: int = 5
    nodes_per_session: int = 3
    #: 0 = size the cluster to fit every session plus fault headroom
    n_compute: int = 0
    max_in_flight: Optional[int] = 3
    #: every k-th session uses the TBON ``overlay`` recipe (0 = never)
    overlay_every: int = 3
    #: per-node crash probability (0 = fault-free weather)
    fault_rate: float = 0.0
    #: begin a graceful drain before the kill lands
    drain_mid: bool = False
    #: virtual seconds between submissions (jittered)
    submit_gap: float = 0.3
    #: kill time is drawn uniform in (0.1, est_makespan)
    est_makespan: float = 8.0
    #: how long the control plane stays down before the restart
    downtime: float = 0.5
    #: explicit kill time (overrides the seeded draw; tests use this)
    t_kill: Optional[float] = None

    def resolved_n_compute(self) -> int:
        if self.n_compute:
            return self.n_compute
        return self.n_sessions * self.nodes_per_session + 5


@dataclass
class CrashResult:
    """One scenario's counters plus its verdict: ``ok`` iff no violations."""

    seed: int
    violations: List[Violation] = field(default_factory=list)
    t_kill: float = 0.0
    generations: int = 0
    submitted: int = 0
    rejected_submits: int = 0
    adopted: int = 0
    resubmitted: int = 0
    reaped_sessions: int = 0
    orphan_allocs_reaped: int = 0
    #: trees started over for an already-live session (must stay 0)
    relaunched: int = 0
    completed: int = 0
    failed_sessions: int = 0
    #: allocated nodes owned by no live session after recovery (must be 0)
    leaked_nodes_mid: int = 0
    #: allocated nodes after full teardown (must be 0)
    leaked_nodes_final: int = 0
    #: RM queue entries after full teardown (must be 0)
    queue_leak_final: int = 0
    #: free-node index consistent with cluster reality after teardown
    index_balanced: bool = True
    makespan: float = 0.0
    #: teardown errors (not a verdict: the final ledger audit decides)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def scenario_for_seed(seed: int, fault_rate: float = 0.08,
                      **overrides) -> CrashScenario:
    """The soak's scenario mix: rotate the variants by seed so a block of
    consecutive seeds covers launching, draining, mid-repair and gated
    kill points."""
    variant = seed % 4
    cfg = CrashScenario(seed=seed)
    if variant == 1:
        cfg.drain_mid = True
    elif variant == 2:
        cfg.fault_rate = fault_rate
    elif variant == 3:
        # serialized admission with rapid-fire submits: the FIFO gate
        # actually queues sessions, so kills land on gate-blocked ops and
        # exercise resubmit-on-restore plus the orphan-grant sweep
        cfg.max_in_flight = 1
        cfg.submit_gap = 0.05
        cfg.est_makespan = 2.0
    # second rotation: half the seeds kill early, inside the launch window,
    # so queued/spawning dispositions (resubmit, reap, orphan sweep) get as
    # much soak coverage as the easy adopt-a-ready-tree case
    if (seed // 4) % 2:
        cfg.est_makespan = min(cfg.est_makespan, 1.0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def run_crash_restart(cfg: CrashScenario) -> CrashResult:
    """Execute one scenario; see the module docstring for the shape."""
    rng = SeededRNG(cfg.seed, "ctl-crash")
    n_compute = cfg.resolved_n_compute()
    plan = None
    policy = None
    if cfg.fault_rate > 0.0:
        plan = FaultPlan(crash_rate=cfg.fault_rate,
                         crash_window=(0.0, cfg.est_makespan))
        policy = LaunchPolicy(per_daemon_timeout=5.0, max_retries=2,
                              retry_backoff=0.05, min_daemon_fraction=0.5,
                              handshake_timeout=30.0)
    env = make_env(
        n_compute=n_compute,
        spec=ClusterSpec(n_compute=n_compute, fault_plan=plan,
                         seed=cfg.seed + 1),
        seed=cfg.seed + 1,
        policy=policy)
    sim, rm, cluster = env.sim, env.rm, env.cluster

    control = ControlPlane(cluster, rm, max_in_flight=cfg.max_in_flight)
    control.cmd_start()

    res = CrashResult(seed=cfg.seed)
    tickets: List[int] = []

    def submitter():
        queue = list(range(cfg.n_sessions))
        i = 0
        while i < len(queue):
            idx = queue[i]
            use_overlay = (cfg.overlay_every
                           and idx % cfg.overlay_every == cfg.overlay_every - 1)
            tool = "overlay" if use_overlay else "generic-be"
            try:
                ctl_id = control.launch(tool, cfg.nodes_per_session)
            except CtlUnavailable:
                res.rejected_submits += 1
                yield sim.timeout(0.3)
                continue
            tickets.append(ctl_id)
            i += 1
            yield sim.timeout(rng.jitter(cfg.submit_gap, 0.5))

    sub_proc = sim.process(submitter(), name="ctl-submitter")

    t_kill = cfg.t_kill if cfg.t_kill is not None \
        else rng.uniform(0.1, cfg.est_makespan)
    res.t_kill = t_kill

    if cfg.drain_mid:
        t_drain = t_kill * rng.uniform(0.2, 0.9)

        def drainer():
            yield sim.timeout(t_drain)
            if control.running:
                yield from control.cmd_stop(drain=True)

        drain_proc = sim.process(drainer(), name="ctl-drainer")
        control.daemon._aux_procs.append(drain_proc)

    # phase 1: run under load until the kill lands
    sim.run(until=t_kill)
    pre_jobs = {}
    if control.daemon is not None:
        for ctl_id, cs in control.daemon.sessions.items():
            session = cs.session
            if session is not None and session.state in LIVE_STATES \
                    and session.job is not None:
                alive = [id(d.proc) for d in session.job.daemons
                         if d.proc is not None and d.proc.alive]
                if alive:
                    pre_jobs[ctl_id] = (session.job, frozenset(alive))
    control.crash()

    # phase 2: downtime -- the data plane keeps running headless; the
    # submitter's retries bounce off the dead daemon
    sim.run(until=t_kill + cfg.downtime)

    # phase 3: restart + restore. Only a tree still alive now must come
    # back adopted: one whose daemons all died during the downtime (e.g.
    # node faults) is reaped by restore, by design
    pre_jobs = {ctl_id: entry for ctl_id, entry in pre_jobs.items()
                if any(d.proc is not None and d.proc.alive
                       for d in entry[0].daemons)}
    control.cmd_start()
    daemon = control.daemon
    res.generations = control.generation
    report = daemon.restore_report
    if report is not None:
        res.adopted = report.adopted
        res.resubmitted = report.resubmitted
        res.reaped_sessions = report.reaped_sessions
        res.orphan_allocs_reaped = report.orphan_allocs_reaped
        res.relaunched = report.relaunched
        if report.relaunched:
            res.violations.append(
                Violation("relaunched", "restore", report.relaunched))

    # relaunch audit, independent of the restore's own report: every
    # session whose tree was alive at the kill and at the restart must
    # come back *adopted* onto the same job, with no daemon process that
    # was not there before (a new one means a respawn)
    for ctl_id, (job, proc_ids) in pre_jobs.items():
        cs = daemon.sessions.get(ctl_id)
        if cs is not None and cs.adopted and cs.session.job is job:
            now_alive = frozenset(id(d.proc) for d in job.daemons
                                  if d.proc is not None and d.proc.alive)
            if now_alive <= proc_ids:
                continue
        res.relaunched += 1
        res.violations.append(Violation("relaunched", f"ctl{ctl_id}", 1))

    # phase 4: drive the workload to completion under the new generation
    def finisher():
        if sub_proc.is_alive:
            yield sub_proc
        yield from daemon.service.settle()

    drive(env, finisher())
    res.submitted = len(tickets)
    if res.submitted != cfg.n_sessions:
        res.violations.append(Violation(
            "unsubmitted", "", cfg.n_sessions - res.submitted))

    # mid audit: after recovery every allocated node is owned by a live
    # session of the current generation
    held = {node.name for cs in daemon.sessions.values()
            if cs.session is not None
            and cs.session.state not in TERMINAL_STATES
            for alloc in cs.session.owned_allocs for node in alloc.nodes}
    mid = ledger_violations(rm, "after recovery", owned=held)
    res.violations += mid
    res.leaked_nodes_mid = total(mid, "leaked-nodes")
    res.completed = sum(1 for cs in daemon.sessions.values()
                        if cs.session is not None
                        and cs.session.state in LIVE_STATES)
    res.failed_sessions = sum(1 for cs in daemon.sessions.values()
                              if cs.session is not None
                              and cs.session.state is SessionState.FAILED)

    # phase 5: tear everything down through the session verbs, then stop
    def ender():
        for ctl_id in sorted(daemon.sessions):
            cs = daemon.sessions[ctl_id]
            if cs.session is not None and cs.session.state in LIVE_STATES:
                try:
                    yield from control.end(ctl_id)
                except Exception as exc:
                    # a failed teardown is not a scenario abort: the final
                    # node-accounting audit is the arbiter of whether it
                    # actually leaked anything
                    res.notes.append(f"ctl{ctl_id}: teardown failed: {exc}")
        result = yield from control.cmd_stop(drain=True)
        return result

    drive(env, ender())
    res.makespan = sim.now

    # final audit: node accounting balances to zero
    final = ledger_violations(rm, "after teardown")
    res.violations += final
    res.leaked_nodes_final = total(final, "leaked-nodes")
    res.queue_leak_final = total(final, "queued-requests")
    res.index_balanced = not total(final, "free-index")
    live = sum(1 for cs in daemon.sessions.values()
               if cs.session is None
               or cs.session.state not in TERMINAL_STATES)
    if live:
        res.violations.append(Violation("non-terminal", "after teardown",
                                        live))
    return res
