"""Resilience sweep: fault rate x launch strategy x repair on/off.

The paper's Figure 6 compares launch mechanisms on a cluster where every
node behaves. This experiment runs the same session-level launch
(``attachAndSpawn`` through the LaunchMON engine) on a cluster that
*misbehaves*: a :class:`~repro.cluster.FaultPlan` crashes a seeded random
fraction of the compute nodes while the daemon set is spawning. The
``repair`` axis toggles the recovery structure
(:class:`~repro.launch.LaunchPolicy`: per-daemon timeout, bounded retry
with backoff, node blacklisting, a ``min_daemon_fraction`` acceptance
threshold, and -- for ``tree-rsh`` -- launch-time subtree re-rooting):

* **repair off** (no policy, ``on_failure="stop"``): any node crash fails
  the whole launch -- the rsh strategies stop at the first dead node,
  ``rm-bulk`` aborts the set, and the session lands in ``FAILED``;
* **repair on**: the launch absorbs the crashes (retry, blacklist, route
  around), completes with the surviving daemons, and the session lands in
  ``DEGRADED`` -- with every missing daemon index attributed in
  ``session.launch_report`` (outcomes / retries / blacklisted).

Crashes are armed at ``attachAndSpawn`` submission and land inside the
spawn window (60% of the fault-free spawn time, measured per cell), which
is where a scale-dependent fault is most likely to hit a bulk launch.
:func:`measure_tbon_repair` separately measures the TBON overlay's
self-repair (orphaned subtrees reparenting to the nearest live ancestor),
landing the cost in a report's ``t_repair`` phase.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Generator, Optional, Sequence

from repro.apps import make_compute_app
from repro.be import minimal_daemon
from repro.cluster import ClusterSpec, FaultPlan
from repro.fe import ToolFrontEnd
from repro.launch import LaunchPolicy, LaunchReport
from repro.rm.base import DaemonSpec
from repro.runner import drive, make_env
from repro.tbon import Overlay, TBONTopology
from repro.tbon.overlay import StreamSpec
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = [
    "default_policy",
    "measure_resilient_launch",
    "measure_tbon_repair",
    "run_resilience",
]

#: a STAT-class tool daemon package for the resilience runs (MB)
DAEMON_IMAGE_MB = 8.0

STRATEGIES = ("serial-rsh", "tree-rsh", "rm-bulk")

#: ceiling for one cell's virtual runtime before it is declared hung
CELL_DEADLINE = 3600.0


def default_policy(n_daemons: int) -> LaunchPolicy:
    """The sweep's repair-on policy, scaled to the daemon count.

    The per-daemon timeout must exceed a healthy daemon's worst-case
    attempt (image staging queues on the shared FS grow linearly with the
    set size), so it scales with ``n_daemons``; the acceptance threshold
    tolerates up to 20% losses before declaring the session FAILED.
    """
    return LaunchPolicy(
        per_daemon_timeout=max(5.0, 0.03 * n_daemons),
        max_retries=2,
        retry_backoff=0.05,
        min_daemon_fraction=0.8,
        handshake_timeout=60.0,
    )


def measure_resilient_launch(strategy: str, n_daemons: int,
                             fault_rate: float, repair: bool,
                             image_mb: float = DAEMON_IMAGE_MB,
                             seed: int = 1,
                             spawn_window: Optional[float] = None) -> dict:
    """One sweep cell: a full session-level launch under injected crashes.

    Returns the session's final state, the end-to-end attach duration, and
    the launch report's per-phase + per-index attribution as a dict.
    """
    policy = default_policy(n_daemons) if repair else None
    plan = None
    if fault_rate > 0.0:
        window = spawn_window if spawn_window is not None else 1.0
        plan = FaultPlan(crash_rate=fault_rate,
                         crash_window=(0.0, max(0.25, 0.6 * window)),
                         auto_arm=False)
    env = make_env(
        n_compute=n_daemons,
        spec=ClusterSpec(n_compute=n_daemons, fault_plan=plan, seed=seed),
        policy=policy,
        launch_strategy=None if strategy == "rm-bulk" else strategy)
    app = make_compute_app(n_tasks=n_daemons * 2, tasks_per_node=2)
    spec = DaemonSpec("res_toold", main=minimal_daemon,
                      image_mb=image_mb)
    box: dict = {}

    def scenario(env):
        fe = ToolFrontEnd(env.cluster, env.rm, "res")
        yield from fe.init()
        job = yield from env.rm.launch_job(app, env.rm.allocate(n_daemons))
        if env.cluster.faults is not None:
            env.cluster.faults.arm()
        t0 = env.sim.now
        session = fe.create_session()
        try:
            yield from fe.attach_and_spawn(session, job, spec)
        except Exception as exc:
            box["state"] = "failed"
            box["error"] = str(exc)
            box["t_attach"] = env.sim.now - t0
            return
        box["state"] = session.state.value
        box["t_attach"] = env.sim.now - t0
        yield from fe.detach(session, reclaim_job=True)

    try:
        drive(env, scenario(env), until=CELL_DEADLINE)
    except RuntimeError:
        box.setdefault("state", "hung")
        box.setdefault("t_attach", CELL_DEADLINE)
    report: Optional[LaunchReport] = env.rm.last_launch_report
    faults = env.cluster.faults
    state = box.get("state", "hung")
    # a failed cell has NO daemons up -- the below-fraction spawn reaped
    # its survivors before raising (report.n_daemons is the pre-reap count)
    up = report.n_daemons if (report and state not in ("failed", "hung")) \
        else 0
    return {
        "strategy": strategy, "daemons": n_daemons,
        "fault_rate": fault_rate, "repair": repair,
        "state": state,
        "error": box.get("error", ""),
        "t_attach": box.get("t_attach", 0.0),
        "up": up,
        "n_failed": report.n_failed if report else 0,
        "n_retried": report.n_retried if report else 0,
        "blacklisted": list(report.blacklisted) if report else [],
        "report": report.as_dict() if report else None,
        "outcomes": dict(report.outcomes) if report else {},
        "fault_stats": asdict(faults.stats) if faults else None,
    }


def measure_tbon_repair(n_backends: int = 64, fanout: int = 8,
                        n_comm_kill: int = 2, seed: int = 1) -> dict:
    """Kill internal TBON nodes, self-repair, verify a reduction wave.

    Builds a balanced FE -> comm -> BE overlay, crashes ``n_comm_kill``
    communication nodes, runs :meth:`Overlay.repair` (orphans reconnect to
    the nearest live ancestor), folds the cost into a report's
    ``t_repair`` phase, and proves the repaired tree still merges one
    payload per surviving leaf.
    """
    topo = TBONTopology.balanced(n_backends, fanout=fanout)
    comms = topo.comm_positions()
    n_comm_kill = min(n_comm_kill, max(0, len(comms) - 1))
    env = make_env(n_compute=n_backends + len(comms), seed=seed)
    placement = {0: env.cluster.front_end}
    for i, pos in enumerate(comms):
        placement[pos] = env.cluster.compute[i]
    for i, pos in enumerate(topo.backends()):
        placement[pos] = env.cluster.compute[len(comms) + i]
    overlay = Overlay(env.sim, env.cluster.network, topo, placement,
                      streams={1: StreamSpec(1, "concat")})
    overlay.start_routers()
    report = LaunchReport("tbon-repair", n_daemons=topo.size - 1,
                          requested=topo.size - 1)
    box: dict = {}

    def scenario(env):
        for pos in comms[:n_comm_kill]:
            placement[pos].fail("injected comm-node crash")
        repair = yield from overlay.repair()
        report.t_repair += repair.t_repair
        # the repaired tree must still reduce a full wave
        root = overlay.endpoint(0)
        for pos in overlay.live_backends():
            env.sim.process(overlay.endpoint(pos).send_wave(1, 1, [pos]),
                            name=f"wave:{pos}")
        pkt = yield from root.collect_wave()
        box["merged"] = len(pkt.payload)
        box["repair"] = repair

    drive(env, scenario(env), until=CELL_DEADLINE)
    repair = box["repair"]
    return {
        "backends": n_backends, "fanout": fanout,
        "comm_killed": n_comm_kill,
        "n_reparented": repair.n_reparented,
        "t_repair": repair.t_repair,
        "leaves_before": n_backends,
        "leaves_after": len(overlay.live_backends()),
        "wave_merged": box["merged"],
        "report": report.as_dict(),
    }


def _res_block(strategy: str, n: int, fault_rates: tuple,
               repair_modes: tuple, image_mb: float) -> list:
    """One (strategy, daemons) block of the sweep, as result-table rows.

    The block is the natural parallel grain: its cells share the measured
    fault-free baseline (the crash-window measure), so they must run in
    one worker; blocks are fully independent of each other.
    """
    # the fault-free baseline doubles as the crash-window measure: the
    # window must sit inside the spawn phase regardless of strategy (a
    # serial-rsh spawn is two orders of magnitude longer than an rm-bulk
    # one), so estimate nothing -- measure
    baseline = measure_resilient_launch(
        strategy, n, 0.0, False, image_mb=image_mb)
    window = (baseline["report"] or {}).get("total", 1.0)
    rows = []
    for rate in fault_rates:
        for repair in repair_modes:
            if rate == 0.0 and not repair:
                cell = baseline
            else:
                cell = measure_resilient_launch(
                    strategy, n, rate, repair, image_mb=image_mb,
                    spawn_window=window)
            rows.append({
                "daemons": n, "strategy": strategy, "fault_rate": rate,
                "repair": repair, "state": cell["state"], "up": cell["up"],
                "n_failed": cell["n_failed"],
                "n_retried": cell["n_retried"],
                "t_attach": cell["t_attach"],
            })
    return rows


def run_resilience(daemon_counts: Sequence[int] = (128,),
                   fault_rates: Sequence[float] = (0.0, 0.02, 0.05),
                   strategies: Sequence[str] = STRATEGIES,
                   repair_modes: Sequence[bool] = (False, True),
                   image_mb: float = DAEMON_IMAGE_MB,
                   jobs: int = 1) -> ExperimentResult:
    """The full fault-rate x strategy x repair sweep (session level)."""
    result = ExperimentResult(
        exp_id="res",
        title="Resilient launch: session state under injected node "
              f"crashes, {image_mb:.0f} MB daemon image",
        columns=["daemons", "strategy", "fault_rate", "repair", "state",
                 "up", "n_failed", "n_retried", "t_attach"],
    )
    grid = [dict(strategy=strategy, n=n, fault_rates=tuple(fault_rates),
                 repair_modes=tuple(repair_modes), image_mb=image_mb)
            for n in daemon_counts
            for strategy in strategies]
    for block in map_grid(_res_block, grid, jobs=jobs):
        result.rows.extend(block)
    result.notes.append(
        "repair=True runs under LaunchPolicy (per-daemon timeout, bounded "
        "retry with backoff, node blacklisting, min_daemon_fraction=0.8): "
        "crashes during the spawn window leave the session DEGRADED with "
        "every missing daemon attributed; repair=False is the legacy "
        "contract, where any crash fails the whole session")
    result.notes.append(
        "crash windows cover 60% of each cell's measured fault-free spawn "
        "phase, so faults land where bulk launches are most exposed; "
        "tree-rsh additionally re-roots a failed head's subtree at its "
        "live ancestor (launch-time TBON-style self-repair)")
    return result
