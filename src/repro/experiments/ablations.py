"""Ablation studies for the design choices DESIGN.md calls out.

A1 -- *RM debug-event scaling*: the paper credits SLURM's fixed event
stream (no per-task events) for LaunchMON's constant 18 ms tracing cost;
the legacy behaviour makes tracing linear in task count.

A2 -- *ICCL topology*: flat vs binomial vs k-ary fabric shapes for the
handshake collectives.

A3 -- *launcher mechanism*: sequential rsh vs tree rsh vs the RM's native
daemon launch, generalizing Figure 6 beyond STAT.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.fe import ToolFrontEnd
from repro.launch import LaunchRequest, get_strategy
from repro.rm import DaemonSpec, SlurmConfig, SlurmRM
from repro.runner import drive, make_env
from repro.experiments.common import ExperimentResult
from repro.experiments.fig3 import measure_launch_and_spawn
from repro.experiments.sweep import map_grid

__all__ = ["run_ablation_iccl", "run_ablation_jobsnap_tbon",
           "run_ablation_launchers", "run_ablation_rm_events"]


def _a1_point(n: int) -> dict:
    fixed, _, _ = measure_launch_and_spawn(n)
    legacy, _, _ = measure_launch_and_spawn(
        n, slurm_config=SlurmConfig(legacy_events=True))
    return {
        "daemons": n, "tasks": 8 * n,
        "fixed_trace": fixed.t_trace, "legacy_trace": legacy.t_trace,
        "fixed_total": fixed.total, "legacy_total": legacy.total,
    }


def run_ablation_rm_events(daemon_counts: Sequence[int] = (16, 64, 128),
                           jobs: int = 1) -> ExperimentResult:
    """A1: tracing cost under fixed vs legacy RM debug-event streams."""
    result = ExperimentResult(
        exp_id="A1",
        title="RM debug-event scaling: tracing cost (s), fixed vs legacy",
        columns=["daemons", "tasks", "fixed_trace", "legacy_trace",
                 "fixed_total", "legacy_total"],
    )
    result.rows = map_grid(_a1_point, [dict(n=n) for n in daemon_counts],
                           jobs=jobs)
    result.notes.append(
        "fixed stream keeps tracing ~18 ms at all scales; legacy grows "
        "linearly with task count (the pre-fix SLURM behaviour)")
    return result


def _a2_point(n: int, topologies: tuple) -> dict:
    row = {"daemons": n}
    for topo in topologies:
        times, _, _ = measure_launch_and_spawn(
            n, slurm_config=SlurmConfig(iccl_topology=topo))
        row[topo] = times.t_setup + times.t_collective
    return row


def run_ablation_iccl(daemon_counts: Sequence[int] = (16, 64, 256),
                      topologies: Sequence[str] = ("flat", "binomial", "kary"),
                      jobs: int = 1) -> ExperimentResult:
    """A2: handshake phases under different ICCL fabric topologies."""
    result = ExperimentResult(
        exp_id="A2",
        title="ICCL topology ablation: T(setup)+T(collective) (s)",
        columns=["daemons"] + [f"{t}" for t in topologies],
    )
    result.rows = map_grid(
        _a2_point,
        [dict(n=n, topologies=tuple(topologies)) for n in daemon_counts],
        jobs=jobs)
    result.notes.append(
        "per-record root processing dominates at scale, so topology mainly "
        "moves the latency term; flat trees also concentrate accept load "
        "at the master")
    return result


def _a4_point(n: int, n_waves: int) -> dict:
    from repro.tools.jobsnap import run_jobsnap, run_jobsnap_tbon

    app = make_compute_app(n_tasks=8 * n, tasks_per_node=8)

    env = make_env(n_compute=n)

    def classic(env=env, app=app, n=n):
        job = yield from env.rm.launch_job(app, env.rm.allocate(n))
        return (yield from run_jobsnap(env.cluster, env.rm, job))

    c = drive(env, classic())

    env = make_env(n_compute=n + max(2, n // 16))

    def tbon(env=env, app=app, n=n):
        job = yield from env.rm.launch_job(app, env.rm.allocate(n))
        return (yield from run_jobsnap_tbon(
            env.cluster, env.rm, job, n_waves=n_waves))

    t = drive(env, tbon())
    iccl_collect = c.t_total - c.t_launchmon
    tbon_collect = t.component_times["t_collect_per_wave"]
    return {
        "daemons": n,
        "iccl_collect": iccl_collect,
        "tbon_collect_per_wave": tbon_collect,
        "collect_speedup": iccl_collect / tbon_collect,
        "iccl_startup": c.t_launchmon,
        "tbon_startup": t.t_launchmon,
    }


def run_ablation_jobsnap_tbon(daemon_counts: Sequence[int] = (64, 256, 512),
                              n_waves: int = 3,
                              jobs: int = 1) -> ExperimentResult:
    """A4: Jobsnap collection -- ICCL gather vs TBON reduction.

    Implements and evaluates the paper's stated future work (Section 5.1):
    a TBON architecture for Jobsnap's collection/printing phase. The TBON
    pays an extra middleware launch once, then each snapshot wave collects
    through the tree without the master-daemon bottleneck -- the win
    compounds for monitoring-style repeated snapshots.
    """
    result = ExperimentResult(
        exp_id="A4",
        title="Jobsnap collection: ICCL gather vs TBON reduction (s)",
        columns=["daemons", "iccl_collect", "tbon_collect_per_wave",
                 "collect_speedup", "iccl_startup", "tbon_startup"],
    )
    result.rows = map_grid(
        _a4_point,
        [dict(n=n, n_waves=n_waves) for n in daemon_counts], jobs=jobs)
    result.notes.append(
        "the TBON removes the master-daemon collection bottleneck (linear "
        "per-record processing) at the cost of one extra middleware "
        "launch; repeated snapshot waves amortize that launch")
    return result


def _idle_daemon(ctx):
    yield ctx.sim.timeout(0)


def _a3_point(n: int) -> dict:
    # sequential rsh holding every client open (the MRNet way), then tree
    # rsh; a launch that stopped short has no time
    t_rsh = {}
    for strategy, hold_clients in (("serial-rsh", True), ("tree-rsh", False)):
        env = make_env(n_compute=n)
        r = drive(env, get_strategy(strategy).launch(LaunchRequest(
            cluster=env.cluster, nodes=env.cluster.compute,
            executable="toold", image_mb=1.0, hold_clients=hold_clients)))
        t_rsh[strategy] = None if r.report.n_failed else r.report.total

    # RM native spawn (through a full attachAndSpawn minus handshake)
    env = make_env(n_compute=n)
    app = make_compute_app(n_tasks=8 * n, tasks_per_node=8)

    def native(env=env, app=app):
        job = yield from env.rm.launch_job(app, env.rm.allocate(
            app.nodes_needed()))
        spec = DaemonSpec("toold", main=_idle_daemon, image_mb=1.0)

        def factory(d, ds, fab):
            class Ctx:
                sim = env.sim
            return Ctx()

        t0 = env.sim.now
        yield from env.rm.spawn_daemons(job, spec, factory)
        return env.sim.now - t0

    return {"daemons": n, "rsh_sequential": t_rsh["serial-rsh"],
            "rsh_tree": t_rsh["tree-rsh"], "rm_native": drive(env, native())}


def run_ablation_launchers(daemon_counts: Sequence[int] = (16, 64, 256),
                           jobs: int = 1) -> ExperimentResult:
    """A3: daemon launch mechanisms head-to-head (time to all spawned)."""
    result = ExperimentResult(
        exp_id="A3",
        title="Launcher mechanisms: time to spawn N daemons (s)",
        columns=["daemons", "rsh_sequential", "rsh_tree", "rm_native"],
    )
    result.rows = map_grid(_a3_point, [dict(n=n) for n in daemon_counts],
                           jobs=jobs)
    result.notes.append(
        "tree rsh removes the linear client loop but keeps every other "
        "ad-hoc weakness (rshd required, manual placement); the RM path "
        "is both fastest and the only one that works on MPP systems")
    return result
