"""Figure 3: modeled vs measured launchAndSpawn performance breakdown.

The paper validates its analytic model on Atlas from 16 to 128 tool
daemons (8 MPI tasks per daemon): both model and measurement show
launchAndSpawn completing in under one second at 128 nodes, with LaunchMON
itself contributing only ~5.2% of the total; the tracing cost is a
scale-independent 18 ms and other scale-independent costs are 12 ms.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps import make_compute_app
from repro.be import minimal_daemon
from repro.fe import ToolFrontEnd
from repro.perfmodel import LaunchModel, ModelInputs
from repro.rm import DaemonSpec, SlurmConfig, SlurmRM
from repro.runner import drive, make_env
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["run_fig3", "measure_launch_and_spawn"]

DAEMON_IMAGE_MB = 1.0
TASKS_PER_DAEMON = 8


def measure_launch_and_spawn(n_daemons: int,
                             tasks_per_daemon: int = TASKS_PER_DAEMON,
                             slurm_config: SlurmConfig | None = None,
                             seed: int = 1):
    """One measured launchAndSpawn; returns the session's ComponentTimes."""
    kwargs = {}
    if slurm_config is not None:
        kwargs["config"] = slurm_config
    env = make_env(n_compute=n_daemons, seed=seed, **kwargs)
    app = make_compute_app(n_tasks=n_daemons * tasks_per_daemon,
                           tasks_per_node=tasks_per_daemon)
    spec = DaemonSpec("lmon_bench_be", main=minimal_daemon,
                      image_mb=DAEMON_IMAGE_MB)
    box = {}

    def tool(env):
        fe = ToolFrontEnd(env.cluster, env.rm, "bench")
        yield from fe.init()
        session = fe.create_session()
        yield from fe.launch_and_spawn(session, app, spec)
        box["times"] = session.times
        box["timeline"] = session.timeline
        yield from fe.detach(session)

    drive(env, tool(env))
    return box["times"], box["timeline"], env


def _fig3_point(n: int, tasks_per_daemon: int) -> dict:
    """One grid point: measured + modeled launchAndSpawn at ``n`` daemons."""
    model = LaunchModel(slurm=SlurmConfig())
    times, _tl, _env = measure_launch_and_spawn(n, tasks_per_daemon)
    predicted = model.predict(ModelInputs(
        n_daemons=n, tasks_per_daemon=tasks_per_daemon,
        daemon_image_mb=DAEMON_IMAGE_MB, app_image_mb=4.0))
    return {
        "daemons": n,
        "measured_total": times.total,
        "model_total": predicted.total,
        "T(job)": times.t_job,
        "T(daemon)+T(setup)": times.t_daemon + times.t_setup,
        "T(collective)": times.t_collective,
        "tracing": times.t_trace,
        "rpdtab(B)": times.t_rpdtab,
        "handshake(C)": times.t_handshake,
        "other": times.t_other,
        "lmon_frac": times.launchmon_fraction(),
    }


def run_fig3(daemon_counts: Sequence[int] = (16, 32, 48, 64, 80, 96, 112, 128),
             tasks_per_daemon: int = TASKS_PER_DAEMON,
             jobs: int = 1) -> ExperimentResult:
    """Regenerate Figure 3's modeled and measured series."""
    result = ExperimentResult(
        exp_id="fig3",
        title="launchAndSpawn modeled vs measured breakdown "
              f"({tasks_per_daemon} MPI tasks per daemon)",
        columns=["daemons", "measured_total", "model_total",
                 "T(job)", "T(daemon)+T(setup)", "T(collective)",
                 "tracing", "rpdtab(B)", "handshake(C)", "other",
                 "lmon_frac"],
        paper_reference={
            "total_at_128": "< 1 s",
            "launchmon_share_at_128": "~5.2%",
            "tracing_cost": "18 ms at any scale",
            "other_scale_independent": "12 ms",
        },
    )
    grid = [dict(n=n, tasks_per_daemon=tasks_per_daemon)
            for n in daemon_counts]
    result.rows = map_grid(_fig3_point, grid, jobs=jobs)
    last = result.rows[-1]
    result.notes.append(
        f"at {last['daemons']} daemons: measured {last['measured_total']:.3f}s "
        f"(paper: <1 s), LaunchMON share {100 * last['lmon_frac']:.1f}% "
        f"(paper: ~5.2%)")
    result.notes.append(
        f"tracing cost {last['tracing'] * 1000:.1f} ms, scale-independent "
        f"(paper: 18 ms)")
    return result
