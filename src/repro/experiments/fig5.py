"""Figure 5: Jobsnap performance vs scale.

The paper runs Jobsnap on Atlas up to 1024 daemons (8192 tasks): under
1.5 s total at 4096 tasks, 2.92 s at 8192 tasks of which 2.76 s is the
LaunchMON init->attachAndSpawn span; the last doubling's extra cost is
attributed to sub-optimal RM scaling at that size (our controller
congestion term reproduces it).
"""

from __future__ import annotations

from typing import Sequence

from repro.apps import make_compute_app
from repro.runner import drive, make_env
from repro.tools.jobsnap import run_jobsnap
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["run_fig5", "measure_jobsnap"]

TASKS_PER_DAEMON = 8


def measure_jobsnap(n_daemons: int, tasks_per_daemon: int = TASKS_PER_DAEMON,
                    seed: int = 1):
    """Run Jobsnap against a freshly launched job of the given size."""
    env = make_env(n_compute=n_daemons, seed=seed)
    app = make_compute_app(n_tasks=n_daemons * tasks_per_daemon,
                           tasks_per_node=tasks_per_daemon)

    def scenario(env):
        job = yield from env.rm.launch_job(app, env.rm.allocate(n_daemons))
        return (yield from run_jobsnap(env.cluster, env.rm, job))

    return drive(env, scenario(env))


def _fig5_point(n: int, tasks_per_daemon: int) -> dict:
    """One grid point: a full Jobsnap run at ``n`` daemons."""
    r = measure_jobsnap(n, tasks_per_daemon)
    return {
        "daemons": n,
        "tasks": r.n_tasks,
        "jobsnap_total": r.t_total,
        "init_to_attachAndSpawn": r.t_launchmon,
        "collection_share": r.t_total - r.t_launchmon,
        "lines": len(r.report),
    }


def run_fig5(daemon_counts: Sequence[int] = (64, 128, 256, 512, 768, 1024),
             tasks_per_daemon: int = TASKS_PER_DAEMON,
             jobs: int = 1) -> ExperimentResult:
    """Regenerate Figure 5's two series (total and LaunchMON share)."""
    result = ExperimentResult(
        exp_id="fig5",
        title="Jobsnap performance "
              f"({tasks_per_daemon} MPI tasks per daemon)",
        columns=["daemons", "tasks", "jobsnap_total",
                 "init_to_attachAndSpawn", "collection_share", "lines"],
        paper_reference={
            "total_at_512_daemons(4096_tasks)": "< 1.5 s",
            "total_at_1024_daemons(8192_tasks)": "2.92 s",
            "launchmon_at_1024_daemons": "2.76 s",
        },
    )
    grid = [dict(n=n, tasks_per_daemon=tasks_per_daemon)
            for n in daemon_counts]
    result.rows = map_grid(_fig5_point, grid, jobs=jobs)
    by_daemons = {row["daemons"]: row for row in result.rows}
    if 1024 in by_daemons:
        row = by_daemons[1024]
        result.notes.append(
            f"at 8192 tasks: total {row['jobsnap_total']:.2f}s "
            f"(paper 2.92 s), LaunchMON {row['init_to_attachAndSpawn']:.2f}s "
            f"(paper 2.76 s)")
    if 512 in by_daemons:
        result.notes.append(
            f"at 4096 tasks: total {by_daemons[512]['jobsnap_total']:.2f}s "
            f"(paper: < 1.5 s)")
    return result
