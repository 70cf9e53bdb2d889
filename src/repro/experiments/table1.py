"""Table 1: O|SS APAI access times -- DPCL vs LaunchMON.

Paper numbers: DPCL takes 33.77-34.66 s from 2 to 32 nodes (a large, nearly
flat constant dominated by fully parsing the RM binary); the LaunchMON
Instrumentor takes 0.604-0.626 s over the same range.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps import make_compute_app
from repro.runner import drive, make_env
from repro.tools.oss import (
    DpclInfrastructure,
    DpclInstrumentor,
    LaunchmonInstrumentor,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["run_table1", "measure_apai_access"]

TASKS_PER_NODE = 8


def measure_apai_access(n_nodes: int, tasks_per_node: int = TASKS_PER_NODE,
                        seed: int = 1) -> dict:
    """Time both instrumentors' APAI acquisition on one job."""
    env = make_env(n_compute=n_nodes, seed=seed)
    app = make_compute_app(n_tasks=n_nodes * tasks_per_node,
                           tasks_per_node=tasks_per_node)

    def scenario(env):
        # admin action, before any tool session (not timed): root daemons
        dpcl = DpclInfrastructure(env.cluster)
        yield from dpcl.preinstall()
        job = yield from env.rm.launch_job(app, env.rm.allocate(n_nodes))

        old = DpclInstrumentor(env.cluster, dpcl)
        r_dpcl = yield from old.acquire_apai(job)

        new = LaunchmonInstrumentor(env.cluster, env.rm)
        r_lmon = yield from new.acquire_apai(job)

        assert r_dpcl.proctable == r_lmon.proctable
        return {"dpcl": r_dpcl, "launchmon": r_lmon}

    return drive(env, scenario(env))


def _table1_point(n: int, tasks_per_node: int) -> dict:
    """One grid point: both instrumentors' APAI access at ``n`` nodes."""
    r = measure_apai_access(n, tasks_per_node)
    return {
        "nodes": n,
        "DPCL": r["dpcl"].t_access,
        "LaunchMON": r["launchmon"].t_access,
        "improvement": r["dpcl"].t_access / r["launchmon"].t_access,
        "dpcl_root_daemons": r["dpcl"].used_root_daemons,
    }


def run_table1(node_counts: Sequence[int] = (2, 4, 8, 16, 32),
               tasks_per_node: int = TASKS_PER_NODE,
               jobs: int = 1) -> ExperimentResult:
    """Regenerate Table 1."""
    result = ExperimentResult(
        exp_id="table1",
        title="O|SS APAI access times (seconds)",
        columns=["nodes", "DPCL", "LaunchMON", "improvement",
                 "dpcl_root_daemons"],
        paper_reference={
            "dpcl_row": "33.77 / 34.27 / 34.31 / 34.32 / 34.66 s",
            "launchmon_row": "0.606 / 0.627 / 0.604 / 0.617 / 0.626 s",
        },
    )
    grid = [dict(n=n, tasks_per_node=tasks_per_node) for n in node_counts]
    result.rows = map_grid(_table1_point, grid, jobs=jobs)
    first, last = result.rows[0], result.rows[-1]
    result.notes.append(
        f"DPCL flat at ~{last['DPCL']:.1f}s (paper ~34 s: full RM binary "
        f"parse); LaunchMON flat at ~{last['LaunchMON']:.2f}s (paper ~0.6 s)")
    result.notes.append(
        f"constant-factor improvement ~{last['improvement']:.0f}x "
        f"(paper ~55x)")
    return result
