"""Launch matrix: strategy x image-staging-mode sweep over daemon counts.

Crosses the unified launch layer's mechanisms (``serial-rsh``, ``tree-rsh``,
``rm-bulk`` -- the Figure 6 axis generalized beyond STAT) with the storage
layer's staging modes (``shared-fs``, ``cache``, ``broadcast``). Each cell
launches a heavyweight daemon set cold, then relaunches it onto the
now-warm nodes, reporting the per-phase breakdown both times:

* ``shared-fs`` reproduces the paper's linear image-distribution term;
* ``cache`` leaves cold launches unchanged but makes warm relaunches skip
  the filesystem (multi-tenant tool services relaunch constantly);
* ``broadcast`` turns the cold O(N) shared-FS term into one FS read plus an
  O(log N) cooperative distribution tree.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.cluster import ClusterSpec
from repro.launch import LaunchRequest, get_strategy, strategy_names
from repro.rm.base import DaemonSpec
from repro.runner import drive, make_env
from repro.experiments.common import (
    ExperimentResult, idle_context_factory, idle_daemon)
from repro.experiments.sweep import map_grid

__all__ = ["DAEMON_IMAGE_MB", "measure_launch_cell", "run_launch_matrix"]

#: a STAT-class heavyweight daemon package (binary + tool libraries)
DAEMON_IMAGE_MB = 15.0

STAGINGS = ("shared-fs", "cache", "broadcast")


def _measure_rsh(env, strategy_name: str, n_daemons: int, image_mb: float,
                 ) -> Generator[Any, Any, tuple]:
    strat = get_strategy(strategy_name)
    nodes = env.cluster.compute[:n_daemons]

    def request():
        return LaunchRequest(
            cluster=env.cluster, nodes=nodes, executable="toold",
            image_mb=image_mb, stage_images=True, hold_clients=False)

    cold = yield from strat.launch(request())
    for proc in cold.procs:
        proc.exit(0)
    warm = yield from strat.launch(request())
    for proc in warm.procs:
        proc.exit(0)
    return cold.report, warm.report


def _measure_rm_bulk(env, n_daemons: int, image_mb: float,
                     ) -> Generator[Any, Any, tuple]:
    spec = DaemonSpec("toold", main=idle_daemon, image_mb=image_mb)
    factory = idle_context_factory(env.sim)
    reports = []
    for _ in range(2):
        alloc = env.rm.allocate(n_daemons)
        daemons, _fabric, report = yield from env.rm.spawn_on_allocation(
            alloc, spec, factory)
        reports.append(report)
        for d in daemons:
            if d.proc is not None and d.proc.alive:
                d.proc.exit(0)
        env.rm.release(alloc)
    return reports[0], reports[1]


def measure_launch_cell(strategy: str, staging: str, n_daemons: int,
                        image_mb: float = DAEMON_IMAGE_MB,
                        seed: int = 1, env_factory=make_env) -> dict:
    """One matrix cell: cold launch + warm relaunch reports as a dict.

    ``env_factory`` must match :func:`~repro.runner.make_env`'s signature
    (e.g. :func:`repro.fleet.make_fleet_member_env`): the bit-identity
    regression runs the same cell through a single-member fleet and holds
    the output byte-equal.
    """
    env = env_factory(
        n_compute=n_daemons,
        spec=ClusterSpec(n_compute=n_daemons, staging_mode=staging,
                         seed=seed))

    def scenario(env):
        if strategy == "rm-bulk":
            return (yield from _measure_rm_bulk(env, n_daemons, image_mb))
        return (yield from _measure_rsh(env, strategy, n_daemons, image_mb))

    cold, warm = drive(env, scenario(env))
    return {
        "strategy": strategy, "staging": staging, "daemons": n_daemons,
        "image_mb": image_mb,
        "total": cold.total, "t_spawn": cold.t_spawn,
        "t_image_stage": cold.t_image_stage,
        "warm_total": warm.total, "warm_t_image_stage": warm.t_image_stage,
        "cold_report": cold.as_dict(), "warm_report": warm.as_dict(),
    }


def _lmx_point(strategy: str, staging: str, n: int,
               image_mb: float) -> dict:
    """One matrix cell as a result-table row (worker-safe)."""
    cell = measure_launch_cell(strategy, staging, n, image_mb=image_mb)
    return {
        "daemons": n, "strategy": strategy, "staging": staging,
        "total": cell["total"], "t_spawn": cell["t_spawn"],
        "t_image_stage": cell["t_image_stage"],
        "warm_total": cell["warm_total"],
    }


def run_launch_matrix(daemon_counts: Sequence[int] = (64, 256, 512),
                      strategies: Sequence[str] = None,
                      stagings: Sequence[str] = STAGINGS,
                      image_mb: float = DAEMON_IMAGE_MB,
                      jobs: int = 1) -> ExperimentResult:
    """The full strategy x staging sweep (per-phase scaling attribution)."""
    strategies = tuple(strategies or strategy_names())
    result = ExperimentResult(
        exp_id="lmx",
        title="Launch matrix: strategy x image staging, "
              f"{image_mb:.0f} MB daemon image",
        columns=["daemons", "strategy", "staging", "total", "t_spawn",
                 "t_image_stage", "warm_total"],
    )
    grid = [dict(strategy=strategy, staging=staging, n=n, image_mb=image_mb)
            for n in daemon_counts
            for strategy in strategies
            for staging in stagings]
    result.rows = map_grid(_lmx_point, grid, jobs=jobs)
    result.notes.append(
        "broadcast staging collapses the cold image-stage term from O(N) "
        "serialized shared-FS reads to one read + O(log N) node-to-node "
        "rounds; cache staging leaves cold launches unchanged but makes "
        "warm relaunches skip the filesystem entirely")
    result.notes.append(
        "rsh strategies measured with hold_clients=False (the process-table "
        "collapse of held clients is Figure 6's subject, not this matrix's)")
    return result
