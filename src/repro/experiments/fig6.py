"""Figure 6: STAT start-up -- MRNet-native vs LaunchMON launch+connect.

Paper numbers (1-deep topology, 8 tasks per daemon): at 4 nodes MRNet-rsh
takes 0.77 s vs LaunchMON 0.46 s; at 256 nodes 60.8 s vs 3.57 s (an
order-of-magnitude improvement; 0.77 s of the LaunchMON figure is MRNet's
own handshake); at 512 nodes the ad-hoc approach consistently fails forking
rsh (it would need ~two minutes by linear extrapolation) while LaunchMON
launches everything in 5.6 s.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps import make_hang_app
from repro.perfmodel import fit_component_scaling
from repro.runner import drive, make_env
from repro.simx import AggregationPlan, auto_expand
from repro.tbon import StartupFailure
from repro.tools.stat_tool import run_stat_launchmon, run_stat_mrnet_native
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["run_fig6", "measure_stat_startup", "HYBRID_EXACT_HEAD"]

TASKS_PER_DAEMON = 8

#: daemons fully simulated at the head of a hybrid run: large enough to
#: anchor the model deltas past the RM's congestion knee and to contain
#: the hang scenario's special ranks, small enough that the simulated
#: work (events, launch and handshake) of a 1M-daemon run is that of a
#: 1k-daemon one. A 1M-daemon run costs about what a 4k-daemon hybrid
#: run does: the STAT prefix tree holds each aggregate span as one rank
#: run, so nothing grows with the modeled daemons
HYBRID_EXACT_HEAD = 1024

#: ranks make_hang_app treats specially (the deadlocked pair's rank 0 and
#: the stuck rank 1); their daemons must stay in the exact region
HANG_SPECIAL_RANKS = (0, 1)


def measure_stat_startup(n_daemons: int, mechanism: str,
                         tasks_per_daemon: int = TASKS_PER_DAEMON,
                         seed: int = 1, hybrid: bool = False,
                         exact_head: int = HYBRID_EXACT_HEAD,
                         env_factory=make_env) -> dict:
    """One STAT run; returns startup timing (or the failure record).

    ``hybrid=True`` (launchmon only) simulates only ``exact_head`` daemons
    plus every special position exactly and charges the rest from the
    validated launch-model terms -- virtual totals within the model's
    error band, class counts exact. The exactness boundary auto-expands
    around the scenario's special ranks.

    ``env_factory`` must match :func:`~repro.runner.make_env`'s signature
    (e.g. :func:`repro.fleet.make_fleet_member_env`): the bit-identity
    regression reruns the figure through a single-member fleet and holds
    the output byte-equal.
    """
    if hybrid and mechanism != "launchmon":
        raise ValueError("the hybrid tier rides the launchmon path only")
    n_exact = n_daemons
    plan = None
    if hybrid:
        plan = AggregationPlan.build(
            n_daemons, exact_head=min(exact_head, n_daemons))
        plan = auto_expand(
            plan, fault_leaves=(r // tasks_per_daemon
                                for r in HANG_SPECIAL_RANKS))
        n_exact = plan.n_exact
    env = env_factory(n_compute=n_exact, seed=seed)
    app = make_hang_app(n_tasks=n_exact * tasks_per_daemon,
                        tasks_per_node=tasks_per_daemon,
                        stuck_ranks=(1,), deadlocked_pair=True)
    box: dict = {}

    def scenario(env):
        job = yield from env.rm.launch_job(app, env.rm.allocate(n_exact))
        try:
            if mechanism == "mrnet":
                res = yield from run_stat_mrnet_native(env.cluster, env.rm,
                                                       job)
            else:
                res = yield from run_stat_launchmon(env.cluster, env.rm,
                                                    job, plan=plan)
            box["startup"] = res.startup
            box["classes"] = len(res.classes)
            box["n_tasks"] = res.n_tasks
        except StartupFailure as exc:
            box["failure"] = str(exc)
            box["spawned"] = exc.spawned

    drive(env, scenario(env))
    # kernel work done for this point -- scalecheck fits its growth
    # exponent alongside the virtual phase totals
    box["sim_events"] = env.sim.stats.events
    return box


def _fig6_point(n: int, tasks_per_daemon: int, hybrid: bool = False,
                via_fleet: bool = False) -> dict:
    """One grid point: both mechanisms at ``n`` daemons (worker-safe)."""
    if via_fleet:
        from repro.fleet import make_fleet_member_env
        factory = make_fleet_member_env
    else:
        factory = make_env
    if hybrid:
        mrnet: dict = {"failure": "skipped: hybrid tier models the "
                                  "launchmon path only", "spawned": 0}
    else:
        mrnet = measure_stat_startup(n, "mrnet", tasks_per_daemon,
                                     env_factory=factory)
    lmon = measure_stat_startup(n, "launchmon", tasks_per_daemon,
                                hybrid=hybrid, env_factory=factory)
    if "failure" in mrnet:
        status = ("skipped (hybrid)" if hybrid
                  else f"FAILED after {mrnet['spawned']} daemons (fork)")
        mrnet_t = None
    else:
        status = "ok"
        mrnet_t = mrnet["startup"].total
    lmon_t = lmon["startup"].total
    return {
        "daemons": n,
        "mrnet_1deep": mrnet_t,
        "launchmon_1deep": lmon_t,
        "mrnet_status": status,
        "speedup": (mrnet_t / lmon_t) if mrnet_t else None,
    }


def run_fig6(node_counts: Sequence[int] = (4, 32, 64, 128, 256, 512),
             tasks_per_daemon: int = TASKS_PER_DAEMON,
             jobs: int = 1, hybrid: bool = False,
             via_fleet: bool = False) -> ExperimentResult:
    """Regenerate Figure 6's two curves (plus the 512-node failure).

    ``via_fleet`` builds every point's machine as a single-member fleet
    (see :func:`repro.fleet.make_fleet_member_env`); the bit-identity
    regression asserts the output is unchanged.
    """
    result = ExperimentResult(
        exp_id="fig6",
        title="STAT start-up: MRNet-rsh vs LaunchMON launch+connect "
              "(1-deep topology)"
              + (" -- hybrid analytic/discrete tier" if hybrid else ""),
        columns=["daemons", "mrnet_1deep", "launchmon_1deep",
                 "mrnet_status", "speedup"],
        paper_reference={
            "mrnet_at_4": "0.77 s", "launchmon_at_4": "0.46 s",
            "mrnet_at_256": "60.8 s", "launchmon_at_256": "3.57 s",
            "mrnet_at_512": "fails forking rsh (~2 min if it worked)",
            "launchmon_at_512": "5.6 s",
        },
    )
    grid = [dict(n=n, tasks_per_daemon=tasks_per_daemon, hybrid=hybrid,
                 via_fleet=via_fleet)
            for n in node_counts]
    result.rows = map_grid(_fig6_point, grid, jobs=jobs)
    if hybrid:
        result.notes.append(
            f"hybrid tier: only {HYBRID_EXACT_HEAD} head daemons (plus "
            f"special positions) are simulated exactly; the remaining "
            f"spans' launch phases come from the validated LaunchModel "
            f"terms (see docs/performance.md)")
    mrnet_points = [(r["daemons"], r["mrnet_1deep"]) for r in result.rows
                    if r["mrnet_1deep"] is not None]
    if len(mrnet_points) >= 2:
        line = fit_component_scaling(*zip(*mrnet_points))
        failed_rows = [r for r in result.rows if r["mrnet_1deep"] is None]
        for row in failed_rows:
            est = line.predict(row["daemons"])
            result.notes.append(
                f"linear extrapolation of the ad-hoc trend to "
                f"{row['daemons']} daemons: ~{est:.0f} s "
                f"(paper: ~two minutes at 512)")
    return result
