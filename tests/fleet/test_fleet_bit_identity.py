"""Bit-identity guard: a fleet of one cluster changes nothing.

Same contract (and same baseline file) as the streaming and hybrid
guards before it: the ``fig6`` and ``lmx`` quick sweeps, rerun with every
point's machine built as a **single-member fleet** (each point measured
with :func:`repro.fleet.make_fleet_member_env` as its ``env_factory``), must
match ``tests/baselines/pr3_fig6_lmx_quick.txt`` **byte for byte**.

That holds only if the fleet wrapping -- member ToolService, gossip
mesh, front door -- schedules zero events and draws zero RNG until
actually exercised. A failure here after a fleet change means the fleet
layer leaked into the single-cluster path (an extra process, an eager
gossip round, an RNG draw at construction): fix the leak, not the
baseline.

The fleet's own printed face is pinned the same way: ``python -m
repro.experiments fleetchaos fleet --quick`` must print
``tests/baselines/fleetchaos_fleet_quick.txt``, which holds the routing,
failover and fencing counts of sixteen chaos storms and the quick
clusters x arrival-rate grid.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.apps import make_compute_app
from repro.be import minimal_daemon
from repro.cluster import NetFaultPlan
from repro.experiments import fig6 as fig6_mod
from repro.experiments import launchmatrix as lmx_mod
from repro.experiments.cli import QUICK_SWEEPS
from repro.experiments import (
    run_fig6,
    run_fleet,
    run_fleetchaos,
    run_launch_matrix,
)
from repro.experiments.fig6 import measure_stat_startup
from repro.experiments.fleet import _hold_and_detach
from repro.fleet import make_fleet_env, make_fleet_member_env
from repro.rm import DaemonSpec
from repro.runner import drive, make_env
from repro.simx import SeededRNG

BASELINES = Path(__file__).parent.parent / "baselines"
BASELINE = BASELINES / "pr3_fig6_lmx_quick.txt"


def test_single_member_fleet_matches_direct_path_byte_for_byte(monkeypatch):
    # the quick sweeps run serially, in this process, so every point
    # measures through the patched module globals
    for module, measure in ((fig6_mod, "measure_stat_startup"),
                            (lmx_mod, "measure_launch_cell")):
        monkeypatch.setattr(module, measure, partial(
            getattr(module, measure), env_factory=make_fleet_member_env))
    fig6 = run_fig6(**QUICK_SWEEPS["fig6"])
    lmx = run_launch_matrix(**QUICK_SWEEPS["lmx"])
    rendered = (fig6.format_table() + "\n\n"
                + lmx.format_table() + "\n\n")
    assert rendered == BASELINE.read_text()


def test_fleetchaos_fleet_quick_matches_baseline_byte_for_byte():
    # exactly what `python -m repro.experiments fleetchaos fleet --quick`
    # prints: each table followed by a blank line
    rendered = "".join(
        result.format_table() + "\n\n"
        for result in (run_fleetchaos(**QUICK_SWEEPS["fleetchaos"]),
                       run_fleet(**QUICK_SWEEPS["fleet"])))
    assert rendered == (BASELINES / "fleetchaos_fleet_quick.txt").read_text()


def test_fleet_member_env_runs_zero_events_at_construction():
    from repro.fleet import make_fleet_member_env
    env = make_fleet_member_env(n_compute=16)
    assert env.sim.stats.events == 0
    assert env.sim.now == 0.0


@pytest.mark.parametrize("n_daemons", [16, 64])
def test_fleet_of_one_fig6_point_is_exact(n_daemons):
    direct, fleet = (measure_stat_startup(n_daemons, "launchmon",
                                          tasks_per_daemon=1,
                                          env_factory=factory)
                     for factory in (make_env, make_fleet_member_env))
    assert fleet["startup"].total == direct["startup"].total
    assert fleet["sim_events"] == direct["sim_events"]
    assert fleet["classes"] == direct["classes"]


def test_empty_netfault_plan_is_inert():
    """A fleet running the quorum rule, reconciliation and fencing under
    an empty netfault plan serves a Poisson stream exactly as pinned.

    The pinned values were captured from a build that ran that machinery
    only when a plan was attached, so they hold a fault-free fleet's run
    to what it was before every fleet ran it."""
    env = make_fleet_env(n_clusters=4, nodes_per_cluster=8, shard_size=2,
                         net_fault_plan=NetFaultPlan(), seed=7)
    fleet = env.fleet
    app = make_compute_app(n_tasks=8, tasks_per_node=4)
    spec = DaemonSpec("inert_fleet_be", main=minimal_daemon, image_mb=1.0)
    rng = SeededRNG(7, "inert")

    def driver():
        for i in range(12):
            fleet.submit_launch(app, spec, tool_name=f"user{i:03d}",
                                body=_hold_and_detach)
            yield env.sim.timeout(rng.expovariate(8.0))
        yield from fleet.drain()

    drive(env, driver())
    summary = fleet.door.summary()
    assert summary["completed"] == 12
    assert summary["served_by"] == {"c0": 4, "c1": 3, "c2": 2, "c3": 3}
    for counter in ("rejected", "failovers", "abandoned",
                    "minority_rejections", "breaker_trips",
                    "pending_fences", "readmissions"):
        assert summary[counter] == 0, counter
    assert env.sim.stats.events == 2859
