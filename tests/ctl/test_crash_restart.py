"""Deterministic crash-restart scenarios through the harness.

The soak (``test_soak.py``) randomizes kill points; these tests pin them
with ``CrashScenario.t_kill`` so each lifecycle phase -- queued,
spawning, serving, draining, mid-repair -- is hit on every run.
"""

from __future__ import annotations

import pytest

from repro.ctl.harness import (CrashScenario, run_crash_restart,
                               scenario_for_seed)


def _check(res):
    assert res.relaunched == 0, res.violations
    assert res.leaked_nodes_mid == 0
    assert res.leaked_nodes_final == 0
    assert res.queue_leak_final == 0
    assert res.index_balanced
    assert res.ok, res.violations


@pytest.mark.parametrize("t_kill", [0.2, 0.5, 1.0, 2.0, 4.0])
def test_fixed_kill_points_plain(t_kill):
    _check(run_crash_restart(CrashScenario(seed=11, t_kill=t_kill)))


@pytest.mark.parametrize("t_kill", [0.3, 1.0, 3.0])
def test_fixed_kill_points_mid_drain(t_kill):
    _check(run_crash_restart(
        CrashScenario(seed=12, drain_mid=True, t_kill=t_kill)))


@pytest.mark.parametrize("t_kill", [0.5, 2.0, 5.0])
def test_fixed_kill_points_under_node_faults(t_kill):
    _check(run_crash_restart(
        CrashScenario(seed=13, fault_rate=0.1, t_kill=t_kill)))


@pytest.mark.parametrize("t_kill", [0.2, 0.4, 0.8])
def test_fixed_kill_points_gated_admission(t_kill):
    _check(run_crash_restart(CrashScenario(
        seed=14, max_in_flight=1, submit_gap=0.05, t_kill=t_kill)))


def test_kill_before_anything_launched():
    res = run_crash_restart(CrashScenario(seed=15, t_kill=0.01))
    _check(res)
    assert res.generations == 2
    assert res.submitted == 5  # the submitter retried through the outage


def test_kill_after_everything_is_ready():
    res = run_crash_restart(CrashScenario(seed=16, t_kill=7.5))
    _check(res)
    # by then every tree is up: the restart must adopt, not redo
    assert res.adopted == 5
    assert res.resubmitted == 0


def test_scenario_mix_covers_all_variants():
    variants = {scenario_for_seed(s).drain_mid for s in range(8)}
    assert variants == {True, False}
    assert any(scenario_for_seed(s).fault_rate > 0 for s in range(8))
    assert any(scenario_for_seed(s).max_in_flight == 1 for s in range(8))
    # the early-kill rotation halves est_makespan for half the seeds
    spans = {scenario_for_seed(s).est_makespan for s in range(8)}
    assert min(spans) < max(spans)


def test_result_dict_is_jsonable():
    import json
    from dataclasses import asdict
    res = run_crash_restart(CrashScenario(seed=17, t_kill=1.0))
    json.dumps(asdict(res))


def test_tree_that_dies_during_downtime_is_not_counted_as_relaunched():
    # seed 1378: every node under ctl5 crashes from injected node faults
    # while the control plane is down, so restore reaps the dead tree
    # instead of adopting it; the audit only holds trees that were still
    # alive at the restart to the adoption rule
    res = run_crash_restart(scenario_for_seed(1378))
    assert res.ok, res.violations
    assert res.relaunched == 0, res.violations
    assert res.reaped_sessions == 1
