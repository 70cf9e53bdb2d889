"""Planted-violation tests for the run-end audit (:mod:`repro.audit`).

Each test plants exactly one fault in a small RM or fleet and checks that
its check fires and no other. The last two plant a leak into a whole
crash-restart run and a whole chaos run, which must then fail.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.audit
from repro.apps import make_compute_app
from repro.audit import Violation, fleet_violations, ledger_violations
from repro.be import minimal_daemon
from repro.ctl import ControlPlane
from repro.ctl.harness import CrashScenario, run_crash_restart
from repro.fleet import FenceToken, chaos, make_fleet_env
from repro.fleet.frontdoor import FleetFrontDoor
from repro.rm import DaemonSpec
from repro.runner import drive, make_env

APP = make_compute_app(n_tasks=4, tasks_per_node=2)
SPEC = DaemonSpec("audit_be", main=minimal_daemon, image_mb=1.0)


class _Running:
    """A session that never finishes and survives its kill."""

    done = False

    def cancel(self, reason=None) -> bool:
        return False


class _OffTheBooks:
    """A member service whose sessions never reach its handle list."""

    handles = ()

    def submit_launch(self, *args, **kwargs) -> _Running:
        return _Running()


def _detach(fe, session):
    yield from fe.detach(session, reclaim_job=True)


def _small_fleet():
    return make_fleet_env(n_clusters=2, nodes_per_cluster=4, seed=3)


def _drained_fleet():
    env = _small_fleet()
    fleet = env.fleet

    def driver():
        handles = [fleet.submit_launch(APP, SPEC, tool_name=f"t{i}",
                                       body=_detach) for i in range(3)]
        yield from fleet.drain()
        return handles

    return env, drive(env, driver())


def test_audit_imports_only_the_standard_library():
    tree = ast.parse(Path(repro.audit.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules == {"__future__", "dataclasses", "typing"}


class TestLedgerViolations:
    def test_untouched_rm_is_clean(self):
        assert ledger_violations(make_env(n_compute=8).rm) == []

    def test_allocation_never_released(self):
        rm = make_env(n_compute=8).rm
        rm.allocate(3)
        assert ledger_violations(rm, "rm") == [
            Violation("leaked-nodes", "rm", 3)]

    def test_mid_run_counts_only_nodes_no_session_owns(self):
        rm = make_env(n_compute=8).rm
        owned = {node.name for node in rm.allocate(2).nodes}
        rm.allocate(3)
        assert ledger_violations(rm, owned=owned) == [
            Violation("leaked-nodes", "", 3)]
        assert ledger_violations(rm, owned=rm.allocated_node_names) == []

    def test_queued_request(self):
        env = make_env(n_compute=4)
        env.cluster.compute[0].fail("planted")
        env.sim.process(env.rm.allocate_async(4))
        env.sim.run()
        assert ledger_violations(env.rm) == [
            Violation("queued-requests", "", 1)]

    def test_free_index_out_of_step_with_the_nodes(self):
        env = make_env(n_compute=8)
        # the node goes down without the RM's failure listener hearing
        # of it, so the free index still offers it
        env.cluster.compute[5].failed = True
        assert ledger_violations(env.rm) == [Violation("free-index", "", 1)]


class TestFleetViolations:
    def test_drained_fleet_is_clean(self):
        env, handles = _drained_fleet()
        assert all(h.done and h.exception is None for h in handles)
        assert fleet_violations(env.fleet) == []

    def test_unfinished_member_session(self):
        env = _small_fleet()
        env.fleet.member("c0").service.submit_launch(APP, SPEC)
        assert fleet_violations(env.fleet) == [
            Violation("unfinished-sessions", "c0", 1)]

    def test_unfinished_door_request(self):
        env = _small_fleet()
        env.fleet.submit_launch(APP, SPEC)
        assert fleet_violations(env.fleet) == [
            Violation("unfinished-requests", "frontdoor", 1)]

    def test_live_session_below_its_fence_floor(self):
        env = _small_fleet()
        member = env.fleet.member("c1")
        member.service = _OffTheBooks()
        # request 0's epoch-0 session survives the fence to epoch 1
        member.submit_launch(fence_token=FenceToken(0, 0))
        member.fence(0, 1)
        assert fleet_violations(env.fleet) == [
            Violation("stale-live-sessions", "c1", 1)]

    def test_undelivered_fence(self, monkeypatch):
        # seed 0 abandons one attempt on the minority side; a door that
        # never delivers fences leaves that fence queued
        monkeypatch.setattr(FleetFrontDoor, "_deliver_fences",
                            lambda door: None)
        res = chaos.run_fleet_chaos(chaos.scenario_for_seed(0))
        assert res.abandoned == 1
        assert res.violations == [
            Violation("undelivered-fences", "frontdoor", 1)]

    def test_epoch_fence_mismatch(self):
        env, handles = _drained_fleet()
        handles[1].epoch += 1  # re-placed without recording the fence
        assert fleet_violations(env.fleet) == [
            Violation("epoch-fence", f"request {handles[1].id}", 1)]

    def test_live_abandoned_session(self):
        env, handles = _drained_fleet()
        handles[2].abandoned_sessions.append(_Running())
        assert fleet_violations(env.fleet) == [
            Violation("live-abandoned", f"request {handles[2].id}", 1)]


class TestWholeRunLeaks:
    def test_crash_restart_run_with_a_leak_fails(self, monkeypatch):
        stop = ControlPlane.cmd_stop

        def leaky_stop(control, drain=True):
            control.rm.allocate(1)  # never released
            return (yield from stop(control, drain=drain))

        monkeypatch.setattr(ControlPlane, "cmd_stop", leaky_stop)
        res = run_crash_restart(CrashScenario(seed=11, t_kill=1.0))
        assert not res.ok
        assert res.leaked_nodes_final == 1
        assert res.violations == [
            Violation("leaked-nodes", "after teardown", 1)]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_chaos_run_with_a_leak_fails(self, monkeypatch, seed):
        build = chaos.make_fleet_env

        def leaky_env(**kwargs):
            env = build(**kwargs)
            drain = env.fleet.drain

            def leaky_drain():
                served = yield from drain()
                env.fleet.member("c0").rm.allocate(1)  # never released
                return served

            env.fleet.drain = leaky_drain
            return env

        monkeypatch.setattr(chaos, "make_fleet_env", leaky_env)
        res = chaos.run_fleet_chaos(chaos.scenario_for_seed(seed))
        assert not res.ok
        assert res.leaked == 1
        assert Violation("leaked-nodes", "c0", 1) in res.violations
