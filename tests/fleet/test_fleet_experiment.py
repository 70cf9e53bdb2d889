"""The fleet experiment runner and the generalized result plumbing.

Covers the ``fleet`` sweep itself (failover under the injected crash,
leak audit, determinism across worker counts) and the
``ExperimentResult.check`` / ``write_json_report`` machinery that PR's
satellite generalized for *every* runner -- machine-readable pass/fail
with a recorded audit trail.
"""

import json

import pytest

from repro.audit import total
from repro.experiments import ExperimentResult
from repro.experiments.cli import QUICK_SWEEPS, main as cli_main
from repro.experiments.common import percentile, write_json_report
from repro.experiments.fleet import run_fleet, run_fleet_once


class TestRunFleetOnce:
    def test_faulted_stream_serves_everyone_and_leaks_nothing(self):
        env, handles, info = run_fleet_once(4, 8.0, n_arrivals=12,
                                            nodes_per_cluster=8)
        assert info["fault_target"] in env.fleet.member_names
        assert info["killed"] >= 1
        assert info["audit"]["ok"], info["audit"]
        summary = env.fleet.door.summary()
        assert summary["completed"] == 12
        assert summary["failovers"] >= 1
        assert all(not m.rm.live_allocations for m in env.fleet.members)

    def test_fault_free_stream_has_no_failovers(self):
        env, handles, info = run_fleet_once(4, 8.0, n_arrivals=8,
                                            fault=False)
        assert info["fault_target"] is None
        assert env.fleet.door.summary()["failovers"] == 0
        assert info["audit"]["ok"]

    def test_same_seed_same_stream(self):
        def fingerprint():
            env, handles, info = run_fleet_once(3, 4.0, n_arrivals=8,
                                                seed=42)
            return [(h.cluster, h.failovers, h.launch_latency)
                    for h in handles]
        assert fingerprint() == fingerprint()


@pytest.mark.parametrize("n_arrivals", [12, 24])
def test_failover_detour_is_bounded(n_arrivals):
    """The same 8-cluster stream with and without a crashed member: both
    serve every arrival and leak nothing, only the faulted one fails
    over, and its p99 launch latency stays within 5x of fault-free."""
    p99 = {}
    for fault in (False, True):
        env, _, info = run_fleet_once(8, 8.0, n_arrivals=n_arrivals,
                                      fault=fault)
        summary = env.fleet.door.summary()
        assert summary["completed"] == n_arrivals, fault
        assert total(info["audit"]["violations"], "leaked-nodes") == 0
        assert info["audit"]["ok"], info["audit"]
        assert (summary["failovers"] > 0) is fault
        p99[fault] = percentile(summary["launch_latencies"], 99)
    assert p99[True] / max(p99[False], 1e-9) < 5.0


def test_32_cluster_fleet_serves_256_arrivals_through_a_crash():
    env, _, info = run_fleet_once(32, 32.0, n_arrivals=256,
                                  nodes_per_cluster=16, fault=True)
    assert env.fleet.door.summary()["completed"] == 256
    assert total(info["audit"]["violations"], "leaked-nodes") == 0


class TestRunFleetSweep:
    def test_quick_grid_passes_its_own_checks(self):
        result = run_fleet(cluster_counts=(2, 4),
                           arrival_rates=(4.0, 8.0), n_arrivals=12)
        assert result.ok, result.notes
        assert len(result.rows) == 4
        audits = {a["name"] for a in result.audits}
        assert {"zero-leaked-nodes", "clean-fleet-audits",
                "failover-under-fault",
                "service-continuity"} <= audits
        for row in result.rows:
            assert row["leaked"] == 0
            assert row["audit_ok"]
            if row["clusters"] >= 2:
                assert row["failovers"] >= 1

    def test_parallel_sweep_is_byte_identical_to_serial(self):
        kwargs = dict(cluster_counts=(2,), arrival_rates=(4.0, 8.0),
                      n_arrivals=8)
        serial = run_fleet(jobs=1, **kwargs)
        fanned = run_fleet(jobs=2, **kwargs)
        assert serial.format_table() == fanned.format_table()
        assert serial.rows == fanned.rows


class TestCliIntegration:
    def test_fleet_quick_json_report(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        # trimmed relative to QUICK_SWEEPS for test-suite latency; the CI
        # job runs the real `fleet --quick --json` grid
        assert "fleet" in QUICK_SWEEPS
        rc = cli_main(["fleet", "--quick", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet:" in out and "failovers" in out
        report = json.loads(path.read_text())
        assert report["ok"] and report["failed"] == []
        (fleet_result,) = report["results"]
        assert fleet_result["exp_id"] == "fleet"
        assert all(a["ok"] for a in fleet_result["audits"])


class TestResultChecks:
    def test_check_records_audit_and_keeps_ok(self):
        r = ExperimentResult("x", "demo", ["a"])
        assert r.check("looks-fine", True, "all good")
        assert r.ok
        assert r.audits == [{"name": "looks-fine", "ok": True,
                             "detail": "all good"}]
        assert not any("AUDIT FAILURE" in n for n in r.notes)

    def test_failed_check_flips_ok_and_notes_why(self):
        r = ExperimentResult("x", "demo", ["a"])
        assert not r.check("leak-audit", False, "3 nodes leaked")
        assert not r.ok
        assert any("AUDIT FAILURE [leak-audit]: 3 nodes leaked" in n
                   for n in r.notes)
        r.check("second", True)
        assert not r.ok  # a later pass never un-fails the result

    def test_audits_travel_through_as_dict(self):
        r = ExperimentResult("x", "demo", ["a"])
        r.check("gate", False, "nope")
        d = r.as_dict()
        assert d["ok"] is False
        assert d["audits"] == [{"name": "gate", "ok": False,
                                "detail": "nope"}]


class TestJsonReport:
    def _result(self, exp_id, ok):
        r = ExperimentResult(exp_id, "demo", ["a"])
        r.add_row(a=1)
        r.check("gate", ok, "detail")
        return r

    def test_report_structure_and_verdict(self, tmp_path):
        path = tmp_path / "report.json"
        results = [self._result("good", True), self._result("bad", False)]
        report = write_json_report(path, results, scale="quick")
        assert json.loads(path.read_text()) == report
        assert report["scale"] == "quick"
        assert report["ok"] is False
        assert report["failed"] == ["bad"]
        assert [r["exp_id"] for r in report["results"]] == ["good", "bad"]

    def test_all_green_report(self, tmp_path):
        report = write_json_report(tmp_path / "r.json",
                                   [self._result("good", True)])
        assert report["ok"] is True and report["failed"] == []
        assert report["scale"] == "full"
