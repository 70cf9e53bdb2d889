"""Tests for the experiment runners: paper-shape assertions at small scale."""

import gc
from dataclasses import asdict

import pytest

from repro.cluster import FaultStats
from repro.experiments import (
    ExperimentResult,
    run_ablation_iccl,
    run_ablation_launchers,
    run_ablation_rm_events,
    run_fig3,
    run_fig5,
    run_fig6,
    run_launch_matrix,
    run_multitenant,
    run_resilience,
    run_streaming,
    run_table1,
)
from repro.experiments.ablations import _a3_point
from repro.experiments.cli import main as cli_main
from repro.experiments.fig6 import measure_stat_startup
from repro.experiments.launchmatrix import measure_launch_cell
from repro.experiments.multitenant import run_tenants_once
from repro.experiments.resilience import (
    measure_resilient_launch,
    measure_tbon_repair,
)
from repro.experiments.streaming import measure_stream
from repro.experiments.table1 import measure_apai_access
from repro.fe import SessionState


class TestResultContainer:
    def test_table_formatting(self):
        r = ExperimentResult("x", "demo", ["a", "b"])
        r.add_row(a=1, b=0.5)
        r.add_row(a=2, b=None)
        r.notes.append("a note")
        text = r.format_table()
        assert "x: demo" in text
        assert "0.500" in text
        assert "-" in text
        assert "# a note" in text

    def test_column_and_row_lookup(self):
        r = ExperimentResult("x", "demo", ["a", "b"])
        r.add_row(a=1, b=10)
        r.add_row(a=2, b=20)
        assert r.column("b") == [10, 20]
        assert r.row_for("a", 2)["b"] == 20
        assert r.row_for("a", 99) is None


class TestFig3Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3()  # the paper's series: 16..128 daemons

    def test_rows_and_columns(self, result):
        assert [r["daemons"] for r in result.rows] == [
            16, 32, 48, 64, 80, 96, 112, 128]
        assert "model_total" in result.columns

    def test_paper_anchor_at_128(self, result):
        row = result.row_for("daemons", 128)
        assert row["measured_total"] < 1.2          # paper: < 1 s
        assert row["lmon_frac"] < 0.12              # paper: ~5.2%

    def test_total_monotone_in_scale(self, result):
        totals = result.column("measured_total")
        assert totals == sorted(totals)
        assert totals[0] > 0

    def test_model_tracks_measurement(self, result):
        for row in result.rows:
            assert row["model_total"] == pytest.approx(
                row["measured_total"], rel=0.15)

    def test_tracing_scale_independent(self, result):
        traces = result.column("tracing")
        assert max(traces) - min(traces) < 0.002
        # paper: 18 ms at every scale
        assert all(t == pytest.approx(0.018, abs=0.004) for t in traces)

    def test_launchmon_fraction_small_and_falling(self, result):
        fracs = result.column("lmon_frac")
        assert all(f < 0.2 for f in fracs)
        assert fracs[-1] < fracs[0]

    def test_rm_region_dominates(self, result):
        for row in result.rows:
            rm_share = (row["T(job)"] + row["T(daemon)+T(setup)"]
                        + row["T(collective)"])
            assert rm_share > 0.8 * row["measured_total"]


class TestFig5Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(daemon_counts=(64, 128, 256, 512, 1024))

    def test_one_line_per_task(self, result):
        for row in result.rows:
            assert row["lines"] == row["tasks"] == 8 * row["daemons"]

    def test_launchmon_dominates(self, result):
        for row in result.rows:
            assert (row["init_to_attachAndSpawn"]
                    / row["jobsnap_total"]) > 0.6

    def test_subsecond_at_2048_tasks(self, result):
        assert result.row_for("daemons", 256)["jobsnap_total"] < 1.0

    def test_paper_anchors(self, result):
        by = {r["daemons"]: r for r in result.rows}
        assert by[512]["jobsnap_total"] < 1.8           # paper: < 1.5 s
        assert by[1024]["jobsnap_total"] < 4.0          # paper: 2.92 s
        assert by[1024]["init_to_attachAndSpawn"] == pytest.approx(
            2.76, rel=0.25)                             # paper: 2.76 s

    def test_last_doubling_is_superlinear(self, result):
        # sub-optimal RM scaling: the 512 -> 1024 step outgrows 256 -> 512
        t = {r["daemons"]: r["init_to_attachAndSpawn"] for r in result.rows}
        assert t[1024] / t[512] > t[512] / t[256]


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(node_counts=(4, 64, 256, 512))

    def test_launchmon_always_wins(self, result):
        # at 512 the ad-hoc launch fails outright (None)
        for row in result.rows:
            assert (row["mrnet_1deep"] is None
                    or row["launchmon_1deep"] < row["mrnet_1deep"])

    def test_speedup_grows_with_scale(self, result):
        speedups = [s for s in result.column("speedup") if s is not None]
        assert len(speedups) == 3
        assert speedups == sorted(speedups)

    def test_paper_anchors(self, result):
        # paper: 0.77 vs 0.46 s at 4 daemons; 60.8 vs 3.57 s at 256
        r4 = result.row_for("daemons", 4)
        r256 = result.row_for("daemons", 256)
        assert r4["mrnet_1deep"] == pytest.approx(0.77, rel=0.5)
        assert r4["launchmon_1deep"] == pytest.approx(0.46, rel=0.35)
        assert r256["mrnet_1deep"] == pytest.approx(60.8, rel=0.15)
        assert r256["launchmon_1deep"] == pytest.approx(3.57, rel=0.25)
        assert r256["speedup"] > 10  # "over an order of magnitude"

    def test_rsh_fails_at_512_while_launchmon_completes(self, result):
        r512 = result.row_for("daemons", 512)
        assert r512["mrnet_1deep"] is None  # consistent rsh-fork failure
        assert "FAILED" in r512["mrnet_status"]
        assert r512["launchmon_1deep"] < 8.0  # paper: 5.6 s
        # the extrapolation note reproduces the paper's "two minutes"
        assert any("extrapolation" in n for n in result.notes)

    @pytest.mark.parametrize("mechanism", ["mrnet", "launchmon"])
    def test_single_point_reports_its_daemon_count(self, mechanism):
        box = measure_stat_startup(64, mechanism)
        assert box["startup"].n_daemons == 64

    def test_mrnet_linear_slope_near_paper(self, result):
        r4 = result.row_for("daemons", 4)
        r64 = result.row_for("daemons", 64)
        slope = (r64["mrnet_1deep"] - r4["mrnet_1deep"]) / 60
        assert slope == pytest.approx(0.238, rel=0.15)  # paper's s/daemon


class TestTable1Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1()  # the paper's grid: 2..32 nodes

    def test_dpcl_around_34s(self, result):
        # paper row: 33.77..34.66 s
        assert all(d == pytest.approx(34.0, rel=0.08)
                   for d in result.column("DPCL"))

    def test_launchmon_subsecond(self, result):
        assert all(l < 1.0 for l in result.column("LaunchMON"))
        # paper row: 0.604..0.627 s
        assert all(l == pytest.approx(0.61, rel=0.25)
                   for l in result.column("LaunchMON"))

    def test_both_nearly_flat_across_nodes(self, result):
        for col in ("DPCL", "LaunchMON"):
            vals = result.column(col)
            assert (max(vals) - min(vals)) / max(vals) < 0.05, col

    def test_improvement_order_of_magnitude(self, result):
        assert all(i > 30 for i in result.column("improvement"))

    @pytest.mark.parametrize("n_nodes", [2, 32])
    def test_both_paths_see_the_same_proctable(self, n_nodes):
        box = measure_apai_access(n_nodes)
        assert box["dpcl"].proctable == box["launchmon"].proctable


class TestAblations:
    def test_rm_events_ablation(self):
        r = run_ablation_rm_events(daemon_counts=(16, 32))
        rows = {row["daemons"]: row for row in r.rows}
        # fixed: flat; legacy: linear in tasks
        assert rows[32]["fixed_trace"] == pytest.approx(
            rows[16]["fixed_trace"], abs=0.002)
        assert rows[32]["legacy_trace"] > 1.7 * rows[16]["legacy_trace"]
        assert rows[32]["legacy_total"] > rows[32]["fixed_total"]

    def test_iccl_ablation(self):
        r = run_ablation_iccl(daemon_counts=(16, 64),
                              topologies=("flat", "binomial"))
        for row in r.rows:
            assert row["flat"] > 0 and row["binomial"] > 0

    def test_launchers_ablation(self):
        r = run_ablation_launchers(daemon_counts=(16,))
        row = r.rows[0]
        assert row["rsh_sequential"] > row["rsh_tree"] > row["rm_native"]


class TestLaunchMatrix:
    @pytest.fixture(scope="class")
    def result(self):
        return run_launch_matrix(daemon_counts=(64, 256, 512))

    def _cell(self, result, daemons, strategy, staging):
        for row in result.rows:
            if (row["daemons"] == daemons and row["strategy"] == strategy
                    and row["staging"] == staging):
                return row
        raise KeyError((daemons, strategy, staging))

    def test_full_matrix_present(self, result):
        assert len(result.rows) == 3 * 3 * 3
        assert all(row["total"] > 0 for row in result.rows)

    def test_broadcast_shrinks_image_stage(self, result):
        sf = self._cell(result, 64, "rm-bulk", "shared-fs")
        bc = self._cell(result, 64, "rm-bulk", "broadcast")
        assert bc["t_image_stage"] < 0.5 * sf["t_image_stage"]
        assert bc["total"] < sf["total"]

    def test_cache_mode_pays_cold_saves_warm(self, result):
        for n in (64, 256, 512):
            ca = self._cell(result, n, "rm-bulk", "cache")
            sf = self._cell(result, n, "rm-bulk", "shared-fs")
            assert ca["total"] == pytest.approx(sf["total"], rel=0.05)
            assert ca["warm_total"] < 0.25 * ca["total"]

    def test_broadcast_win_is_the_image_stage_at_512(self, result):
        sf = self._cell(result, 512, "rm-bulk", "shared-fs")
        bc = self._cell(result, 512, "rm-bulk", "broadcast")
        win = sf["total"] - bc["total"]
        stage_win = sf["t_image_stage"] - bc["t_image_stage"]
        assert win > 0
        assert stage_win > 0
        assert stage_win >= 0.8 * win
        # the spawn phase is mechanism-bound, not staging-bound
        assert bc["t_spawn"] == pytest.approx(sf["t_spawn"], rel=0.25)

    def test_shared_fs_stage_is_the_linear_term(self, result):
        sf_256 = self._cell(result, 256, "rm-bulk", "shared-fs")
        sf_512 = self._cell(result, 512, "rm-bulk", "shared-fs")
        assert sf_512["t_image_stage"] > 1.5 * sf_256["t_image_stage"]

    def test_strategy_ordering_holds_across_stagings(self, result):
        for staging in ("shared-fs", "cache", "broadcast"):
            seq = self._cell(result, 64, "serial-rsh", staging)
            tree = self._cell(result, 64, "tree-rsh", staging)
            rm = self._cell(result, 64, "rm-bulk", staging)
            assert seq["total"] > tree["total"] > rm["total"]

    @pytest.mark.parametrize("run_point", [
        pytest.param(lambda: measure_launch_cell("rm-bulk", "shared-fs", 64),
                     id="lmx-rm-bulk"),
        pytest.param(lambda: _a3_point(64), id="A3"),
    ])
    def test_rm_bulk_daemons_share_one_context(self, run_point):
        # a class made per daemon context is cyclic garbage that waits
        # for the collector Simulator.run() pauses; with the collector
        # off, 64 daemons (launched twice in an lmx cell) must not leave
        # a type object apiece
        def n_types():
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, type))

        run_point()  # warm: first use may build classes once
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = n_types()
            run_point()
            made = n_types() - before
        finally:
            if was_enabled:
                gc.enable()
        assert made == 0


class TestResilience:
    @pytest.fixture(scope="class")
    def result(self):
        return run_resilience(daemon_counts=(16,), fault_rates=(0.0, 0.1),
                              strategies=("serial-rsh", "tree-rsh"))

    def _cell(self, result, strategy, rate, repair):
        for row in result.rows:
            if (row["strategy"] == strategy and row["fault_rate"] == rate
                    and row["repair"] == repair):
                return row
        raise KeyError((strategy, rate, repair))

    def test_full_sweep_present(self, result):
        assert len(result.rows) == 1 * 2 * 2 * 2

    def test_faultfree_is_ready_either_way(self, result):
        for strategy in ("serial-rsh", "tree-rsh"):
            for repair in (False, True):
                assert self._cell(result, strategy, 0.0,
                                  repair)["state"] == "ready"

    def test_repair_survives_what_legacy_does_not(self, result):
        fragile = self._cell(result, "tree-rsh", 0.1, False)
        repaired = self._cell(result, "tree-rsh", 0.1, True)
        assert fragile["state"] == "failed"
        assert repaired["state"] in ("degraded", "ready")
        if repaired["state"] == "degraded":
            assert repaired["n_failed"] > 0
            assert repaired["up"] + repaired["n_failed"] == 16

    def test_json_rows_carry_fault_stats(self, result):
        """``--json`` writes ``as_dict()``: every row carries its cell's
        fault statistics, which the printed table leaves out."""
        rows = result.as_dict()["rows"]
        fields = set(asdict(FaultStats()))
        assert all(set(row["fault_stats"]) == fields for row in rows)
        assert all(row["fault_stats"]["crashes"] == 0
                   for row in rows if row["fault_rate"] == 0.0)
        assert any(row["fault_stats"]["crashes"] > 0
                   for row in rows if row["fault_rate"] > 0.0)
        assert "fault_stats" not in result.format_table()

    def test_unfinished_cell_reports_hung(self, monkeypatch):
        import repro.experiments.resilience as res
        monkeypatch.setattr(res, "CELL_DEADLINE", 0.01)
        cell = res.measure_resilient_launch("tree-rsh", 16, 0.0, repair=True)
        assert (cell["state"], cell["error"], cell["t_attach"]) == (
            "hung", "", 0.01)
        assert cell["up"] == 0


class TestResilientLaunch512:
    """A 512-daemon launch at a 2% node-failure rate: tree-rsh with
    repair survives it, serial-rsh without retry does not, and the TBON
    overlay self-repairs around dead internal nodes."""

    N_DAEMONS = 512
    FAULT_RATE = 0.02
    #: a repaired faulted launch finishes within this factor of fault-free
    SLOWDOWN_BOUND = 3.0

    @pytest.fixture(scope="class")
    def cells(self):
        out = {}
        for strategy, repair in (("tree-rsh", True), ("serial-rsh", False)):
            base = measure_resilient_launch(strategy, self.N_DAEMONS, 0.0,
                                            repair=repair)
            window = (base["report"] or {}).get("total", 1.0)
            faulted = measure_resilient_launch(
                strategy, self.N_DAEMONS, self.FAULT_RATE, repair=repair,
                spawn_window=window)
            out[strategy] = (base, faulted)
        return out

    def test_repaired_launch_completes_within_bound(self, cells):
        base, rep = cells["tree-rsh"]
        assert rep["state"] in ("degraded", "ready"), rep["state"]
        assert rep["t_attach"] <= self.SLOWDOWN_BOUND * base["t_attach"]
        assert rep["up"] >= 0.8 * self.N_DAEMONS

    def test_failures_and_retries_are_attributed(self, cells):
        _, rep = cells["tree-rsh"]
        report = rep["report"]
        assert report is not None
        if rep["n_failed"]:
            assert len(rep["outcomes"]) == report["requested"]
            assert rep["up"] + rep["n_failed"] == report["requested"]
            assert rep["n_retried"] > 0
            assert rep["blacklisted"]
        for phase in ("t_spawn", "t_image_stage", "t_handshake", "t_repair"):
            assert phase in report

    def test_serial_rsh_without_retry_fails(self, cells):
        _, fragile = cells["serial-rsh"]
        assert fragile["state"] == "failed"

    def test_tbon_self_repair_keeps_every_leaf(self):
        tbon = measure_tbon_repair(n_backends=self.N_DAEMONS // 4,
                                   fanout=8, n_comm_kill=2)
        assert tbon["leaves_after"] == tbon["leaves_before"]
        assert tbon["wave_merged"] == tbon["leaves_after"]
        assert tbon["n_reparented"] > 0
        assert tbon["report"]["t_repair"] > 0.0


class TestMultitenant:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multitenant(tenant_counts=(1, 4, 8, 16, 32),
                               n_compute=64, nodes_per_session=8)

    def test_contention_beyond_capacity(self, result):
        # past cluster capacity (8 sessions) p99 grows and the
        # allocation queue is actually exercised
        by = {r["tenants"]: r for r in result.rows}
        assert by[32]["p99_latency"] > by[8]["p99_latency"]
        assert by[32]["mean_alloc_wait"] > 0

    def test_throughput_saturates_rather_than_collapsing(self, result):
        by = {r["tenants"]: r for r in result.rows}
        assert by[32]["throughput"] > 0.8 * by[16]["throughput"]

    @pytest.mark.parametrize("n_tenants", [8, 32])
    def test_every_session_walks_queued_to_detached(self, n_tenants):
        _, handles = run_tenants_once(n_tenants, n_compute=64,
                                      nodes_per_session=8)
        assert all(h.done and h.exception is None for h in handles)
        for h in handles:
            states = [new for _, _, new in h.transitions]
            assert states[0] is SessionState.QUEUED
            assert SessionState.READY in states
            assert states[-1] is SessionState.DETACHED


class TestStreaming:
    @pytest.fixture(scope="class")
    def result(self):
        return run_streaming(leaf_counts=(16, 64),
                             filters=("histogram", "ewma"),
                             windows=(4,), credit_limits=(2, 8),
                             n_waves=10)

    def _cell(self, result, leaves, filter_name, credit):
        for row in result.rows:
            if (row["leaves"] == leaves and row["filter"] == filter_name
                    and row["credit"] == credit):
                return row
        raise KeyError((leaves, filter_name, credit))

    def test_full_sweep_present(self, result):
        assert len(result.rows) == 2 * 2 * 1 * 2

    def test_every_cell_sustains_all_waves(self, result):
        for row in result.rows:
            assert row["delivered"] == 10

    def test_credit_limit_bounds_depth_and_forces_stalls(self, result):
        for row in result.rows:
            assert row["max_depth"] <= row["credit"]
            assert row["stalls"] > 0  # saturating publishers must stall

    def test_more_credits_mean_more_throughput(self, result):
        for leaves in (16, 64):
            tight = self._cell(result, leaves, "histogram", 2)
            loose = self._cell(result, leaves, "histogram", 8)
            assert loose["thpt"] > tight["thpt"]

    def test_model_tracks_sim_within_tolerance(self, result):
        for row in result.rows:
            assert row["err_pct"] <= 15.0, row

    def test_monitor_anchor_cell(self):
        from repro.experiments.streaming import measure_monitor

        cell = measure_monitor(n_daemons=8, n_waves=4,
                               filter_name="histogram", window=2)
        assert cell["delivered"] == 4
        assert cell["n_tasks"] == 32
        # the windowed running histogram holds the last `window` waves,
        # each merging every task of every daemon
        assert sum(cell["final_state"]["running"].values()) == 2 * 32


class TestStream1024:
    """A 1,024-leaf histogram stream sustains 30 waves under credit-based
    flow control; a paced ewma cell rides along."""

    CREDIT = 4
    N_WAVES = 30
    #: sim-vs-model tolerance for the sustained throughput
    MODEL_TOLERANCE = 0.15
    #: float slack for the exact per-wave phase decomposition
    EPS = 1e-9

    @pytest.fixture(scope="class")
    def saturated(self):
        return measure_stream(1024, filter_name="histogram", window=8,
                              credit_limit=self.CREDIT,
                              n_waves=self.N_WAVES, fanout=32)

    @pytest.fixture(scope="class")
    def paced(self):
        return measure_stream(1024, filter_name="ewma", window=8,
                              credit_limit=self.CREDIT,
                              n_waves=self.N_WAVES // 3, fanout=32,
                              publish_interval=0.05)

    def _assert_waves_exact(self, cell):
        for wt in cell["report"]["waves"]:
            parts = wt["t_fanin"] + wt["t_filter"] + wt["t_deliver"]
            assert abs(parts - wt["latency"]) < self.EPS, wt

    def test_every_wave_delivered_within_the_credit_limit(self, saturated):
        assert saturated["delivered"] == self.N_WAVES
        # every inbox, the root's child inbox and delivery queue included
        assert saturated["max_inbox_depth"] <= self.CREDIT
        for pos, flow in saturated["report"]["flow"].items():
            assert flow["high_water"] <= self.CREDIT, (pos, flow)
        # saturating publishers must actually have hit the backpressure
        assert saturated["n_stalls"] > 0 and saturated["t_stalled"] > 0.0

    def test_latency_attribution_is_exact(self, saturated):
        waves = saturated["report"]["waves"]
        assert len(waves) == self.N_WAVES
        self._assert_waves_exact(saturated)
        slack = self.EPS * len(waves)
        phase_sum = sum(saturated["phase_totals"].values())
        assert abs(phase_sum - saturated["total_latency"]) < slack
        measured = sum(wt["latency"] for wt in waves)
        assert abs(saturated["total_latency"] - measured) < slack

    def test_model_tracks_sustained_throughput(self, saturated):
        assert saturated["model_err"] <= self.MODEL_TOLERANCE

    def test_paced_cell_is_cadence_bound_and_exact(self, paced):
        assert paced["delivered"] > 0
        assert paced["model_err"] <= self.MODEL_TOLERANCE
        self._assert_waves_exact(paced)


class TestCli:
    def test_cli_quick_run(self, capsys):
        assert cli_main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "O|SS APAI access times" in out
        assert "LaunchMON" in out

    def test_cli_multiple_experiments(self, capsys):
        assert cli_main(["A1", "--quick"]) == 0
        assert "RM debug-event scaling" in capsys.readouterr().out

    def test_cli_launch_matrix_quick(self, capsys):
        assert cli_main(["lmx", "--quick"]) == 0
        assert "Launch matrix" in capsys.readouterr().out

    def test_cli_resilience_quick(self, capsys):
        assert cli_main(["res", "--quick"]) == 0
        assert "Resilient launch" in capsys.readouterr().out

    def test_cli_streaming_quick(self, capsys):
        assert cli_main(["str", "--quick"]) == 0
        assert "Streaming data plane" in capsys.readouterr().out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["figure9"])
