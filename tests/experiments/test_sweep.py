"""Parallel sweep engine: byte-identity, merge order, CLI wiring."""

import pytest

from repro.experiments import run_fig6, run_launch_matrix
from repro.experiments.cli import (
    HYBRID_EXPERIMENTS,
    QUICK_SWEEPS,
    RUNNERS,
    SCALE_SWEEPS,
    XL_SWEEPS,
    XXL_SWEEPS,
    main as cli_main,
)
from repro.experiments.sweep import default_jobs, map_grid


def _square(x):
    return {"x": x, "sq": x * x}


def _explode(x):
    if x == 3:
        raise ValueError("cell 3 is broken")
    return x


class TestMapGrid:
    def test_serial_and_parallel_results_identical(self):
        grid = [dict(x=i) for i in range(10)]
        assert map_grid(_square, grid, jobs=1) \
            == map_grid(_square, grid, jobs=4)

    def test_results_come_back_in_grid_order(self):
        grid = [dict(x=i) for i in (5, 1, 9, 2)]
        out = map_grid(_square, grid, jobs=3)
        assert [r["x"] for r in out] == [5, 1, 9, 2]

    def test_worker_failure_reraises_in_parent(self):
        grid = [dict(x=i) for i in range(5)]
        with pytest.raises(ValueError, match="cell 3 is broken"):
            map_grid(_explode, grid, jobs=2)
        with pytest.raises(ValueError, match="cell 3 is broken"):
            map_grid(_explode, grid, jobs=1)

    def test_default_jobs_normalization(self):
        assert default_jobs(None) == 1
        assert default_jobs(0) == 1
        assert default_jobs(3) == 3
        assert default_jobs(-1) >= 1

    def test_empty_grid(self):
        assert map_grid(_square, [], jobs=4) == []


class TestSweepByteIdentity:
    def test_fig6_quick_jobs4_byte_identical_to_serial(self):
        serial = run_fig6(**QUICK_SWEEPS["fig6"]).format_table()
        parallel = run_fig6(**QUICK_SWEEPS["fig6"], jobs=4).format_table()
        assert parallel == serial

    def test_lmx_quick_jobs2_byte_identical_to_serial(self):
        serial = run_launch_matrix(**QUICK_SWEEPS["lmx"]).format_table()
        parallel = run_launch_matrix(**QUICK_SWEEPS["lmx"],
                                     jobs=2).format_table()
        assert parallel == serial


class TestCliScaleAndJobs:
    def test_every_runner_accepts_jobs(self):
        # the CLI passes jobs= to every runner unconditionally
        import inspect

        import repro.experiments

        for name, runner_name in RUNNERS.items():
            runner = getattr(repro.experiments, runner_name)
            assert "jobs" in inspect.signature(runner).parameters, name

    def test_scale_tiers_cover_every_experiment(self):
        assert set(QUICK_SWEEPS) == set(RUNNERS)
        assert set(XL_SWEEPS) == set(RUNNERS)
        assert set(SCALE_SWEEPS) == {"quick", "full", "xl", "xxl"}

    def test_xl_tier_reaches_64k_daemons(self):
        assert 65536 in XL_SWEEPS["fig6"]["node_counts"]
        assert 16384 in XL_SWEEPS["lmx"]["daemon_counts"]

    def test_xxl_tier_is_hybrid_only_at_1m_daemons(self):
        # the xxl tier exists only for the hybrid-capable experiments
        # and always runs them through the aggregation tier
        assert set(XXL_SWEEPS) == set(HYBRID_EXPERIMENTS)
        assert XXL_SWEEPS["fig6"]["node_counts"] == (1048576,)
        assert XXL_SWEEPS["str"]["leaf_counts"] == (1048576,)
        assert all(sweep["hybrid"] for sweep in XXL_SWEEPS.values())

    def test_cli_rejects_xxl_for_non_hybrid_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table1", "--scale", "xxl"])
        assert "xxl" in capsys.readouterr().err

    def test_cli_rejects_hybrid_for_non_hybrid_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table1", "--hybrid"])
        assert "hybrid" in capsys.readouterr().err

    def test_cli_quick_with_jobs(self, capsys):
        assert cli_main(["table1", "--quick", "--jobs", "2"]) == 0
        assert "O|SS APAI access times" in capsys.readouterr().out

    def test_cli_scale_quick_equals_quick_flag(self, capsys):
        assert cli_main(["table1", "--scale", "quick"]) == 0
        a = capsys.readouterr().out
        assert cli_main(["table1", "--quick"]) == 0
        assert capsys.readouterr().out == a

    def test_cli_rejects_conflicting_scale_and_quick(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table1", "--quick", "--scale", "xl"])
