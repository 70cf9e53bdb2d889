"""scalecheck: decision logic on synthetic fits, plus the planted-fault
end-to-end proof that a reintroduced O(N^2) term fails the check."""

import json

import pytest

import repro.be.runtime as runtime_mod
from repro.analysis.fitting import fit_metric_exponents
from repro.analysis.ladders import LADDERS
from repro.analysis.scalecheck import (DEFAULT_TOLERANCES, MIN_SIGNAL,
                                       TAIL_RATIO_LIMIT, compare_to_baseline,
                                       load_baseline, main, metric_kind,
                                       run_check, write_baseline)
from repro.tbon import Overlay

SCALES = (64, 256, 1024)


def synth_samples(metric_values):
    """[(n, {metric: value})] from {metric: {n: value}}."""
    return [(n, {name: values[n] for name, values in metric_values.items()
                 if n in values})
            for n in sorted({n for v in metric_values.values() for n in v})]


def synth_baseline(metric_values, tolerances=None):
    """A baseline dict as write_baseline would record for these samples."""
    samples = synth_samples(metric_values)
    fits = fit_metric_exponents(samples)
    return {
        "experiment": "synth",
        "scales": [n for n, _ in samples],
        "tolerances": dict(tolerances or DEFAULT_TOLERANCES),
        "tail_ratio_limit": TAIL_RATIO_LIMIT,
        "metrics": {
            name: {"kind": metric_kind(name), **fit.as_dict(),
                   "values": {str(n): metric_values[name][n]
                              for n in sorted(metric_values[name])}}
            for name, fit in fits.items()},
    }


def judge(baseline_values, fresh_values, **kw):
    samples = synth_samples(fresh_values)
    fits = fit_metric_exponents(samples)
    return compare_to_baseline("synth", samples, fits,
                               synth_baseline(baseline_values), **kw)


LINEAR = {n: 1e-3 * n for n in SCALES}
QUADRATIC = {n: 1e-3 * n * (n / SCALES[0]) for n in SCALES}


class TestMetricKind:
    def test_kinds(self):
        assert metric_kind("wall_s") == "wall"
        assert metric_kind("sim_events") == "count"
        assert metric_kind("t_spawn") == "virtual"
        assert metric_kind("virtual_total") == "virtual"


class TestCompareToBaseline:
    def test_identical_run_is_clean(self):
        values = {"t_spawn": LINEAR, "sim_events": {n: 50.0 * n
                                                    for n in SCALES}}
        regressions, notes = judge(values, values)
        assert regressions == [] and notes == []

    def test_virtual_exponent_shift_beyond_tolerance_fails(self):
        regressions, _ = judge({"t_spawn": LINEAR},
                               {"t_spawn": QUADRATIC})
        assert len(regressions) == 1
        reg = regressions[0]
        assert (reg.metric, reg.kind, reg.check) == \
            ("t_spawn", "virtual", "exponent")
        assert reg.fitted == pytest.approx(2.0)
        assert reg.limit == pytest.approx(1.0 + 0.1)

    def test_shift_inside_tolerance_passes(self):
        drift = {n: v * (n / SCALES[-1]) ** 0.05 for n, v in LINEAR.items()}
        regressions, _ = judge({"t_spawn": LINEAR}, {"t_spawn": drift})
        assert regressions == []

    def test_uniformly_slower_host_passes_wall_checks(self):
        wall = {n: 0.2 * LINEAR[n] ** 0.5 for n in SCALES}
        slower = {n: 2.5 * v for n, v in wall.items()}
        regressions, _ = judge({"wall_s": wall}, {"wall_s": slower})
        assert regressions == []  # same exponent, flat fresh/base ratio

    def test_scale_dependent_slowdown_trips_tail_ratio(self):
        wall = {64: 0.1, 256: 0.4, 1024: 1.6}
        tail_heavy = {64: 0.1, 256: 0.6, 1024: 4.8}  # top 3x, bottom 1x
        regressions, _ = judge({"wall_s": wall}, {"wall_s": tail_heavy})
        checks = {r.check for r in regressions}
        assert "tail-ratio" in checks
        tail = next(r for r in regressions if r.check == "tail-ratio")
        assert tail.fitted == pytest.approx(3.0)
        assert tail.limit == TAIL_RATIO_LIMIT

    def test_signal_floor_skips_noise_metrics(self):
        tiny = {n: 0.0001 * (n / 64.0) ** 2 for n in SCALES}  # max 0.026s
        assert max(tiny.values()) < MIN_SIGNAL["wall"]
        regressions, notes = judge({"wall_s": {n: 0.01 for n in SCALES}},
                                   {"wall_s": tiny})
        assert regressions == []
        assert any("signal floor" in n for n in notes)

    def test_baseline_metric_without_fresh_fit_noted(self):
        regressions, notes = judge({"t_spawn": LINEAR,
                                    "t_repair": {n: 0.5 for n in SCALES}},
                                   {"t_spawn": LINEAR,
                                    "t_repair": {n: 0.0 for n in SCALES}})
        assert regressions == []
        assert any("t_repair" in n and "not judged" in n for n in notes)

    def test_new_metric_noted_not_judged(self):
        regressions, notes = judge({"t_spawn": LINEAR},
                                   {"t_spawn": LINEAR,
                                    "t_new": QUADRATIC})
        assert regressions == []
        assert any("new metric 't_new'" in n for n in notes)

    def test_disjoint_ladder_skips_tail_ratio_with_note(self):
        wall = {n: 0.2 * n / 64 for n in SCALES}
        shifted = {n * 2: v for n, v in wall.items()}
        regressions, notes = judge({"wall_s": wall}, {"wall_s": shifted})
        assert all(r.check != "tail-ratio" for r in regressions)
        assert any("tail-ratio check skipped" in n for n in notes)

    def test_tolerance_override_tightens_the_check(self):
        drift = {n: v * (n / 64.0) ** 0.08 for n, v in LINEAR.items()}
        clean, _ = judge({"t_spawn": LINEAR}, {"t_spawn": drift})
        strict, _ = judge({"t_spawn": LINEAR}, {"t_spawn": drift},
                          tolerances={"virtual": 0.05})
        assert clean == [] and len(strict) == 1


class TestBaselines:
    def test_committed_baselines_exist_and_are_coherent(self):
        for name, ladder in LADDERS.items():
            baseline = load_baseline(name)
            assert baseline["experiment"] == name
            assert tuple(baseline["scales"]) == ladder.quick_scales
            metrics = baseline["metrics"]
            assert "wall_s" in metrics and "sim_events" in metrics
            for metric, spec in metrics.items():
                assert spec["kind"] == metric_kind(metric)
                assert spec["n_points"] >= 2
                assert set(spec["values"]) == \
                    {str(n) for n in baseline["scales"]}

    def test_missing_baseline_names_the_fix(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--write-baselines"):
            load_baseline("fig6", baseline_dir=tmp_path)

    def test_write_then_check_round_trips(self, tmp_path):
        write_baseline("str", scales=(16, 64), baseline_dir=tmp_path)
        result = run_check("str", baseline_dir=tmp_path)
        assert result.scales == (16, 64)  # follows the baseline's ladder
        assert result.ok, [str(r) for r in result.regressions]
        d = result.as_dict()
        assert d["ok"] and d["experiment"] == "str"
        assert set(d["fits"]) == set(d["baseline_exponents"])


class TestEndToEnd:
    def test_current_tree_passes_against_committed_baseline(self):
        result = run_check("str", jobs=1, repeats=2)
        assert result.ok, [str(r) for r in result.regressions]
        # deterministic kinds reproduce their committed exponents exactly
        base = result.baseline["metrics"]
        for name, fit in result.fits.items():
            if metric_kind(name) != "wall" and name in base:
                assert fit.exponent == pytest.approx(
                    base[name]["exponent"], abs=1e-9), name

    def test_planted_quadratic_regression_is_detected(self, monkeypatch,
                                                      tmp_path):
        # judge the fault against a baseline written here from the tree
        # without it, so the host's speed and load weigh on both sides
        # alike. Against the committed baseline (written on another host)
        # a CPU-bound neighbour slowed the small point more than the large
        # one, and the fitted exponent now and then sank under the limit.
        # Five repeats give each side's min-wall filter enough samples to
        # step over a host's short slow bursts.
        write_baseline("fig6", scales=(256, 1024), jobs=1, repeats=5,
                       baseline_dir=tmp_path)
        # plant two wall-only O(N^2) terms. An uncached usr-data decode
        # hands every daemon its own wire object, so launchmon_startup's
        # identity-keyed shared parse misses and each daemon re-parses
        # the topology (O(N) work x N daemons); children_of rebuilds
        # every child list per lookup (O(N) scan x N lookups). The
        # children_of term alone stays under the exponent limit.
        monkeypatch.setattr(
            runtime_mod, "_decode_usr_payload",
            lambda raw: json.loads(raw.decode()) if raw else None)

        def rebuilt_children_of(overlay, pos):
            children = [[] for _ in range(overlay.topology.size)]
            for q in range(1, overlay.topology.size):
                parent = overlay._parent[q]
                if q not in overlay._dead and parent is not None:
                    children[parent].append(q)
            return children[pos]

        monkeypatch.setattr(Overlay, "children_of", rebuilt_children_of)
        result = run_check("fig6", scales=(256, 1024), jobs=1, repeats=5,
                           baseline_dir=tmp_path)
        assert not result.ok
        walls = [r for r in result.regressions if r.metric == "wall_s"]
        assert walls, "the planted fault must surface in wall time"
        # the fault is wall-clock-only: virtual timings and event counts
        # are untouched, which is exactly why scalecheck fits wall_s too
        assert all(r.kind == "wall" for r in result.regressions)


class TestCLI:
    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["nope"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        rc = main(["str", "--baseline-dir", str(tmp_path)])
        assert rc == 2
        assert "--write-baselines" in capsys.readouterr().err

    def test_write_check_and_json_report(self, tmp_path, capsys):
        rc = main(["str", "--scales", "16,64",
                   "--write-baselines", "--baseline-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "str.json").exists()
        report = tmp_path / "report.json"
        rc = main(["str", "--baseline-dir", str(tmp_path),
                   "--json", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["experiments"]["str"]["scales"] == [16, 64]
        assert "scalecheck str" in capsys.readouterr().out

    def test_quick_conflicts_with_full(self, capsys):
        with pytest.raises(SystemExit):
            main(["--quick", "--full"])
