"""Smoke test of the benchmark suite itself (tiny inputs, ~25 s).

Runs every workload at ``--smoke`` size in a plain pass and in two
traced passes, plus one run against a planted wrong pin, and checks
what the suite promises: every declared metric printed with its unit,
layer shares that add up, repeatable counters, and a failing exit when
an output is wrong.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics measured in time; every other one is an exact count
TIMED = ("self_share", "sizing_share", "env_build_share", "trace_overhead")


def run_suite(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks/suite/run.py"), "--smoke",
         "--out", str(tmp_path), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, name, value, unit = line.split(" ", 3)
        printed[(workload, name)] = (float(value), unit)
    final = json.loads(lines[-1]) if lines else None
    return proc.returncode, printed, final


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    return run_suite(out, "--trace"), out


@pytest.fixture(scope="module")
def traced_again(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("trace2"), "--trace")


def test_plain_run_prints_every_end_to_end_metric(plain):
    code, printed, final = plain
    assert code == 0
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == 2 * len(WORKLOADS)  # warm-up + 1 timed
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            value, unit = printed[(workload, m["name"])]
            assert unit == m["unit"]
            assert value > 0
            assert final["metrics"][f"{workload}/{m['name']}"]["unit"] \
                == m["unit"]
        assert printed[(workload, "error_rate")] == (0.0, "fraction")


def test_trace_run_prints_every_per_layer_metric(traced):
    (code, printed, final), out = traced
    assert code == 0 and final["correct"]
    for workload in WORKLOADS:
        for m in SPEC["per_layer"]:
            assert printed[(workload, m["name"])][1] == m["unit"]
        assert (out / "trace" / f"{workload}.json").is_file()


def test_self_shares_sum_to_one(traced):
    (_, printed, _), _ = traced
    for workload in WORKLOADS:
        total = sum(value for (w, name), (value, _) in printed.items()
                    if w == workload and name.endswith(".self_share"))
        assert total == pytest.approx(1.0, abs=0.01), workload


def test_counters_repeat_exactly(traced, traced_again):
    (_, _, first), _ = traced
    _, _, second = traced_again
    counters = {k for k in first["metrics"] if not k.endswith(TIMED)}
    assert counters
    for key in sorted(counters):
        assert first["metrics"][key] == second["metrics"][key], key


def test_trace_file_holds_layer_edges(traced):
    _, out = traced
    doc = json.loads((out / "trace" / "fleet-32.json").read_text())
    assert doc["layers"]["fleet"]["calls_in"] > 0
    assert doc["edges"]["experiments->fleet"]["calls"] > 0
    assert doc["counters"]["events"] > 0


def test_planted_wrong_pin_fails_the_run(tmp_path):
    pins = json.loads((HERE / "expected.json").read_text())
    pins["launch-4k"]["smoke"]["virtual_startup"] += 1e-6
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(pins))
    code, printed, final = run_suite(tmp_path, "--workload", "launch-4k",
                                     "--expected", str(planted))
    assert code == 1
    assert printed[("launch-4k", "error_rate")][0] == 1.0
    assert not final["correct"] and final["failed"] == final["attempted"]


def test_fails_without_the_program(tmp_path):
    # the suite and BENCHMARK.json alone: nothing to build or measure
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, printed, final = run_suite(tmp_path / "out", cwd=tmp_path)
    assert code != 0
    assert final is None and not printed
