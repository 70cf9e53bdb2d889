"""Benchmark suite runner: every workload, every metric, one command.

    python3 benchmarks/suite/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

Runs each selected workload (default: all, in ``BENCHMARK.json`` order)
in its own single-threaded subprocess (``worker.py``), one after another;
this process only waits. A plain run reports the end-to-end metrics
(``throughput``, ``setup_s``, ``peak_rss_mb``) plus ``error_rate``; a
``--trace`` run reports the per-layer metrics from one profiled
iteration and writes ``DIR/trace/<workload>.json``. Both write
``DIR/results.json`` with the raw and normalized samples.

Output: one ``workload metric value unit`` line per metric, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (metric keys are prefixed ``<workload>/`` when more than
one workload ran). Exit status 1 if any iteration raised or failed its
correctness check, 2 if the tree holds no program to benchmark.

``--seconds`` makes each workload's closed loop measure for that long
(at least three timed iterations); without it a plain run does the
workload's fixed iteration count. ``--smoke`` shrinks every input and
runs one timed iteration: a fast end-to-end check of the suite itself,
whose timings mean nothing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calib import CALIB_NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: extra set-up-only processes per plain run: setup_s is the median of
#: these plus the measuring worker's own set-up
SETUP_PROBES = 2

#: wall-clock ceiling for one worker process (seconds); a healthy one
#: takes under a minute
WORKER_TIMEOUT = 170


def run_worker(workload, mode, args):
    """Run one worker process to completion; its JSON record, or a
    record of the failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(args.seed),
           "--expected", str(args.expected)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"attempted": 1, "failed": 1, "errors": [
            {"errors": [f"{mode} worker timed out"]}]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "errors": [
            {"errors": [f"{mode} worker exited {proc.returncode}"]}]}
    return json.loads(lines[-1])


def metric(value, unit, samples=None):
    """One metric entry; with ``samples``, their quartiles and count."""
    entry = {"value": value, "unit": unit}
    if samples:
        q1, _, q3 = (statistics.quantiles(samples, n=4)
                     if len(samples) > 1 else samples * 3)
        entry.update(q1=q1, q3=q3, n=len(samples))
    return entry


def plain_metrics(record, setups, units_of):
    """End-to-end metrics of one plain run (those it could measure)."""
    out = {}
    units = record.get("units")
    if record.get("iter_norm_s"):
        per_iter = [units / t for t in record["iter_norm_s"]]
        out["throughput"] = metric(
            units / statistics.median(record["iter_norm_s"]),
            units_of["throughput"], per_iter)
    if setups:
        out["setup_s"] = metric(statistics.median(setups),
                                units_of["setup_s"], setups)
    if "peak_rss_mb" in record:
        out["peak_rss_mb"] = metric(record["peak_rss_mb"],
                                    units_of["peak_rss_mb"])
    out["error_rate"] = metric(record["failed"] / record["attempted"],
                               "fraction")
    return out


def run_workload(name, args, spec, out_dir):
    """Run one workload; returns its results.json entry."""
    units_of = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        record = run_worker(name, "trace", args)
        trace = record.get("trace", {})
        metrics = {key: metric(value, units_of[key])
                   for key, value in trace.get("metrics", {}).items()}
        if "metrics" in trace:
            trace_dir = out_dir / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            doc = {"workload": name, "seed": args.seed,
                   "units": record["units"],
                   "work_unit": WORKLOADS[name].work_unit}
            doc.update({k: v for k, v in trace.items() if k != "profile"})
            doc.update(trace["profile"])
            (trace_dir / f"{name}.json").write_text(
                json.dumps(doc, indent=1) + "\n")
    else:
        probes = [] if args.smoke else [
            run_worker(name, "setup", args) for _ in range(SETUP_PROBES)]
        record = run_worker(name, "plain", args)
        setups = [r["setup_s"] for r in probes + [record] if "setup_s" in r]
        metrics = plain_metrics(record, setups, units_of)
        record["setup_probes"] = probes
    return {"work_unit": WORKLOADS[name].work_unit,
            "metrics": metrics, "record": record}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite; see the module docstring.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        metavar="NAME", help="workload(s) to run "
                        "(default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, the pinned one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="profiled per-layer run")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results.json and trace/")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one iteration (suite self-test)")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="seed-1 correctness pins")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not bench_file.is_file():
        print(f"no program to benchmark under {ROOT} (need BENCHMARK.json "
              f"and src/repro)", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or args.seed < 0:
        parser.error(f"unknown workload(s) {unknown}" if unknown
                     else "--seed must be >= 0")

    out_dir = args.out
    results = {"seed": args.seed, "trace": bool(args.trace),
               "smoke": args.smoke, "seconds": args.seconds,
               "calib_nominal_s": CALIB_NOMINAL_S,
               "host": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "nproc": os.cpu_count()},
               "workloads": {}}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        entry = run_workload(name, args, spec, out_dir)
        results["workloads"][name] = entry
        record = entry["record"]
        final["attempted"] += record["attempted"]
        final["failed"] += record["failed"]
        for error in record.get("errors", []):
            print(f"{name}: FAILED {error}", file=sys.stderr)
        for key, value in entry["metrics"].items():
            shown = value["value"]
            if isinstance(shown, float):
                shown = f"{shown:.6g}"
            print(f"{name} {key} {shown} {value['unit']}")
            if key != "error_rate":
                label = key if len(names) == 1 else f"{name}/{key}"
                final["metrics"][label] = {"value": value["value"],
                                           "unit": value["unit"]}
    final["correct"] = final["failed"] == 0

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.json").write_text(
        json.dumps(results, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
