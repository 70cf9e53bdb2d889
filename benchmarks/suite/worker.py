"""One workload in one single-threaded process (started by ``run.py``).

Order of work, per mode:

* ``setup``: calibrate, set up (import ``repro`` and build the inputs),
  calibrate. Reports the set-up time only; ``run.py`` starts several of
  these so ``setup_s`` is a median.
* ``plain``: as ``setup``, then one untimed warm-up iteration, then a
  closed loop of timed iterations -- one client, the next iteration
  starts when the previous one returns. A calibration loop runs before
  and after every timed iteration; the correctness check runs after
  each iteration, outside the timed region.
* ``trace``: as ``plain``, then one more iteration under cProfile with
  the environment factories wrapped to capture the program's own
  counters. The timed iterations above it stay untraced.

The result is one JSON object on the last line of stdout.
"""

import argparse
import contextlib
import cProfile
import functools
import gc
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

from calib import calibrate, normalize
from layers import LayerProfile
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"

#: timed iterations a ``--seconds`` loop runs at least, so every median
#: has samples on both sides
MIN_TIMED = 3

#: env factories a traced iteration wraps, by defining module
FACTORIES = (("repro.runner", "make_env"),
             ("repro.fleet.fleet", "make_fleet_env"),
             ("repro.fleet.fleet", "make_fleet_member_env"))


def reset_peak_rss() -> None:
    """Restart the kernel's peak resident-set watermark (Linux VmHWM)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident set since the last reset, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _canonical(obs: dict):
    """The observation as JSON would carry it (tuples -> lists, ...)."""
    return json.loads(json.dumps(obs, sort_keys=True))


def pin_errors(obs: dict, pins: dict) -> list:
    """Mismatches of ``obs`` against pinned values (floats to 1e-9)."""
    obs = _canonical(obs)
    errors = []
    for key, want in sorted(pins.items()):
        got = obs.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = got == want
        if not ok:
            errors.append(f"pin {key}: got {got!r}, expected {want!r}")
    return errors


class Checker:
    """Runs the iterations of one run: times each, tracks the memory
    peak across them, and checks each one's observation."""

    def __init__(self, workload, inputs, pins):
        self.workload = workload
        self.inputs = inputs
        self.pins = pins
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: peak RSS over the iterations only: the watermark is reset
        #: before each one, so calibration buffers never count
        self.peak_rss_mb = 0.0

    def run(self, fn):
        """Call ``fn`` (one iteration); return (wall s, observation) or
        (None, None) if it raised. The check runs after the clock stops."""
        self.attempted += 1
        reset_peak_rss()
        try:
            t0 = time.perf_counter()
            obs = fn()
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed iteration is a result
            self._fail([f"raised {type(exc).__name__}: {exc}"])
            return None, None
        finally:
            self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb())
        errors = self.workload.invariants(self.inputs, obs)
        errors += pin_errors(obs, self.pins)
        canonical = _canonical(obs)
        if self.first is None:
            self.first = canonical
        elif canonical != self.first:
            errors.append("observation differs from the first iteration")
        if errors:
            self._fail(errors)
        return wall, obs

    def _fail(self, errors):
        self.failed += 1
        self.errors.append({"iteration": self.attempted, "errors": errors})


class Capture:
    """Counters read from the environments a traced iteration builds."""

    def __init__(self):
        self.envs = []
        self.gossip_news = 0

    @contextlib.contextmanager
    def installed(self):
        from repro.fleet.gossip import GossipMesh

        patched = []
        for module_name, attr in FACTORIES:
            real = getattr(importlib.import_module(module_name), attr)
            wrapper = self._recorder(real)
            for name, module in list(sys.modules.items()):
                if ((name == "repro" or name.startswith("repro."))
                        and getattr(module, attr, None) is real):
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, real))
        run_round = GossipMesh.run_round

        def counted_round(mesh):
            news = run_round(mesh)
            self.gossip_news += news
            return news

        GossipMesh.run_round = counted_round
        try:
            yield self
        finally:
            GossipMesh.run_round = run_round
            for module, attr, real in patched:
                setattr(module, attr, real)

    def _recorder(self, factory):
        def record(*args, **kwargs):
            env = factory(*args, **kwargs)
            self.envs.append(env)
            return env
        return record

    def counters(self) -> dict:
        sims, clusters, rms = {}, {}, {}
        for env in self.envs:
            sims[id(env.sim)] = env.sim
            fleet = getattr(env, "fleet", None)
            pairs = ([(m.cluster, m.rm) for m in fleet.members] if fleet
                     else [(env.cluster, env.rm)])
            for cluster, rm in pairs:
                clusters[id(cluster)] = cluster
                rms[id(rm)] = rm
        stats = [sim.stats for sim in sims.values()]
        events = sum(s.events for s in stats)
        networks = [cluster.network for cluster in clusters.values()]
        return {
            "events": events,
            "fast_events": sum(s.fast_events for s in stats),
            "heap_high_water": max((s.heap_high_water for s in stats),
                                   default=0),
            "messages": sum(n.messages for n in networks),
            "connects": sum(n.connects for n in networks),
            "alloc_queue_peak": max((rm.alloc_queue_peak
                                     for rm in rms.values()), default=0),
            "gossip_news": self.gossip_news,
        }


def layer_metrics(profile: LayerProfile, counters: dict, obs: dict,
                  units: int) -> dict:
    """The per-layer metric values of one traced iteration."""
    out = {}
    for layer, share in profile.self_share().items():
        out[f"{layer}.self_share"] = share
        out[f"{layer}.calls_in"] = profile.calls_in[layer]
    events = counters["events"]
    messages = counters["messages"]
    sizing_calls = profile.calls("cluster/network.py", "message_size")
    puts = profile.calls("fleet/health.py", "put")
    inside = profile.total_s - profile.self_s["outside"]
    env_build = sum(profile.cum_s(path, name) for path, name in (
        ("runner.py", "make_env"), ("fleet/fleet.py", "make_fleet_env"),
        ("fleet/fleet.py", "make_fleet_member_env")))
    out.update({
        "simx.events_per_unit": events / units,
        "simx.fast_share": counters["fast_events"] / events if events else 0.0,
        "simx.heap_high_water": counters["heap_high_water"],
        "cluster.messages_per_unit": messages / units,
        "cluster.connects": counters["connects"],
        "cluster.sizing_calls_per_message": (sizing_calls / messages
                                             if messages else 0.0),
        "cluster.sizing_share": (profile.cum_s("cluster/network.py",
                                               "message_size") / inside
                                 if inside else 0.0),
        "rm.alloc_queue_peak": counters["alloc_queue_peak"],
        "tbon.stalls": obs.get("n_stalls", 0),
        "tbon.max_inbox_depth": obs.get("max_inbox_depth", 0),
        "fleet.health_puts_per_unit": puts / units,
        "fleet.health_news_ratio": (counters["gossip_news"] / puts
                                    if puts else 0.0),
        "ctl.checkpoint_writes_per_unit": (
            profile.calls("ctl/store.py", "write") / units),
        "runner.env_build_share": (env_build / profile.total_s
                                   if profile.total_s else 0.0),
    })
    return out


def traced_iteration(workload, inputs, checker: Checker) -> dict:
    capture = Capture()
    prof = cProfile.Profile()
    with capture.installed():
        def profiled():
            prof.enable()
            try:
                return workload.iterate(inputs)
            finally:
                prof.disable()
        wall, obs = checker.run(profiled)
    if obs is None:
        return {"traced_wall_s": None}
    prof.create_stats()
    import repro

    profile = LayerProfile(prof.stats, Path(repro.__file__).parent)
    counters = capture.counters()
    return {
        "traced_wall_s": wall,
        "profile": profile.as_dict(),
        "counters": counters,
        "metrics": layer_metrics(profile, counters, obs, inputs["units"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "mode": args.mode,
              "seed": args.seed, "smoke": args.smoke}

    calib_before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    inputs = workload.make_inputs(args.seed, args.smoke)
    setup_wall = time.perf_counter() - t0
    calib_after = calibrate()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    record.update(units=inputs["units"], setup_wall_s=setup_wall,
                  setup_calib_s=[calib_before, calib_after],
                  setup_s=normalize(setup_wall, calib_before, calib_after))
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    pins = {}
    if args.seed == 1:
        with open(args.expected) as fh:
            expected = json.load(fh)
        pins = expected.get(workload.name, {}).get(
            "smoke" if args.smoke else "full", {})
    checker = Checker(workload, inputs, pins)
    iterate = functools.partial(workload.iterate, inputs)
    checker.run(iterate)  # warm-up: untimed, still checked

    if args.smoke:
        n_timed = 1
    elif args.mode == "trace":
        n_timed = MIN_TIMED  # only the plain baseline of trace_overhead
    else:
        n_timed = workload.iterations
    walls, calibs, normalized = [], [], []
    gc.collect()
    calibs.append(calibrate())
    loop_start = time.perf_counter()
    attempts = 0
    while True:
        if args.seconds is None:
            if attempts >= n_timed:
                break
        elif (attempts >= MIN_TIMED
              and time.perf_counter() - loop_start >= args.seconds):
            break
        attempts += 1
        wall, _ = checker.run(iterate)
        gc.collect()
        calibs.append(calibrate())
        if wall is not None:
            walls.append(wall)
            normalized.append(normalize(wall, calibs[-2], calibs[-1]))
    record.update(iter_wall_s=walls, calib_s=calibs,
                  iter_norm_s=normalized, peak_rss_mb=checker.peak_rss_mb)
    if args.mode == "trace":
        gc.collect()
        trace = traced_iteration(workload, inputs, checker)
        if trace["traced_wall_s"] is not None and walls:
            trace["plain_median_wall_s"] = statistics.median(walls)
            trace["trace_overhead"] = (trace["traced_wall_s"]
                                       / trace["plain_median_wall_s"])
            trace["metrics"]["trace_overhead"] = trace["trace_overhead"]
        record["trace"] = trace
    record.update(attempted=checker.attempted, failed=checker.failed,
                  errors=checker.errors, observation=checker.first)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
