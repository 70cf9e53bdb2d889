"""The suite's workloads: seeded inputs, one iteration, invariant checks.

Each workload calls one public entry point of ``repro`` and reduces its
result to an *observation*: a small JSON-able dict of model outputs
(virtual times, event counts, audit verdicts). Observations are what the
runner checks -- against the seed-1 pins in ``expected.json``, against
the seed-independent invariants below, and against each other across
iterations (the simulator is deterministic, so every iteration of one
run must observe exactly the same thing).

The workload seed is the only input knob. It reaches the program only
through the generated inputs: the ``ClusterSpec``/stream/fleet seeds and
the base of the ctl/chaos scenario seed blocks.

Nothing here imports ``repro`` at module level: the import is part of
the measured set-up, which :func:`Workload.make_inputs` performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

#: ctl crash-restart scenarios per recovery-mix iteration (6 rotations of
#: the 4 variants, both kill-time halves) and chaos storms (2 rotations
#: of the 5 variants); smoke sizes in the second slot
CTL_BLOCK = (24, 4)
CHAOS_BLOCK = (10, 5)

#: scenario seeds stay in 0..SOAKED-1, the range the tier-1 ctl and chaos
#: soaks audit: a benchmark seed must never land on a scenario that
#: fails (ctl seed 1378, a node-fault run whose live tree is reaped
#: instead of re-adopted, is one)
SOAKED = 200


def _seed_block(seed: int, n: int) -> range:
    """The ``seed``-th block of ``n`` consecutive scenario seeds."""
    base = (seed * n) % (SOAKED - SOAKED % n)
    return range(base, base + n)


@dataclass(frozen=True)
class Workload:
    """One named workload of the suite."""

    name: str
    #: what one unit of work is (throughput is units per reference-s)
    work_unit: str
    #: timed iterations of a plain run without ``--seconds``
    iterations: int
    #: (seed, smoke) -> inputs; imports repro; ``inputs["units"]`` is
    #: the work done by one iteration
    make_inputs: Callable[[int, bool], dict]
    #: inputs -> observation (the timed call)
    iterate: Callable[[dict], dict]
    #: (inputs, observation) -> violated seed-independent invariants
    invariants: Callable[[dict, dict], List[str]]


# -- launch: fig6 LaunchMON, one task per daemon -----------------------------

def _launch_inputs(full: int, smoke: int, hybrid: bool):
    def make(seed: int, is_smoke: bool) -> dict:
        import repro.experiments.fig6  # noqa: F401  (set-up cost)
        n = smoke if is_smoke else full
        return {"units": n, "n_daemons": n, "hybrid": hybrid, "seed": seed}
    return make


def _launch_iterate(inp: dict) -> dict:
    from repro import runner
    from repro.experiments.fig6 import measure_stat_startup

    # env_factory is looked up at call time so a traced run can wrap it
    box = measure_stat_startup(inp["n_daemons"], "launchmon",
                               tasks_per_daemon=1, seed=inp["seed"],
                               hybrid=inp["hybrid"],
                               env_factory=runner.make_env)
    if "failure" in box:
        return {"failure": box["failure"], "spawned": box["spawned"]}
    return {"virtual_startup": box["startup"].total,
            "sim_events": box["sim_events"],
            "classes": box["classes"],
            "n_tasks": box["n_tasks"]}


def _launch_invariants(inp: dict, obs: dict) -> List[str]:
    if "failure" in obs:
        return [f"launch failed: {obs['failure']}"]
    errors = []
    if obs["classes"] != 3:
        errors.append(f"classes {obs['classes']} != 3")
    if obs["n_tasks"] != inp["n_daemons"]:
        errors.append(f"n_tasks {obs['n_tasks']} != {inp['n_daemons']}")
    return errors


# -- stream: saturating histogram stream on a balanced TBON ------------------

def _stream_inputs(seed: int, smoke: bool) -> dict:
    import repro.experiments.streaming  # noqa: F401  (set-up cost)
    n_leaves, n_waves = (256, 5) if smoke else (4096, 20)
    return {"units": n_leaves * n_waves, "n_leaves": n_leaves,
            "n_waves": n_waves, "window": 4, "credit_limit": 4,
            "fanout": 16, "seed": seed}


def _stream_iterate(inp: dict) -> dict:
    from repro.experiments.streaming import measure_stream

    cell = measure_stream(inp["n_leaves"], "histogram",
                          window=inp["window"],
                          credit_limit=inp["credit_limit"],
                          n_waves=inp["n_waves"], fanout=inp["fanout"],
                          seed=inp["seed"])
    return {"delivered": cell["delivered"],
            "throughput": cell["throughput"],
            "final_state": cell["final_state"],
            "sim_events": cell["sim_events"],
            "n_stalls": cell["n_stalls"],
            "max_inbox_depth": cell["max_inbox_depth"]}


def _stream_invariants(inp: dict, obs: dict) -> List[str]:
    errors = []
    if obs["delivered"] != inp["n_waves"]:
        errors.append(f"delivered {obs['delivered']} != {inp['n_waves']}")
    if obs["max_inbox_depth"] > inp["credit_limit"]:
        errors.append(f"inbox depth {obs['max_inbox_depth']} above the "
                      f"credit limit {inp['credit_limit']}")
    return errors


# -- fleet: open-loop arrivals through the front door, one member crashed ----

def _fleet_inputs(seed: int, smoke: bool) -> dict:
    import repro.experiments.fleet  # noqa: F401  (set-up cost)
    n_clusters, n_arrivals = (4, 16) if smoke else (32, 256)
    return {"units": n_arrivals, "n_clusters": n_clusters,
            "n_arrivals": n_arrivals, "arrival_rate": 8.0, "seed": seed}


def _fleet_iterate(inp: dict) -> dict:
    from repro.experiments.fleet import run_fleet_once

    env, handles, info = run_fleet_once(
        inp["n_clusters"], inp["arrival_rate"],
        n_arrivals=inp["n_arrivals"], fault=True, seed=inp["seed"])
    summary = env.fleet.door.summary()
    return {"completed": summary["completed"],
            "rejected": summary["rejected"],
            "cancelled": summary["cancelled"],
            "failed": summary["failed"],
            "failovers": summary["failovers"],
            "makespan": max(h.finished_at for h in handles),
            "audit_ok": info["audit"]["ok"],
            "sim_events": env.sim.stats.events}


def _fleet_invariants(inp: dict, obs: dict) -> List[str]:
    errors = []
    if not obs["audit_ok"]:
        errors.append("audit_fleet failed")
    accounted = (obs["completed"] + obs["rejected"] + obs["cancelled"]
                 + obs["failed"])
    if accounted != inp["n_arrivals"]:
        errors.append(f"{accounted} requests accounted of "
                      f"{inp['n_arrivals']}")
    return errors


# -- recovery: ctl crash-restart scenarios plus fleet chaos storms -----------

def _recovery_inputs(seed: int, smoke: bool) -> dict:
    from repro.ctl.harness import scenario_for_seed as ctl_scenario
    from repro.fleet.chaos import scenario_for_seed as chaos_scenario

    n_ctl = CTL_BLOCK[1] if smoke else CTL_BLOCK[0]
    n_chaos = CHAOS_BLOCK[1] if smoke else CHAOS_BLOCK[0]
    # consecutive seed blocks: a block covers every scenario variant
    ctl = [ctl_scenario(s) for s in _seed_block(seed, n_ctl)]
    chaos = [chaos_scenario(s) for s in _seed_block(seed, n_chaos)]
    return {"units": n_ctl + n_chaos, "ctl": ctl, "chaos": chaos}


def _recovery_iterate(inp: dict) -> dict:
    from repro.ctl.harness import run_crash_restart
    from repro.fleet.chaos import run_fleet_chaos

    crash = [run_crash_restart(cfg) for cfg in inp["ctl"]]
    chaos = [run_fleet_chaos(scenario) for scenario in inp["chaos"]]
    return {
        "ctl_ok": sum(r.ok for r in crash),
        "chaos_ok": sum(r.ok for r in chaos),
        "relaunched": sum(r.relaunched for r in crash),
        "leaked": (sum(r.leaked_nodes_mid + r.leaked_nodes_final
                       + r.queue_leak_final for r in crash)
                   + sum(r.leaked for r in chaos)),
        "double_allocations": sum(r.double_allocations for r in chaos),
        "adopted": sum(r.adopted for r in crash),
        "resubmitted": sum(r.resubmitted for r in crash),
        "reaped": sum(r.reaped_sessions for r in crash),
        "ctl_makespan": sum(r.makespan for r in crash),
        "failovers": sum(r.failovers for r in chaos),
        "fences": sum(r.fences_delivered for r in chaos),
        "rounds": sum(r.rounds_run for r in chaos),
    }


def _recovery_invariants(inp: dict, obs: dict) -> List[str]:
    errors = []
    if obs["ctl_ok"] != len(inp["ctl"]):
        errors.append(f"{len(inp['ctl']) - obs['ctl_ok']} ctl scenarios "
                      f"failed their audit")
    if obs["chaos_ok"] != len(inp["chaos"]):
        errors.append(f"{len(inp['chaos']) - obs['chaos_ok']} chaos storms "
                      f"failed their audit")
    for key in ("relaunched", "leaked", "double_allocations"):
        if obs[key]:
            errors.append(f"{key} = {obs[key]}")
    return errors


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("launch-4k", "daemons", 5,
             _launch_inputs(4096, 256, hybrid=False),
             _launch_iterate, _launch_invariants),
    Workload("launch-1m-hybrid", "daemons", 7,
             _launch_inputs(1_048_576, 16_384, hybrid=True),
             _launch_iterate, _launch_invariants),
    Workload("stream-4k", "leaf-waves", 5,
             _stream_inputs, _stream_iterate, _stream_invariants),
    Workload("fleet-32", "sessions", 20,
             _fleet_inputs, _fleet_iterate, _fleet_invariants),
    Workload("recovery-mix", "audited scenarios", 24,
             _recovery_inputs, _recovery_iterate, _recovery_invariants),
)}
