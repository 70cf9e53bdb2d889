"""Trace-identity oracle: wall-only changes must not move a single event.

The simulator's results are a pure function of the order in which the
kernel fires events. A change that only makes the program cheaper to run
-- pre-sized message envelopes, callback-driven channel delivery, cached
wire sizes -- must therefore leave the full firing trace untouched: every
event at the same virtual time, with the same priority and the same
``seq``. This test records ``(time, priority, seq)`` of every fired event
through the ``Simulator.trace`` hook for representative runs and
compares a SHA-256 over them with the hashes committed in
``tests/baselines/trace_identity.json``:

* ``fig6-launchmon-1024`` -- a full LaunchMON launch of 1024 daemons
  (ICCL wireup, gather, scatter, broadcast, barriers);
* ``stream-histogram-1024`` -- one saturating ``measure_stream`` point
  (TBON fan-in, credit gates, cached packet sizes);
* ``resilience-rm-bulk-128`` -- an RM bulk launch of 128 daemons with
  node crashes injected mid-launch, so the processes on crashed nodes
  are killed while messages to them are still in flight;
* four failure paths, each asserting that its run failed:
  ``fig6-mrnet-512`` -- MRNet's serial-rsh startup collapsing when the
  front end's process table fills; ``resilience-serial-rsh-64-off`` and
  ``resilience-tree-rsh-64-off`` -- an rsh launch without a policy
  stopping at its first crashed node, then the RM rejecting the short
  set; ``resilience-rm-bulk-64-off`` -- an RM bulk launch without a
  policy aborting on a crashed node (interrupt, reap, re-raise).

If this fails after a change meant to alter simulated behaviour, rerun
the module as a script to regenerate the baseline and say so in the
change; if it fails after a wall-clock-only change, the change moved an
event -- fix the change, not the baseline::

    PYTHONPATH=src python tests/simx/test_trace_identity.py \\
        > tests/baselines/trace_identity.json
"""

import contextlib
import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from repro import runner

BASELINE = Path(__file__).parent.parent / "baselines" / "trace_identity.json"

_KEY = struct.Struct("<dqq")


class TraceHash:
    """A ``Simulator.trace`` hook hashing ``(time, priority, seq)``."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.events = 0

    def __call__(self, when, prio, seq, event):
        self._hash.update(_KEY.pack(when, prio, seq))
        self.events += 1

    def as_dict(self) -> dict:
        return {"events": self.events, "sha256": self._hash.hexdigest()}


@contextlib.contextmanager
def traced_envs(*modules):
    """Make ``make_env`` in each module (and the returned factory) attach
    a fresh :class:`TraceHash` to every simulator it builds."""
    hashes = []

    def factory(*args, **kwargs):
        env = runner.make_env(*args, **kwargs)
        env.sim.trace = hook = TraceHash()
        hashes.append(hook)
        return env

    saved = [(m, m.make_env) for m in modules]
    for module, _ in saved:
        module.make_env = factory
    try:
        yield factory, hashes
    finally:
        for module, original in saved:
            module.make_env = original


def _fig6_launch():
    from repro.experiments.fig6 import measure_stat_startup

    with traced_envs() as (factory, hashes):
        box = measure_stat_startup(1024, "launchmon", tasks_per_daemon=1,
                                   seed=1, env_factory=factory)
    assert box["classes"] == 3 and box["n_tasks"] == 1024
    return hashes


def _stream_point():
    from repro.experiments import streaming

    with traced_envs(streaming) as (_factory, hashes):
        cell = streaming.measure_stream(1024, "histogram", window=4,
                                        credit_limit=4, n_waves=10,
                                        fanout=16, seed=1)
    assert cell["delivered"] == 10
    return hashes


def _resilience_point():
    from repro.experiments import resilience

    with traced_envs(resilience) as (_factory, hashes):
        cell = resilience.measure_resilient_launch(
            "rm-bulk", 128, 0.05, repair=True, seed=1)
    assert cell["fault_stats"]["crashes"] > 0
    assert cell["fault_stats"]["procs_killed"] > 0
    return hashes


def _fig6_collapse():
    from repro.experiments.fig6 import measure_stat_startup

    with traced_envs() as (factory, hashes):
        box = measure_stat_startup(512, "mrnet", tasks_per_daemon=1,
                                   seed=1, env_factory=factory)
    assert "process limit" in box["failure"]
    assert 0 < box["spawned"] < 512
    return hashes


def _unrepaired_point(strategy, fault_rate, seed, error):
    def run():
        from repro.experiments import resilience

        with traced_envs(resilience) as (_factory, hashes):
            cell = resilience.measure_resilient_launch(
                strategy, 64, fault_rate, repair=False, seed=seed,
                spawn_window=5.0)
        assert cell["state"] == "failed" and error in cell["error"]
        assert cell["fault_stats"]["crashes"] > 0
        return hashes
    return run


RUNS = {
    "fig6-launchmon-1024": _fig6_launch,
    "stream-histogram-1024": _stream_point,
    "resilience-rm-bulk-128": _resilience_point,
    "fig6-mrnet-512": _fig6_collapse,
    "resilience-serial-rsh-64-off": _unrepaired_point(
        "serial-rsh", 0.2, 3, "daemon set incomplete"),
    "resilience-tree-rsh-64-off": _unrepaired_point(
        "tree-rsh", 0.2, 3, "daemon set incomplete"),
    "resilience-rm-bulk-64-off": _unrepaired_point(
        "rm-bulk", 0.3, 1, "node is down"),
}


def trace_of(name: str) -> dict:
    (hook,) = RUNS[name]()
    return hook.as_dict()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_firing_trace_matches_baseline(name):
    expected = json.loads(BASELINE.read_text())[name]
    assert trace_of(name) == expected


if __name__ == "__main__":
    json.dump({name: trace_of(name) for name in sorted(RUNS)}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
