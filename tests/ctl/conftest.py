"""Shared fixtures for the control-plane tests."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec
from repro.ctl import ControlPlane
from repro.runner import make_env


@pytest.fixture
def ctl_env():
    """A 12-node environment with a (not yet started) control plane."""
    env = make_env(n_compute=12, spec=ClusterSpec(n_compute=12, seed=3),
                   seed=3)
    control = ControlPlane(env.cluster, env.rm, max_in_flight=3)
    return env, control


def drain_to(env, until=None):
    """Run the simulator until quiescent (or a given virtual time)."""
    if until is None:
        env.sim.run()
    else:
        env.sim.run(until=until)


def run_gen(env, gen):
    """Drive one generator to completion on the environment's simulator."""
    proc = env.sim.process(gen)
    env.sim.run()
    return proc.value
