"""A resource manager's launch ``policy`` is a ``LaunchPolicy`` or None.

Anything else is refused where the RM is built: a stray value forwarded
through ``**rm_kwargs`` (a fleet caller still passing the removed
placement knob, ``policy="hash"``) would otherwise build, and fail only
at the first daemon launch with an ``AttributeError`` far from its cause.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.fleet import make_fleet_env
from repro.launch import LaunchPolicy
from repro.rm import SlurmRM


def test_rm_refuses_a_policy_that_is_not_a_launch_policy(sim):
    cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=3))
    with pytest.raises(TypeError, match="'hash'"):
        SlurmRM(cluster, policy="hash")
    assert SlurmRM(cluster).policy is None
    policy = LaunchPolicy()
    assert SlurmRM(cluster, policy=policy).policy is policy


def test_fleet_forwarding_a_stray_policy_fails_when_built():
    with pytest.raises(TypeError, match="'hash'"):
        make_fleet_env(2, policy="hash")
