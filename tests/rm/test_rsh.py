"""Tests for the bare-cluster RM: job launch through a serial rsh loop."""

import pytest

from repro.apps import make_compute_app
from repro.cluster import Cluster, ClusterSpec
from repro.rm import RMError, RshRM
from tests.conftest import run_gen


class TestRshJobLaunch:
    def test_refused_rsh_raises_rm_error_naming_the_node(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=2,
                                           compute_rshd=False))
        rm = RshRM(cluster)
        alloc = rm.allocate(2)
        app = make_compute_app(n_tasks=4, tasks_per_node=2)
        with pytest.raises(RMError) as info:
            run_gen(sim, rm.launch_job(app, alloc))
        assert f"{alloc.nodes[0].name}: connection refused" in str(info.value)
        assert "stopped at 0/4" in str(info.value)
