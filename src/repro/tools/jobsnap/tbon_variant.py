"""Jobsnap over a TBON: the paper's stated future-work extension.

Section 5.1 closes with: *"we are considering a TBON architecture that
would reduce the impact of collecting and printing information from each
back-end daemon."* This module implements that variant: instead of an ICCL
gather funneling every record through the master daemon (whose per-record
processing is linear in daemon count), snapshot records reduce through a
balanced tree of middleware communication daemons, parallelizing the
collection across internal positions.

The ``A4`` ablation (`repro.experiments.run_ablation_jobsnap_tbon`)
quantifies the gain.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cluster import Cluster
from repro.cluster.procfs import ProcSnapshot, read_snapshot
from repro.fe import ToolFrontEnd
from repro.rm.base import ResourceManager, RMJob
from repro.tbon import TBONTopology, launchmon_startup
from repro.tools.jobsnap.tool import (
    JOBSNAP_BE_IMAGE_MB,
    JobsnapReport,
    JobsnapResult,
)

__all__ = ["run_jobsnap_tbon"]


def run_jobsnap_tbon(cluster: Cluster, rm: ResourceManager, job: RMJob,
                     fanout: int = 16, n_waves: int = 1,
                     ) -> Generator[Any, Any, JobsnapResult]:
    """Jobsnap with TBON-based collection (balanced comm-daemon layer).

    The launch path is identical to classic Jobsnap (attachAndSpawn via
    LaunchMON); only the collection changes: the front end broadcasts a
    *collect* command down the tree, each daemon snapshots its local tasks,
    and records reduce upward through the ``concat`` filter at the comm
    daemons -- no master-daemon bottleneck.

    ``n_waves`` > 1 takes repeated snapshots over the standing tree (the
    monitoring use case that amortizes the extra middleware launch).
    Returns the result of the final wave; ``component_times`` gains a
    ``t_collect_per_wave`` entry.
    """
    sim = cluster.sim
    t0 = sim.now
    fe = ToolFrontEnd(cluster, rm, "jobsnap-tbon")
    yield from fe.init()
    session = fe.create_session()

    n_be = len(job.hosts)
    topology = TBONTopology.balanced(n_be, fanout)

    def collect_body(be, ctx, endpoint):
        # serve collect commands until told to stop
        while True:
            cmd = yield from endpoint.recv_broadcast()
            if cmd.payload == "stop":
                return
            records = []
            for entry in be.get_my_proctab():
                proc = ctx.node.procs.get(entry.pid)
                if proc is None:
                    continue
                snap = yield from read_snapshot(proc, rank=entry.rank)
                records.append(snap.to_tuple())
            yield from endpoint.send_wave(stream_id=1, wave=cmd.wave,
                                          payload=records)

    overlay, report = yield from launchmon_startup(
        fe, session, job, topology=topology,
        daemon_executable="jobsnap_be", image_mb=JOBSNAP_BE_IMAGE_MB,
        stream_filter="concat", daemon_body=collect_body)
    t_launchmon = sim.now - t0

    root = overlay.endpoint(0)
    t_collect0 = sim.now
    merged: list[tuple] = []
    for wave in range(max(1, n_waves)):
        yield from root.broadcast(1, wave, "collect")
        pkt = yield from root.collect_wave()
        merged = sorted((tuple(r) for r in pkt.payload), key=lambda r: r[0])
    t_collect = sim.now - t_collect0
    yield from root.broadcast(1, n_waves, "stop")

    jsnap_report = JobsnapReport([ProcSnapshot(*row) for row in merged])
    yield from fe.detach(session)
    times = dict(session.times.as_dict())
    times["t_collect_per_wave"] = t_collect / max(1, n_waves)
    return JobsnapResult(
        report=jsnap_report,
        t_launchmon=t_launchmon,
        t_total=sim.now - t0,
        n_daemons=n_be + len(topology.comm_positions()),
        n_tasks=len(session.rpdtab),
        component_times=times,
    )
