"""Multi-tenant scaling study: session throughput and latency vs tenants.

The paper measures one ``launchAndSpawn`` at a time; production tool
infrastructure serves many users whose sessions contend for the front-end
node, the RM controller, the shared filesystem and the compute nodes
themselves. This study sweeps the number of concurrent tool sessions on a
fixed-size cluster and reports, per tenant count:

* **makespan** -- virtual time until every session completed and detached;
* **throughput** -- completed sessions per virtual second;
* **p50 / p99 launch latency** -- submit -> READY, the client-visible cost
  (the p99/p50 gap is the queueing signature that single-session studies
  cannot show);
* **mean allocation wait** -- time in the ``QUEUED`` state, i.e. the share
  of latency caused purely by node contention;
* **peak in-flight** -- how many sessions the service actually ran at once.

Every run is fully deterministic: same seed, same submission order, same
event interleaving -- so the numbers are reproducible to the last digit.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps import make_compute_app
from repro.be import minimal_daemon
from repro.experiments.common import ExperimentResult, percentile
from repro.rm import DaemonSpec
from repro.runner import ServiceEnv, drive, make_service_env
from repro.experiments.sweep import map_grid

__all__ = ["run_multitenant", "run_tenants_once"]

DAEMON_IMAGE_MB = 1.0


def _detach_body(fe, session):
    """Per-session epilogue: detach + reclaim, freeing the nodes."""
    yield from fe.detach(session, reclaim_job=True)
    return session.id


def run_tenants_once(n_tenants: int,
                     n_compute: int = 64,
                     nodes_per_session: int = 8,
                     tasks_per_node: int = 4,
                     max_in_flight: Optional[int] = None,
                     seed: int = 1) -> tuple[ServiceEnv, list]:
    """Run one multi-tenant wave: ``n_tenants`` concurrent launches on a
    shared ``n_compute``-node cluster. Returns (env, handles)."""
    env = make_service_env(n_compute=n_compute, max_in_flight=max_in_flight,
                           seed=seed)
    app = make_compute_app(n_tasks=nodes_per_session * tasks_per_node,
                           tasks_per_node=tasks_per_node)
    spec = DaemonSpec("mt_tool_be", main=minimal_daemon,
                      image_mb=DAEMON_IMAGE_MB)
    handles = [
        env.service.submit_launch(app, spec, tool_name=f"tenant{i:03d}",
                                  body=_detach_body)
        for i in range(n_tenants)
    ]
    drive(env, env.service.drain())
    return env, handles


def _mt_point(n: int, n_compute: int, nodes_per_session: int,
              tasks_per_node: int, max_in_flight: Optional[int]) -> dict:
    """One grid point: a full tenant wave, reduced to row scalars
    (env/handles stay in the worker -- they are not picklable)."""
    env, handles = run_tenants_once(
        n, n_compute=n_compute, nodes_per_session=nodes_per_session,
        tasks_per_node=tasks_per_node, max_in_flight=max_in_flight)
    lats = [h.launch_latency for h in handles]
    waits = [h.alloc_wait for h in handles]
    makespan = max(h.finished_at for h in handles)
    return {
        "tenants": n,
        "makespan": makespan,
        "throughput": n / makespan if makespan > 0 else 0.0,
        "p50_latency": percentile(lats, 50),
        "p99_latency": percentile(lats, 99),
        "mean_alloc_wait": sum(waits) / len(waits),
        "peak_in_flight": env.service.peak_in_flight,
        "rm_queue_peak": env.rm.alloc_queue_peak,
    }


def run_multitenant(tenant_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                    n_compute: int = 64,
                    nodes_per_session: int = 8,
                    tasks_per_node: int = 4,
                    max_in_flight: Optional[int] = None,
                    jobs: int = 1) -> ExperimentResult:
    """Sweep concurrent-tenant counts; report throughput and latency."""
    result = ExperimentResult(
        exp_id="mt",
        title=f"multi-tenant ToolService on {n_compute} nodes "
              f"({nodes_per_session} nodes/session, "
              f"admission={'unbounded' if max_in_flight is None else max_in_flight})",
        columns=["tenants", "makespan", "throughput", "p50_latency",
                 "p99_latency", "mean_alloc_wait", "peak_in_flight",
                 "rm_queue_peak"],
        paper_reference={
            "note": "beyond the paper: the seed reproduces single-session "
                    "launchAndSpawn; this study adds the concurrent-load "
                    "dimension the ROADMAP targets",
        },
    )
    grid = [dict(n=n, n_compute=n_compute,
                 nodes_per_session=nodes_per_session,
                 tasks_per_node=tasks_per_node,
                 max_in_flight=max_in_flight)
            for n in tenant_counts]
    result.rows = map_grid(_mt_point, grid, jobs=jobs)
    sat = n_compute // nodes_per_session
    result.notes.append(
        f"cluster fits {sat} sessions at once; beyond that the RM's FIFO "
        f"allocation queue drives p99 up while throughput plateaus")
    last = result.rows[-1]
    result.notes.append(
        f"at {last['tenants']} tenants: p50 {last['p50_latency']:.3f}s, "
        f"p99 {last['p99_latency']:.3f}s, "
        f"{last['throughput']:.2f} sessions/s")
    return result
