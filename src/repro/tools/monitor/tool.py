"""The monitor tool: continuous sampling over a persistent TBON stream.

``run_monitor`` brings the daemons up through LaunchMON
(:func:`~repro.tbon.launchmon_startup`), then runs ``n_waves`` sampling
periods: every daemon reads its local tasks' state each period and
publishes the sample as one wave on a shared flow-controlled stream; the
front end subscribes and collects the merged waves plus the stream's
:class:`~repro.tbon.StreamReport` (per-wave latency attribution,
per-position flow stats). This is the performance-analysis-tools survey's
usage model -- tools are *samplers*, not one-shot snapshots -- driven
end-to-end over the launching stack the paper builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.cluster import Cluster
from repro.fe import ToolFrontEnd
from repro.launch import LaunchReport
from repro.rm.base import ResourceManager, RMJob
from repro.tbon import StreamReport, TBONTopology, launchmon_startup
from repro.tbon.overlay import StreamSpec
from repro.tools.stat_tool.prefix_tree import PrefixTree

__all__ = ["MONITOR_IMAGE_MB", "MonitorResult", "run_monitor",
           "sample_payload"]

#: monitor daemon binary + sampling library package (MB)
MONITOR_IMAGE_MB = 6.0

#: cost of sampling one local task's /proc state (one period)
SAMPLE_PER_TASK = 0.0001

#: the stream id the monitor uses (its own namespace on the overlay)
MONITOR_STREAM_ID = 64


@dataclass
class MonitorResult:
    """What one continuous-monitoring run produced."""

    #: the data-plane accounting: per-wave attribution + flow stats
    report: StreamReport
    #: delivered merged waves, in order: ``(wave, payload)``
    waves: list = field(default_factory=list)
    #: the root filter state at the end (running windowed aggregates)
    final_state: Any = None
    #: the launch-side report (how the daemons came up)
    startup: Optional[LaunchReport] = None
    n_tasks: int = 0
    t_total: float = 0.0


def sample_payload(ctx, entries, filter_name: str) -> Any:
    """One daemon's per-period sample, shaped for the stream's filter.

    * ``histogram`` -- ``{proc-state: count}`` over the local tasks;
    * ``top_k`` -- ``[stack-depth, "rank<i>"]`` items (deepest stacks
      bubble to the top of the merged view);
    * ``ewma`` -- the number of locally alive tasks (the merged wave is
      the cluster-wide alive count; the filter state tracks its EWMA);
    * ``prefix_tree_merge`` -- the local call-graph prefix tree;
    * anything else (``sum``/``concat``/...) -- the local task count.
    """
    procs = [(e, ctx.node.procs.get(e.pid)) for e in entries]
    live = [(e, p) for e, p in procs if p is not None]
    if filter_name == "histogram":
        hist: dict = {}
        for _e, p in live:
            key = p.state.value
            hist[key] = hist.get(key, 0) + 1
        return hist
    if filter_name == "top_k":
        return [[len(p.call_stack), f"rank{e.rank}"] for e, p in live]
    if filter_name == "ewma":
        return sum(1 for _e, p in live if p.alive)
    if filter_name == "prefix_tree_merge":
        tree = PrefixTree()
        for e, p in live:
            tree.insert(list(p.call_stack), e.rank)
        return tree.to_dict()
    return len(live)


def run_monitor(cluster: Cluster, rm: ResourceManager, job: RMJob,
                n_waves: int = 16, interval: float = 0.05,
                filter_name: str = "histogram", window: int = 8,
                credit_limit: int = 4,
                topology: Optional[TBONTopology] = None,
                image_mb: float = MONITOR_IMAGE_MB,
                ) -> Generator[Any, Any, MonitorResult]:
    """Monitor ``job`` for ``n_waves`` sampling periods of ``interval``.

    The daemons and the front end share one
    :class:`~repro.tbon.StreamSpec`; daemons open the stream first (the
    open is idempotent), publish one wave per period, and the front end's
    subscription loop consumes the merged waves as they assemble --
    sustained traffic under credit-based flow control, surviving overlay
    repairs if nodes die along the way.
    """
    sim = cluster.sim
    t0 = sim.now
    fe = ToolFrontEnd(cluster, rm, "monitor")
    yield from fe.init()
    session = fe.create_session()

    spec = StreamSpec(MONITOR_STREAM_ID, filter_name,
                      credit_limit=credit_limit, window=window)

    def monitor_daemon_body(be, ctx, endpoint):
        be.attach_overlay(endpoint)
        stream = be.stream_open(spec)
        entries = be.get_my_proctab()
        for wave in range(n_waves):
            yield ctx.sim.timeout(SAMPLE_PER_TASK * max(1, len(entries)))
            payload = sample_payload(ctx, entries, filter_name)
            yield from be.stream_publish(stream, wave, payload)
            yield ctx.sim.timeout(interval)

    overlay, startup = yield from launchmon_startup(
        fe, session, job, topology=topology,
        daemon_executable="mon_be", image_mb=image_mb,
        daemon_body=monitor_daemon_body)

    stream = session.open_stream(
        stream_id=MONITOR_STREAM_ID, filter_name=filter_name,
        credit_limit=credit_limit, window=window)
    waves = []
    for _ in range(n_waves):
        pkt = yield from stream.next_wave()
        waves.append((pkt.wave, pkt.payload))

    result = MonitorResult(
        report=stream.report,
        waves=waves,
        final_state=stream.state_at(0),
        startup=startup,
        n_tasks=len(session.rpdtab),
    )
    stream.close()
    yield from fe.detach(session)
    result.t_total = sim.now - t0
    return result
