"""Streaming sweep: leaves x filter x window x credit-limit ("str").

The launch experiments (fig6/lmx/res) measure how fast a tool *comes up*;
this one measures what the launched infrastructure can *carry*: a
persistent, credit-flow-controlled stream (:meth:`repro.tbon.Overlay
.open_stream`) sustains ``n_waves`` reduction waves over leaves publishing
continuously, and every cell reports

* the delivered throughput (waves/s) against the analytic
  :class:`~repro.perfmodel.StreamModel` prediction (the pipeline
  bottlenecks on its widest router's merge processing);
* the per-wave latency attribution (fanin / filter / deliver spans that
  sum exactly to the measured wave latency -- ScalAna-style phase
  attribution for sustained traffic);
* the flow-control counters: max inbox depth (never above the credit
  limit, by construction) and how often/long publishers stalled on
  backpressure.

:func:`measure_monitor` additionally runs the session-level path -- the
``tools/monitor`` continuous sampler over a LaunchMON-started TBON -- so
the sweep's synthetic numbers stay anchored to an end-to-end tool run.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.apps import make_compute_app
from repro.perfmodel import StreamModel
from repro.runner import drive, make_env
from repro.simx import AggregationPlan
from repro.tbon import Overlay, TBONTopology, make_filter
from repro.tbon.overlay import StreamSpec
from repro.tools.monitor import run_monitor
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["measure_monitor", "measure_stream", "run_streaming",
           "synthetic_payload", "synthetic_aggregate_payload",
           "STREAM_HYBRID_EXACT_HEAD"]

#: ceiling for one cell's virtual runtime before it is declared hung
CELL_DEADLINE = 3600.0

#: stream id used by the synthetic sweep cells
SWEEP_STREAM_ID = 9

FILTERS = ("histogram", "top_k", "ewma")

#: leaves simulated exactly at the head of a hybrid stream cell; multiple
#: whole comm groups so the exact region exercises real routers
STREAM_HYBRID_EXACT_HEAD = 256


def synthetic_payload(filter_name: str, pos: int, wave: int) -> Any:
    """A deterministic per-leaf wave payload shaped for ``filter_name``."""
    if filter_name == "histogram":
        return {f"bin{pos % 8}": 1}
    if filter_name == "top_k":
        return [[(pos * 7 + wave * 3) % 101, f"leaf{pos}"]]
    if filter_name == "ewma":
        return 1
    if filter_name == "prefix_tree_merge":
        runs = [pos, pos + 1]
        return {"tree": {"r": runs, "c": {
            "main": {"r": runs, "c": {
                f"f{pos % 4}": {"r": runs, "c": {}}}}}}, "n": 1}
    return 1  # sum / max / concat-style numeric payload


def synthetic_aggregate_payload(filter_name: str, lo: int, hi: int,
                                wave: int, filter_params: tuple = ()) -> Any:
    """The exact merge of :func:`synthetic_payload` over leaves
    ``lo..hi-1``, in closed form for the swept filters.

    This is what a hybrid cell's aggregate emitter publishes: the same
    payload the collapsed subtree's router would have produced, so the
    root's delivered waves and final state stay *bit-exact* while the
    span's leaves are never simulated. Filters without a closed form fall
    back to materializing the span's payloads and running the filter's
    own reduce -- still exact, but linear in span size.
    """
    span = hi - lo
    if filter_name == "histogram":
        out = {}
        for b in range(8):
            start = lo + ((b - lo) % 8)
            if start < hi:
                out[f"bin{b}"] = (hi - start + 7) // 8
        return out
    if filter_name == "top_k":
        # invert value = (pos*7 + wave*3) % 101 with 7^-1 = 29 (mod 101);
        # equal values rank by str(key), matching TopKFilter.merge
        k = int(dict(filter_params).get("k", 8))
        items: list = []
        for value in range(100, -1, -1):
            residue = ((value - 3 * wave) * 29) % 101
            start = lo + ((residue - lo) % 101)
            keys = sorted(f"leaf{p}" for p in range(start, hi, 101))
            items.extend([value, key] for key in keys)
            if len(items) >= k:
                break
        return items[:k]
    if filter_name == "ewma":
        return span  # the span's per-wave sum of 1s
    filt = make_filter(filter_name, **dict(filter_params))
    merged, _ = filt.reduce(
        [synthetic_payload(filter_name, p, wave) for p in range(lo, hi)],
        filt.initial_state())
    return merged


def _build_overlay(n_leaves: int, fanout: int, seed: int, plan=None):
    """A placed, routed overlay (FE -> comms -> BEs) on a fresh env.

    With an :class:`~repro.simx.aggregate.AggregationPlan` the tree is the
    balanced *hybrid* shape: only the plan's exact groups get comm/BE
    positions (and cluster nodes); aggregate spans are positions without
    placement, fed analytically.
    """
    if plan is not None:
        if not fanout:
            raise ValueError("hybrid stream cells need a fanout "
                             "(group-aligned balanced tree)")
        topo = TBONTopology.hybrid_balanced(plan, fanout)
    else:
        topo = (TBONTopology.balanced(n_leaves, fanout) if fanout
                else TBONTopology.one_deep(n_leaves))
    n_comm = len(topo.comm_positions())
    # only simulated positions occupy nodes: aggregate spans need no
    # compute, which is what lets a 1M-leaf cell fit a laptop
    n_be = len(topo.backends())  # simlint: allow[agg-leaves]
    env = make_env(n_compute=n_be + n_comm, seed=seed)
    placement = {0: env.cluster.front_end}
    for i, pos in enumerate(topo.comm_positions()):
        placement[pos] = env.cluster.compute[i]
    for i, pos in enumerate(topo.backends()):  # simlint: allow[agg-leaves]
        placement[pos] = env.cluster.compute[n_comm + i]
    overlay = Overlay(env.sim, env.cluster.network, topo, placement,
                      streams={})
    overlay.start_routers()
    return env, topo, overlay


def measure_stream(n_leaves: int, filter_name: str = "histogram",
                   window: int = 8, credit_limit: int = 4,
                   n_waves: int = 20, fanout: int = 16,
                   publish_interval: float = 0.0,
                   filter_params: tuple = (), seed: int = 1,
                   hybrid: bool = False,
                   exact_head: int = STREAM_HYBRID_EXACT_HEAD) -> dict:
    """One sweep cell: sustain ``n_waves`` over a synthetic stream.

    ``publish_interval=0`` saturates the pipeline (throughput is then
    router-bound, the regime the model predicts); a positive interval
    models a sampling cadence.

    ``hybrid=True`` simulates only ``exact_head`` leaves (whole comm
    groups) exactly; the rest of the tree collapses into aggregate spans
    whose emitters publish the span's closed-form merged payload each
    wave, delayed by the :class:`StreamModel`'s collapsed-pipeline
    occupancy. Delivered wave payloads and final state are exact; timing
    carries the model's error band.
    """
    plan = None
    if hybrid:
        head = min(exact_head, n_leaves)
        plan = AggregationPlan.build(n_leaves, exact_head=head,
                                     group=fanout)
    env, topo, overlay = _build_overlay(n_leaves, fanout, seed, plan=plan)
    sim = env.sim
    spec = StreamSpec(SWEEP_STREAM_ID, filter_name,
                      credit_limit=credit_limit, window=window,
                      filter_params=filter_params)
    stream = overlay.open_stream(spec)
    model = StreamModel(env.cluster.costs)

    # payload identity is the publishing position; a hybrid cell's leaves
    # must publish under their *full-tree-equivalent* positions (the BE
    # slots the non-hybrid balanced tree would assign) or the merged
    # payloads could not match the full simulation bit-for-bit
    n_comm_full = -(-n_leaves // fanout) if fanout else 0
    leaf_id_base = (1 + n_comm_full) if n_comm_full > 1 else 1
    leaf_ids: dict[int, int] = {}
    if hybrid:
        vidx = 0
        for pos in topo.leaves():
            if topo.kind[pos] == "agg":
                vidx = topo.agg_span(pos)[1]
            else:
                leaf_ids[pos] = leaf_id_base + vidx
                vidx += 1

    def leaf(pos):
        ident = leaf_ids.get(pos, pos)
        for wave in range(n_waves):
            payload = synthetic_payload(filter_name, ident, wave)
            yield from stream.publish(pos, wave, payload)
            if publish_interval > 0:
                yield sim.timeout(publish_interval)

    def aggregate_emitter(pos):
        lo, hi = topo.agg_span(pos)
        delay = model.aggregate_contribution_delay(
            hi - lo, topo.contrib_weight(pos), credit_limit=credit_limit)
        for wave in range(n_waves):
            if delay > 0:
                yield sim.timeout(delay)
            payload = synthetic_aggregate_payload(
                filter_name, leaf_id_base + lo, leaf_id_base + hi,
                wave, filter_params)
            yield from stream.publish(pos, wave, payload)
            if publish_interval > 0:
                yield sim.timeout(publish_interval)

    waves = []

    def subscriber():
        for _ in range(n_waves):
            pkt = yield from stream.next_wave()
            waves.append((pkt.wave, pkt.payload))

    for pos in topo.backends():  # simlint: allow[agg-leaves]
        sim.process(leaf(pos), name=f"leaf:{pos}")
    for pos in topo.agg_positions():
        sim.process(aggregate_emitter(pos), name=f"agg-leaf:{pos}")
    drive(env, subscriber(), until=CELL_DEADLINE)

    report = stream.report
    model = StreamModel(env.cluster.costs)
    predicted = model.wave_interval_throughput(topo, publish_interval,
                                               credit_limit=credit_limit)
    measured = report.throughput()
    err = (abs(measured - predicted) / predicted) if predicted else 0.0
    phase_totals = report.phase_totals()
    return {
        "leaves": n_leaves, "fanout": fanout, "filter": filter_name,
        "hybrid": hybrid, "n_exact": plan.n_exact if plan else n_leaves,
        "window": window, "credit_limit": credit_limit,
        "n_waves": n_waves, "delivered": report.n_delivered,
        "throughput": measured, "throughput_model": predicted,
        "model_err": err,
        "mean_latency": report.mean_latency(),
        "latency_model": model.wave_latency(topo),
        "phase_totals": phase_totals,
        "total_latency": report.total_latency(),
        "dominant_phase": report.dominant_phase(),
        "max_inbox_depth": report.max_inbox_depth(),
        "n_stalls": report.total_stalls(),
        "t_stalled": report.total_stall_time(),
        "final_state": stream.state_at(0),
        "report": report.as_dict(),
        "waves": waves,
        "sim_events": env.sim.stats.events,
    }


def measure_monitor(n_daemons: int = 16, n_waves: int = 8,
                    filter_name: str = "histogram", window: int = 4,
                    credit_limit: int = 4, interval: float = 0.02,
                    tasks_per_daemon: int = 4, seed: int = 1) -> dict:
    """Session-level anchor cell: the monitor tool end-to-end."""
    env = make_env(n_compute=n_daemons, seed=seed)
    app = make_compute_app(n_tasks=n_daemons * tasks_per_daemon,
                           tasks_per_node=tasks_per_daemon)
    box: dict = {}

    def scenario(env):
        job = yield from env.rm.launch_job(app, env.rm.allocate(n_daemons))
        res = yield from run_monitor(
            env.cluster, env.rm, job, n_waves=n_waves,
            interval=interval, filter_name=filter_name,
            window=window, credit_limit=credit_limit)
        box["res"] = res

    drive(env, scenario(env), until=CELL_DEADLINE)
    res = box["res"]
    return {
        "daemons": n_daemons, "n_tasks": res.n_tasks,
        "delivered": res.report.n_delivered,
        "throughput": res.report.throughput(),
        "mean_latency": res.report.mean_latency(),
        "startup_total": res.startup.total,
        "t_total": res.t_total,
        "final_state": res.final_state,
        "report": res.report.as_dict(),
    }


def _str_point(n: int, filter_name: str, window: int, credit: int,
               n_waves: int, fanout: int, hybrid: bool = False) -> dict:
    """One sweep cell as a result-table row (worker-safe)."""
    cell = measure_stream(n, filter_name=filter_name, window=window,
                          credit_limit=credit, n_waves=n_waves,
                          fanout=fanout, hybrid=hybrid)
    return {
        "leaves": n, "filter": filter_name, "window": window,
        "credit": credit, "delivered": cell["delivered"],
        "thpt": cell["throughput"],
        "thpt_model": cell["throughput_model"],
        "err_pct": 100.0 * cell["model_err"],
        "mean_lat": cell["mean_latency"],
        "dominant": cell["dominant_phase"],
        "max_depth": cell["max_inbox_depth"],
        "stalls": cell["n_stalls"],
    }


def run_streaming(leaf_counts: Sequence[int] = (64, 256, 1024),
                  filters: Sequence[str] = FILTERS,
                  windows: Sequence[int] = (0, 8),
                  credit_limits: Sequence[int] = (2, 8),
                  n_waves: int = 20,
                  fanout: int = 16,
                  jobs: int = 1, hybrid: bool = False) -> ExperimentResult:
    """The full leaves x filter x window x credit-limit sweep."""
    result = ExperimentResult(
        exp_id="str",
        title="Streaming data plane: sustained waves under credit-based "
              "flow control (saturating publishers)"
              + (" -- hybrid analytic/discrete tier" if hybrid else ""),
        columns=["leaves", "filter", "window", "credit", "delivered",
                 "thpt", "thpt_model", "err_pct", "mean_lat",
                 "dominant", "max_depth", "stalls"],
    )
    grid = [dict(n=n, filter_name=filter_name, window=window, credit=credit,
                 n_waves=n_waves, fanout=fanout, hybrid=hybrid)
            for n in leaf_counts
            for filter_name in filters
            for window in windows
            for credit in credit_limits]
    result.rows = map_grid(_str_point, grid, jobs=jobs)
    if hybrid:
        result.notes.append(
            f"hybrid tier: only {STREAM_HYBRID_EXACT_HEAD} head leaves "
            f"(whole comm groups) are simulated; collapsed spans publish "
            f"their closed-form merged payloads with model-derived delays "
            f"(delivered payloads exact, timing in the model's error band)")
    result.notes.append(
        "thpt_model is the StreamModel pipeline prediction: the widest "
        "router's per-wave merge processing + the credit-gated feeding "
        "serialization + its forward hop; err_pct is the sim-vs-model "
        "gap (a few percent across filters, windows and credit limits)")
    result.notes.append(
        "max_depth is the deepest any stream inbox ever got: always <= "
        "the credit limit (structural bound), with publishers absorbing "
        "the excess as stalls (credit-based backpressure)")
    return result
