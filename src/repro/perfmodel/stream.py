"""Closed-form prediction of the streaming data plane's per-wave
behaviour."""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.costs import CostModel
from repro.tbon.packets import Packet

__all__ = ["StreamModel"]


class StreamModel:
    """Analytic per-wave terms for the persistent TBON data plane.

    Parameterized by the same :class:`CostModel` constants the simulated
    stream plane pays, so disagreement indicates a modeling error, not a
    calibration gap. Two regimes matter for a sustained stream:

    * **unloaded wave latency** -- one wave rippling up an idle tree:
      along the deepest leaf-to-root path, each level pays one hop
      (latency + per-message overhead + packet serialization) plus the
      level's filter-merge processing (``msg_overhead`` per merged child,
      matching the router's charge);
    * **sustained throughput** -- under continuous publishing the
      pipeline bottlenecks on its busiest router: a position merging
      ``c`` children spends ``msg_overhead * c`` per wave, so waves
      cannot drain faster than the widest position can merge them
      (credit-based flow control holds publishers to exactly that rate
      instead of letting inboxes grow).
    """

    #: packet framing bytes (the wire format's own constant)
    PACKET_HEADER = Packet.HEADER_BYTES
    #: ``message_size`` fallback for opaque (dict) payloads
    OPAQUE_PAYLOAD = 64

    def __init__(self, costs: CostModel | None = None):
        self.costs = costs or CostModel()

    def hop_time(self, payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """One child -> parent packet transfer (unjittered mean)."""
        c = self.costs
        nbytes = self.PACKET_HEADER + payload_bytes
        return c.net_latency + c.msg_overhead + nbytes / c.net_bandwidth

    def merge_time(self, n_children: int) -> float:
        """One position's filter processing for one wave."""
        return self.costs.msg_overhead * max(1, n_children)

    # -- per-topology terms ---------------------------------------------------
    def _level_children(self, topology) -> list[list[int]]:
        """Child counts of the internal positions along each leaf's
        root path (one list per leaf, leaf-side first).

        Aggregate-aware: leaf iteration covers ``"agg"`` positions too and
        counts are *virtual* (an aggregate child counts as the physical
        fan-in it collapsed), so the model predicts the full underlying
        tree whether or not the topology is hybrid."""
        paths = []
        # one count per router: every leaf under it shares it
        child_counts: dict[int, int] = {}
        for leaf in topology.leaves():
            counts = []
            pos = topology.parent[leaf]
            while pos is not None:
                if pos not in child_counts:
                    child_counts[pos] = topology.virtual_child_count(pos)
                counts.append(child_counts[pos])
                pos = topology.parent[pos]
            paths.append(counts)
        return paths

    def wave_latency(self, topology,
                     payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """T(wave): one unloaded wave, first publish to root delivery.

        The slowest leaf-to-root path dominates: per level one hop plus
        that level's merge processing.
        """
        worst = 0.0
        for counts in self._level_children(topology):
            t = sum(self.hop_time(payload_bytes) + self.merge_time(c)
                    for c in counts)
            worst = max(worst, t)
        return worst

    def service_time(self, topology, credit_limit: Optional[int] = None,
                     payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """Per-wave occupancy of the pipeline's busiest router.

        A position merging ``c`` children spends, per wave:

        * ``merge_time(c)`` of filter processing (its inbox cannot drain
          meanwhile, so at most ``credit_limit`` contributions of the
          next wave land during it);
        * the *feeding* serialization the credit gate imposes:
          contributions arrive in batches of ``credit_limit`` parallel
          transfers, so ``c`` of them need ``ceil(c/limit) - 1``
          additional hop times beyond the batch that overlapped the
          merge (unbounded credits overlap all of it);
        * one forward hop to its parent's inbox (the root banks locally
          instead).
        """
        hop = self.hop_time(payload_bytes)
        worst = 0.0
        for pos in range(topology.size):
            if not topology.children(pos):
                continue
            # virtual count: an aggregate child models its whole collapsed
            # fan-in, so the busiest-router bound is over the *underlying*
            # tree (identical to the physical count on non-hybrid trees)
            c = topology.virtual_child_count(pos)
            t = self.merge_time(c)
            if credit_limit:
                t += max(0, math.ceil(c / credit_limit) - 1) * hop
            if pos != 0:
                t += hop
            worst = max(worst, t)
        return worst

    def aggregate_contribution_delay(self, n_leaves: int, n_contrib: int,
                                     credit_limit: Optional[int] = None,
                                     payload_bytes: int = OPAQUE_PAYLOAD,
                                     ) -> float:
        """Per-wave delay an :class:`~repro.simx.aggregate.AggregateSubtree`
        emitter waits before publishing, modeling the collapsed subtree's
        *internal* pipeline occupancy.

        A flat span (``n_contrib == n_leaves``: leaves that would publish
        straight to the parent) has no internal levels -- the parent-side
        merge and feeding are already charged by the weighted router --
        so the delay is zero. A collapsed comm level (balanced hybrid)
        pays one comm's service time: merging its ``ceil(n_leaves /
        n_contrib)`` leaves, the credit-gated feeding of those leaves,
        and the forward hop (the collapsed comms run in parallel, so one
        comm's occupancy is the per-wave delay).
        """
        if n_contrib >= n_leaves:
            return 0.0
        g = math.ceil(n_leaves / max(1, n_contrib))
        hop = self.hop_time(payload_bytes)
        t = self.merge_time(g)
        if credit_limit:
            t += max(0, math.ceil(g / credit_limit) - 1) * hop
        return t + hop

    def sustained_throughput(self, topology,
                             credit_limit: Optional[int] = None,
                             payload_bytes: int = OPAQUE_PAYLOAD) -> float:
        """Waves per second under saturating publishers (pipelined)."""
        return 1.0 / self.service_time(topology, credit_limit,
                                       payload_bytes)

    def wave_interval_throughput(self, topology, publish_interval: float,
                                 credit_limit: Optional[int] = None,
                                 payload_bytes: int = OPAQUE_PAYLOAD,
                                 ) -> float:
        """Waves per second when leaves publish every
        ``publish_interval`` seconds: the slower of the publishing
        cadence and the pipeline's sustained rate."""
        sustained = self.sustained_throughput(topology, credit_limit,
                                              payload_bytes)
        if publish_interval <= 0:
            return sustained
        return min(1.0 / publish_interval, sustained)
