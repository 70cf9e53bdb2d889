"""Aggregation plans for the hybrid analytic/discrete simulation tier.

The hybrid tier collapses homogeneous leaf subtrees of a TBON into
``AggregateSubtree`` nodes: positions whose launch/handshake/stream-wave
contributions are charged from the validated perfmodel closed forms
instead of being discrete-event simulated leaf by leaf.  Everything in
the *exact region* -- the head of the leaf space plus every *special*
leaf (fault-injection site, stream tap, blacklisted/crashed node,
repair site) -- stays fully simulated.

This module is pure bookkeeping: it decides *which* leaves aggregate
and owns the exactness boundary, which ``with_special`` grows.  It
deliberately knows nothing about tbon topologies, overlays or the
perfmodel so that any layer (topology builders, experiments, tests) can
depend on it without cycles.

Leaves are identified by their dense index in ``0..n_total-1`` (the
order of ``TBONTopology.backends()`` for a full tree).  Plans may be
*group aligned*: with ``group=g`` the leaf space is partitioned into
consecutive blocks of ``g`` leaves and a block either aggregates whole
or is exact whole.  Balanced TBONs use ``group=fanout`` so an aggregate
node stands in for an entire comm subtree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import FrozenSet, Iterable, Tuple


class AggregationError(ValueError):
    """An aggregation plan was structurally invalid."""


@dataclass(frozen=True)
class AggregateSubtree:
    """A contiguous run of homogeneous leaves modeled analytically.

    ``agg_id``    -- dense index of this subtree within the plan.
    ``leaf_lo``   -- first leaf index covered (inclusive).
    ``leaf_hi``   -- one past the last leaf covered (exclusive).
    ``n_contrib`` -- number of *physical contributions* the subtree
                     presents to its parent (1 per collapsed group for
                     grouped plans; equals ``n_leaves`` for flat plans).
    """

    agg_id: int
    leaf_lo: int
    leaf_hi: int
    n_contrib: int

    @property
    def n_leaves(self) -> int:
        return self.leaf_hi - self.leaf_lo


@dataclass(frozen=True)
class AggregationPlan:
    """Partition of the leaf space into exact leaves and aggregates.

    Invariants (checked in ``__post_init__`` in time and memory that
    grow with the exact leaves and the spans, never with ``n_total``):

    * ``exact`` and the subtree spans partition ``0..n_total-1``.
    * every subtree span is aligned to ``group`` boundaries and every
      group is either fully exact or fully aggregated.
    * ``special`` (the leaves pinned exact) is a subset of ``exact``.
    """

    n_total: int
    group: int = 1
    exact_head: int = 0
    special: FrozenSet[int] = field(default_factory=frozenset)
    exact: Tuple[int, ...] = ()
    subtrees: Tuple[AggregateSubtree, ...] = ()

    def __post_init__(self) -> None:
        if self.n_total <= 0:
            raise AggregationError("plan needs at least one leaf")
        if self.group <= 0:
            raise AggregationError(f"group must be positive, got {self.group}")
        for sub in self.subtrees:
            if sub.leaf_lo % self.group or sub.leaf_hi % self.group:
                raise AggregationError(
                    f"subtree [{sub.leaf_lo},{sub.leaf_hi}) not aligned to group {self.group}"
                )
            if not 0 <= sub.leaf_lo < sub.leaf_hi <= self.n_total:
                raise AggregationError(
                    f"subtree [{sub.leaf_lo},{sub.leaf_hi}) outside leaf space"
                )
        spans = sorted(self.subtrees, key=lambda sub: sub.leaf_lo)
        starts = [sub.leaf_lo for sub in spans]
        # reach[i]: furthest leaf_hi among spans[:i+1], so a leaf inside a
        # long span that a later-starting (overlapping) span follows is
        # still found covered
        reach = list(accumulate((sub.leaf_hi for sub in spans), max))

        def covered(leaf: int) -> bool:
            i = bisect_right(starts, leaf) - 1
            return i >= 0 and leaf < reach[i]

        both = sorted({leaf for leaf in self.exact if covered(leaf)})
        if both:
            raise AggregationError(f"leaves both exact and aggregated: {both[:4]}")
        exact = sorted(self.exact)
        if (
            any(a.leaf_hi > b.leaf_lo for a, b in zip(spans, spans[1:]))
            or (exact and (exact[0] < 0 or exact[-1] >= self.n_total))
            or any(a == b for a, b in zip(exact, exact[1:]))
            or len(exact) + sum(sub.n_leaves for sub in spans) != self.n_total
        ):
            raise AggregationError("exact leaves + subtrees must partition the leaf space")
        missing = set(self.special) - set(self.exact)
        if missing:
            raise AggregationError(
                f"special leaves outside the exact region: {sorted(missing)[:4]}"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls,
        n_total: int,
        exact_head: int = 0,
        special: Iterable[int] = (),
        group: int = 1,
    ) -> "AggregationPlan":
        """Build a plan: a fully-simulated head, special leaves pinned
        exact (each de-aggregating its whole group), contiguous runs of
        remaining groups collapsed into one subtree per run.  A ragged
        tail (``n_total`` not a multiple of ``group``) stays exact -- it
        is the one group an aggregate node could not stand in for."""
        if n_total <= 0:
            raise AggregationError("plan needs at least one leaf")
        if group <= 0:
            raise AggregationError(f"group must be positive, got {group}")
        specials = frozenset(special)
        for leaf in specials:
            if not 0 <= leaf < n_total:
                raise AggregationError(f"special leaf {leaf} outside 0..{n_total - 1}")
        # round the exact head up to a group boundary
        head = min(n_total, exact_head)
        if head % group:
            head += group - head % group
        n_groups = n_total // group
        head_groups = min(head // group, n_groups)
        # walk only the exact groups -- the head range, each special
        # leaf's group in order, then the (possibly empty) ragged tail as
        # group n_groups -- and emit the aggregate run before each one
        open_lo, open_hi = head_groups * group, n_groups * group
        special_groups = sorted(
            {leaf // group for leaf in specials if open_lo <= leaf < open_hi}
        )
        exact_leaves = list(range(open_lo))
        subtrees = []
        run_start = head_groups
        for g in special_groups + [n_groups]:
            if g > run_start:
                lo, hi = run_start * group, g * group
                subtrees.append(
                    AggregateSubtree(len(subtrees), lo, hi, n_contrib=g - run_start)
                )
            run_start = g + 1
            exact_leaves.extend(range(g * group, min(run_start * group, n_total)))
        return cls(
            n_total=n_total,
            group=group,
            exact_head=head,
            special=specials,
            exact=tuple(exact_leaves),
            subtrees=tuple(subtrees),
        )

    def with_special(self, *leaves: int) -> "AggregationPlan":
        """A new plan whose exact region also contains ``leaves``."""
        extra = set(leaves) - set(self.special)
        if not extra:
            return self
        return AggregationPlan.build(
            self.n_total,
            exact_head=self.exact_head,
            special=self.special | extra,
            group=self.group,
        )

    # -- queries -------------------------------------------------------

    @property
    def n_exact(self) -> int:
        return len(self.exact)
