"""The call-graph prefix tree (2^10-way merge-friendly, JSON-able).

Each node represents one call path prefix; its rank set records every
task whose sampled stack passes through that prefix. Rank sets are run
lists (:mod:`repro.tbon.filters`): sorted, disjoint, half-open runs, so a
node's cost follows the number of runs, not the number of tasks -- a
contiguous span of a million ranks is two integers. The tree's nodes are
the TBON wire nodes ``{"r": runs, "c": {frame: node}}``, and merging two
trees is the ``prefix_tree_merge`` filter's fold: a pointwise union --
associative, commutative and idempotent (property-tested), which is
exactly what makes the structure reduce losslessly through a TBON in any
tree shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.tbon.filters import (
    RankRuns,
    add_rank,
    finish_tree_node,
    fold_tree_node,
    subtract_runs,
    union_runs,
)

__all__ = ["PrefixTree", "merge_trees"]


# The recursive walk is module-level: a nested def that calls itself
# closes over its own name, a function <-> cell cycle per call that only
# the cyclic collector frees, and Simulator.run() pauses the collector.

def _walk_paths(node: dict, prefix: tuple[str, ...],
                out: list[tuple[tuple[str, ...], RankRuns]]) -> None:
    """Append :meth:`PrefixTree.paths` entries at and under ``node``."""
    children = node["c"]
    own = (subtract_runs(node["r"], union_runs(
        child["r"] for child in children.values()))
        if children else node["r"])
    if own:
        out.append((prefix, RankRuns(own)))
    for frame in sorted(children):
        _walk_paths(children[frame], prefix + (frame,), out)


class PrefixTree:
    """A mergeable call-graph prefix tree with rank-set annotations."""

    def __init__(self) -> None:
        self._root: dict = {"r": [], "c": {}}
        self._n_samples = 0

    # -- construction --------------------------------------------------------
    def insert(self, stack: Sequence[str], rank: int) -> None:
        """Add one sampled stack (outermost frame first) for one rank."""
        if not stack:
            raise ValueError("empty stack trace")
        self._n_samples += 1
        node = self._root
        add_rank(node["r"], rank)
        for frame in stack:
            children = node["c"]
            node = children.get(frame)
            if node is None:
                node = children[frame] = {"r": [], "c": {}}
            add_rank(node["r"], rank)

    # -- queries ------------------------------------------------------------------
    @property
    def all_ranks(self) -> RankRuns:
        return RankRuns(self._root["r"])

    def paths(self) -> list[tuple[tuple[str, ...], RankRuns]]:
        """Every call path some rank's stack ends at, with those ranks.

        A leaf's ranks all end there; an interior node keeps the ranks
        none of its children carry (a stack that is a prefix of another),
        so with one sample per rank the rank sets partition
        :attr:`all_ranks`. Paths come out in sorted order.
        """
        out: list[tuple[tuple[str, ...], RankRuns]] = []
        children = self._root["c"]
        for frame in sorted(children):
            _walk_paths(children[frame], (frame,), out)
        return out

    def equivalence_classes(self) -> list[tuple[tuple[str, ...], RankRuns]]:
        """Process equivalence classes: :meth:`paths`, largest class first.

        A full-featured debugger attaches to one representative per class
        (the paper's usage model for root-cause analysis at scale).
        """
        return sorted(self.paths(), key=lambda pr: (-len(pr[1]), pr[0]))

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node["c"].values())
        return count - 1  # exclude synthetic root

    def ranks_at(self, path: Sequence[str]) -> RankRuns:
        """Rank set at an interior prefix (empty set if path absent)."""
        node = self._root
        for frame in path:
            node = node["c"].get(frame)
            if node is None:
                return RankRuns()
        return RankRuns(node["r"])

    # -- merging --------------------------------------------------------------------
    def merge(self, other: "PrefixTree") -> "PrefixTree":
        """In-place union with another tree; returns self."""
        fold_tree_node(self._root, other._root)
        self._n_samples += other._n_samples
        return self

    def copy(self) -> "PrefixTree":
        return PrefixTree().merge(self)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same call paths and rank sets.

        Sample counts are bookkeeping, not structure -- merging a tree with
        itself is idempotent structurally even though counts add.
        """
        if not isinstance(other, PrefixTree):
            return NotImplemented
        return self._root == other._root

    # -- wire form ---------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form for TBON payloads: a finished copy of the
        nodes, children in frame order, so later inserts leave it as
        it is."""
        return {"tree": finish_tree_node(self.copy()._root),
                "n": self._n_samples}

    @classmethod
    def from_dict(cls, obj: dict) -> "PrefixTree":
        """The tree of a wire dict, folded into an empty tree: growing
        it never writes into ``obj``."""
        tree = cls()
        fold_tree_node(tree._root, obj["tree"])
        tree._n_samples = obj.get("n", 0)
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PrefixTree nodes={self.node_count()} "
                f"ranks={len(self.all_ranks)}>")


def merge_trees(trees: Iterable[PrefixTree]) -> PrefixTree:
    """Union of any number of trees (the TBON reduction)."""
    out = PrefixTree()
    for t in trees:
        out.merge(t)
    return out
