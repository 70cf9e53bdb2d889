"""The call-graph prefix tree (2^10-way merge-friendly, JSON-able).

Each node represents one call path prefix; its rank set records every
task whose sampled stack passes through that prefix. Rank sets are run
lists (:mod:`repro.tbon.filters`): sorted, disjoint, half-open runs, so a
node's cost follows the number of runs, not the number of tasks -- a
contiguous span of a million ranks is two integers. Merging two trees is
a pointwise union -- associative, commutative and idempotent
(property-tested), which is exactly what makes the structure reduce
losslessly through a TBON in any tree shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.tbon.filters import RankRuns, add_rank, subtract_runs, union_runs

__all__ = ["PrefixTree", "merge_trees"]


class _Node:
    __slots__ = ("runs", "children")

    def __init__(self) -> None:
        self.runs: list[int] = []
        self.children: dict[str, _Node] = {}


class PrefixTree:
    """A mergeable call-graph prefix tree with rank-set annotations."""

    def __init__(self) -> None:
        self._root = _Node()
        self._n_samples = 0

    # -- construction --------------------------------------------------------
    def insert(self, stack: Sequence[str], rank: int) -> None:
        """Add one sampled stack (outermost frame first) for one rank."""
        if not stack:
            raise ValueError("empty stack trace")
        self._n_samples += 1
        node = self._root
        add_rank(node.runs, rank)
        for frame in stack:
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _Node()
            node = child
            add_rank(node.runs, rank)

    # -- queries ------------------------------------------------------------------
    @property
    def all_ranks(self) -> RankRuns:
        return RankRuns(self._root.runs)

    def paths(self) -> list[tuple[tuple[str, ...], RankRuns]]:
        """Every call path some rank's stack ends at, with those ranks.

        A leaf's ranks all end there; an interior node keeps the ranks
        none of its children carry (a stack that is a prefix of another),
        so with one sample per rank the rank sets partition
        :attr:`all_ranks`. Paths come out in sorted order.
        """
        out: list[tuple[tuple[str, ...], RankRuns]] = []

        def walk(node: _Node, prefix: tuple[str, ...]):
            own = (subtract_runs(node.runs, union_runs(
                child.runs for child in node.children.values()))
                if node.children else node.runs)
            if own:
                out.append((prefix, RankRuns(own)))
            for frame in sorted(node.children):
                walk(node.children[frame], prefix + (frame,))

        for frame in sorted(self._root.children):
            walk(self._root.children[frame], (frame,))
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
            stack.extend(node.children.values())
        return count - 1  # exclude synthetic root

    def ranks_at(self, path: Sequence[str]) -> RankRuns:
        """Rank set at an interior prefix (empty set if path absent)."""
        node = self._root
        for frame in path:
            child = node.children.get(frame)
            if child is None:
                return RankRuns()
            node = child
        return RankRuns(node.runs)

    # -- merging --------------------------------------------------------------------
    def merge(self, other: "PrefixTree") -> "PrefixTree":
        """In-place union with another tree; returns self."""

        def fold(dst: _Node, src: _Node):
            dst.runs = union_runs((dst.runs, src.runs))
            for frame, src_child in src.children.items():
                dst_child = dst.children.setdefault(frame, _Node())
                fold(dst_child, src_child)

        fold(self._root, other._root)
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
        return self.to_dict()["tree"] == other.to_dict()["tree"]

    # -- wire form ---------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form for TBON payloads: ``{"r": runs, "c": {...}}``
        per node, rank sets as run lists."""

        def conv(node: _Node) -> dict:
            return {"r": list(node.runs),
                    "c": {f: conv(ch) for f, ch in
                          sorted(node.children.items())}}

        return {"tree": conv(self._root), "n": self._n_samples}

    @classmethod
    def from_dict(cls, obj: dict) -> "PrefixTree":
        tree = cls()

        def conv(data: dict, node: _Node):
            node.runs = list(data["r"])
            for frame, child_data in data["c"].items():
                child = _Node()
                node.children[frame] = child
                conv(child_data, child)

        conv(obj["tree"], tree._root)
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
