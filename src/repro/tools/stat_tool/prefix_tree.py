"""The call-graph prefix tree (2^10-way merge-friendly, JSON-able).

Each node represents one call path prefix; its ``ranks`` set records every
task whose sampled stack passes through that prefix. Merging two trees is a
pointwise union -- associative, commutative and idempotent (property-tested),
which is exactly what makes the structure reduce losslessly through a TBON
in any tree shape.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["PrefixTree", "merge_trees"]


class _Node:
    __slots__ = ("frame", "ranks", "children")

    def __init__(self, frame: str):
        self.frame = frame
        self.ranks: set[int] = set()
        self.children: dict[str, _Node] = {}


class PrefixTree:
    """A mergeable call-graph prefix tree with rank-set annotations."""

    def __init__(self) -> None:
        self._root = _Node("<root>")
        self._n_samples = 0

    # -- construction --------------------------------------------------------
    def insert(self, stack: Sequence[str], rank: int) -> None:
        """Add one sampled stack (outermost frame first) for one rank."""
        if not stack:
            raise ValueError("empty stack trace")
        self._n_samples += 1
        node = self._root
        node.ranks.add(rank)
        for frame in stack:
            node = node.children.setdefault(frame, _Node(frame))
            node.ranks.add(rank)

    # -- queries ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def all_ranks(self) -> frozenset[int]:
        return frozenset(self._root.ranks)

    def paths(self) -> list[tuple[tuple[str, ...], frozenset[int]]]:
        """All root-to-leaf call paths with their rank sets."""
        out: list[tuple[tuple[str, ...], frozenset[int]]] = []

        def walk(node: _Node, prefix: tuple[str, ...]):
            if not node.children:
                out.append((prefix, frozenset(node.ranks)))
                return
            for frame in sorted(node.children):
                walk(node.children[frame], prefix + (frame,))

        for frame in sorted(self._root.children):
            walk(self._root.children[frame], (frame,))
        return out

    def equivalence_classes(self) -> list[tuple[tuple[str, ...], frozenset[int]]]:
        """Process equivalence classes: leaf call paths, largest class first.

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

    def ranks_at(self, path: Sequence[str]) -> frozenset[int]:
        """Rank set at an interior prefix (empty set if path absent)."""
        node = self._root
        for frame in path:
            child = node.children.get(frame)
            if child is None:
                return frozenset()
            node = child
        return frozenset(node.ranks)

    # -- merging --------------------------------------------------------------------
    def merge(self, other: "PrefixTree") -> "PrefixTree":
        """In-place union with another tree; returns self."""

        def fold(dst: _Node, src: _Node):
            dst.ranks |= src.ranks
            for frame, src_child in src.children.items():
                dst_child = dst.children.setdefault(frame, _Node(frame))
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
        """JSON-able form (rank sets as sorted lists) for TBON payloads."""

        def conv(node: _Node) -> dict:
            return {"r": sorted(node.ranks),
                    "c": {f: conv(ch) for f, ch in
                          sorted(node.children.items())}}

        return {"tree": conv(self._root), "n": self._n_samples}

    @classmethod
    def from_dict(cls, obj: dict) -> "PrefixTree":
        tree = cls()

        def conv(data: dict, node: _Node):
            node.ranks = set(data["r"])
            for frame, child_data in data["c"].items():
                child = _Node(frame)
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
