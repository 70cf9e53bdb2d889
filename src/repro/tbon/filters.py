"""TBON reduction filters: incremental wave folds and stateful stream filters.

A filter reduces the payloads of one wave's child packets into a single
upstream payload. Filters are named so topologies/streams can reference
them portably -- mirroring MRNet's filter-id mechanism. One table of
built-in factories serves one-shot waves and persistent streams alike:
``make_filter(name, window=..., **params)`` returns a :class:`Filter`.

Fold contract: a router never buffers a wave's payloads. It folds each
one into the wave's accumulator as it arrives, and until the last child
has contributed it holds that running merge, a count and a weight. Every
filter therefore has three methods:

* ``start()`` -- a fresh, empty accumulator, owned by the router;
* ``fold(acc, payload)`` -- the accumulator with one more payload folded
  in (often ``acc`` itself, updated in place). A fold never writes into
  ``payload``: a hybrid aggregate's payload shares one run list across
  its nodes, and a merged payload may also be its sender's filter state;
* ``finish(acc)`` -- the merged upstream payload. The router calls it
  once and drops the accumulator, so it may hand out parts of ``acc``.

``merge(payloads)`` is ``finish`` of the ``fold`` of ``payloads``, in
order, over ``start()``: there is no second, batch merge. It equals the
batch merge of the same list under ``==`` -- a sum adds in arrival order
starting from ``0``, ``max`` keeps the first maximal payload, ``concat``
keeps arrival order -- and ``tests/tbon/test_fold_oracle.py`` holds every
built-in filter to that. A persistent stream
(:meth:`repro.tbon.Overlay.open_stream`) also folds each finished wave
into per-position running state with ``update(state, merged)``; a
router calls ``update`` itself once ``finish`` has merged the wave.

Algebraic contract (the executable spec lives in
``tests/tbon/test_filter_properties.py``): the per-wave merge of every
built-in filter is **associative and commutative**, so the value the root
delivers is independent of fanout, depth, and child arrival order --
reducing through any tree shape equals one flat reduction over all leaf
payloads. The *state* is where windowing lives: each position folds its
subtree's per-wave merges into a running aggregate over the last
``window`` waves (0 = unbounded). A state keeps only its window: at
``window=0`` the histogram, top-k and prefix-tree states hold no waves,
and each merged wave folds straight into the running aggregate, which
the merge's associativity keeps exact (``ewma`` keeps its raw series).
Emitting the wave *delta* upstream while keeping the running aggregate in
local state is what lets every level hold a live windowed view of its
subtree without ever double-counting history.

Built-in filters and their MRNet/paper correspondence:

==================  ====================================================
``concat``          MRNet TFILTER_CONCAT / waitforall (stateless)
``sum`` / ``max``   MRNet TFILTER_SUM / TFILTER_MAX (stateless)
``histogram``       running histogram: payloads are ``{bin: count}``
                    dicts, merged pointwise (ScalAna-style per-resource
                    accumulation)
``top_k``           exact distributed top-k: payloads are
                    ``[value, key]`` item lists, key-deduplicated by max
``ewma``            EWMA of per-wave aggregate sums (a continuous
                    sampler's rate estimator)
``prefix_tree_merge``  STAT's call-graph prefix-tree union, promoted here
                    from ``repro.tools.stat_tool`` (pure dict merge, no
                    tool import needed): every node's rank set is a
                    sorted run list, each payload run added by bisection
==================  ====================================================

STAT rank sets live here too, because the TBON layer merges them without
importing the tool. A *run list* is a flat list ``[lo0, hi0, lo1, hi1,
...]`` of sorted, disjoint, half-open runs ``[lo, hi)`` with adjacent runs
joined, so one set has exactly one run list and a contiguous span of a
million ranks is two integers. Rank ``x`` is a member iff
``bisect_right(runs, x)`` is odd. :class:`RankRuns` is the immutable
value type the tool hands to callers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set
from functools import partial
from itertools import chain
from operator import add
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "Filter",
    "RankRuns",
    "StatelessFilter",
    "add_rank",
    "add_run",
    "finish_tree_node",
    "fold_tree_node",
    "make_filter",
    "stream_filter_names",
    "subtract_runs",
    "union_runs",
]

FoldFn = Callable[[Any, Any], Any]


class Filter:
    """A TBON filter: an incremental fold over one wave's payloads.

    ``start``/``fold``/``finish`` are the fold (see the module
    docstring's contract); ``merge`` is built on them.
    ``update(state, merged)`` folds one finished wave into a position's
    running state (created by :meth:`initial_state`; one lives per
    (stream, position) and is passed back in on every wave). The merge
    MUST be associative and commutative -- that is what makes the root's
    result independent of tree shape and arrival order. Instances carry
    no per-wave or per-position data themselves, so one instance can
    serve a whole stream.
    """

    name = "?"

    def start(self) -> Any:
        """A fresh accumulator for one wave."""
        raise NotImplementedError

    def fold(self, acc: Any, payload: Any) -> Any:
        """``acc`` with ``payload`` folded in; ``payload`` is not written."""
        raise NotImplementedError

    def finish(self, acc: Any) -> Any:
        """The merged payload an accumulator stands for."""
        return acc

    def initial_state(self) -> Any:
        return None

    def update(self, state: Any, merged: Any) -> Any:
        """``state`` with one finished wave folded in (no state: as is)."""
        return state

    def merge(self, payloads: Iterable[Any]) -> Any:
        """One wave's merge: fold every payload, in order, then finish."""
        acc = self.start()
        for payload in payloads:
            acc = self.fold(acc, payload)
        return self.finish(acc)


#: the accumulator of a fold that starts from its first payload, until
#: that payload arrives
_NOTHING = object()


class StatelessFilter(Filter):
    """A filter with no state, given by a binary fold ``fn(acc, payload)``.

    ``start`` makes the empty accumulator (``int`` for a sum from 0,
    ``list`` for a concatenation). Without it the first payload starts
    the fold, so ``fn`` must then leave its ``acc`` unchanged and return
    a new value or one of its arguments, as ``max`` and ``min`` do.
    """

    def __init__(self, name: str, fn: FoldFn,
                 start: Optional[Callable[[], Any]] = None,
                 window: int = 0, **params: Any):
        if params:
            raise KeyError(f"TBON filter {name!r} is stateless; it takes "
                           f"no parameters {sorted(params)}")
        self.name = name
        self.fn = fn
        self._start = start

    def start(self) -> Any:
        return _NOTHING if self._start is None else self._start()

    def fold(self, acc: Any, payload: Any) -> Any:
        return payload if acc is _NOTHING else self.fn(acc, payload)

    def finish(self, acc: Any) -> Any:
        if acc is _NOTHING:
            raise ValueError(f"TBON filter {self.name!r} has no payload "
                             f"to start its fold from")
        return acc


# -- stateless built-in filters ----------------------------------------------

def _concat(acc: list, payload: Any) -> list:
    """Waitforall concatenation: a list payload contributes its items, any
    other payload itself, in arrival order (no reduction)."""
    if isinstance(payload, list):
        acc.extend(payload)
    else:
        acc.append(payload)
    return acc


def _max(acc: Any, payload: Any) -> Any:
    # only a strictly greater payload replaces the running maximum, so
    # the first maximal payload wins, as with max()
    return payload if payload > acc else acc


# -- stateful built-in filters ------------------------------------------------

def _update_running(filt: Filter, state: dict, merged: Any) -> dict:
    """Set ``state["running"]`` to the merge of the last ``filt.window``
    waves, kept in ``state["waves"]``; at ``window=0`` fold ``merged``
    into the running merge and keep no waves."""
    if filt.window:
        waves = state["waves"]
        waves.append(merged)
        if len(waves) > filt.window:
            waves.pop(0)
        state["running"] = filt.merge(waves)
    else:
        running = state["running"]
        state["running"] = (merged if running is None
                            else filt.merge((running, merged)))
    return state


class RunningHistogramFilter(Filter):
    """Pointwise-summed histograms with a running windowed total.

    Wave payloads are ``{bin: count}`` dicts; the merge is a pointwise sum
    over all children (associative, commutative), its bins ordered by
    name. ``state["running"]`` is the pointwise sum of the last
    ``window`` merged waves (all waves when ``window=0``) -- at the root
    that is the windowed histogram of every leaf sample in
    flight-order-independent form.
    """

    name = "histogram"

    def __init__(self, window: int = 0):
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": {}}

    def start(self) -> dict:
        return {}

    def fold(self, acc: dict, payload: dict) -> dict:
        for b, c in payload.items():
            acc[b] = acc.get(b, 0) + c
        return acc

    def finish(self, acc: dict) -> dict:
        return dict(sorted(acc.items(), key=lambda kv: str(kv[0])))

    def update(self, state: dict, merged: dict) -> dict:
        running = self.fold(state["running"], merged)
        if self.window:
            waves = state["waves"]
            waves.append(merged)
            if len(waves) > self.window:
                for b, c in waves.pop(0).items():
                    running[b] -= c
                    if not running[b]:
                        del running[b]
        return state


class TopKFilter(Filter):
    """Exact distributed top-k over ``[value, key]`` items.

    Items are deduplicated per key by **max** value, ranked by
    ``(-value, str(key))`` and truncated to ``k``. Max-dedup keeps the
    truncated merge exact: if an item belongs to the global top-k, fewer
    than k items beat it in any subtree, so its best instance survives
    every intermediate truncation (the associativity argument the property
    tests pin down). The fold keeps every key's best item, and only the
    finish ranks and truncates. ``state["running"]`` is the top-k over the
    last ``window`` waves (all waves when ``window=0``).
    """

    name = "top_k"

    def __init__(self, k: int = 8, window: int = 0):
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        self.k = int(k)
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": []}

    def start(self) -> dict:
        return {}

    def fold(self, acc: dict, payload: list) -> dict:
        for value, key in payload:
            kk = key if isinstance(key, (str, int, float, bool)) \
                else repr(key)
            best = acc.get(kk)
            if best is None or value > best[0]:
                acc[kk] = [value, key]  # a new item: never the payload's
        return acc

    def finish(self, acc: dict) -> list:
        ranked = sorted(acc.values(), key=lambda it: (-it[0], str(it[1])))
        return ranked[:self.k]

    def update(self, state: dict, merged: list) -> dict:
        return _update_running(self, state, merged)


class EwmaRateFilter(Filter):
    """Per-wave aggregate sum with an EWMA rate estimate in state.

    Wave payloads are numbers; the merge is their sum from ``0``, in
    arrival order (associative, commutative -- exactly so for ints, to
    float tolerance otherwise). ``state["ewma"]`` tracks ``alpha * wave +
    (1-alpha) * ewma`` over this position's subtree aggregates;
    ``state["last"]`` and ``state["waves"]`` expose the raw series tail
    for rate computations. ``window`` bounds the retained raw series (the
    EWMA itself needs no window).
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.5, window: int = 0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"ewma needs 0 < alpha <= 1, got {alpha}")
        self.alpha = float(alpha)
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "ewma": None, "last": None, "n_waves": 0}

    def start(self) -> int:
        return 0

    def fold(self, acc: float, payload: float) -> float:
        return acc + payload

    def update(self, state: dict, total: float) -> dict:
        prev = state["ewma"]
        state["ewma"] = total if prev is None else (
            self.alpha * total + (1.0 - self.alpha) * prev)
        state["last"] = total
        state["n_waves"] += 1
        state["waves"].append(total)
        if self.window and len(state["waves"]) > self.window:
            state["waves"].pop(0)
        return state


# -- STAT rank runs -----------------------------------------------------------

def union_runs(run_lists: Iterable[Sequence[int]]) -> list[int]:
    """Union of run lists: sort every run by its bounds, then one sweep
    that joins overlapping and adjacent runs."""
    # every run list has even length, so pairing the concatenated bounds
    # pairs each run's own lo and hi
    bounds = chain.from_iterable(run_lists)
    out: list[int] = []
    for lo, hi in sorted(zip(bounds, bounds)):
        if out and lo <= out[-1]:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out += (lo, hi)
    return out


def subtract_runs(runs: Sequence[int], minus: Sequence[int]) -> list[int]:
    """The ranks of ``runs`` not in ``minus``, in one linear sweep."""
    out: list[int] = []
    j = 0
    for i in range(0, len(runs), 2):
        lo, hi = runs[i], runs[i + 1]
        # runs ascend, so a ``minus`` run ending at or before ``lo`` can
        # overlap no later run either; every run from ``j`` on ends
        # past ``lo``
        while j < len(minus) and minus[j + 1] <= lo:
            j += 2
        k = j
        while lo < hi and k < len(minus) and minus[k] < hi:
            if minus[k] > lo:
                out += (lo, minus[k])
            lo = minus[k + 1]
            k += 2
        if lo < hi:
            out += (lo, hi)
    return out


def add_run(runs: list[int], lo: int, hi: int) -> None:
    """Insert the run ``[lo, hi)`` into the run list ``runs`` in place,
    joined with every run it overlaps or touches: two bisections and one
    slice assignment."""
    i = bisect_left(runs, lo)
    j = bisect_right(runs, hi, i)
    if i % 2:  # lo lies inside a run or at its end: start there
        i -= 1
        lo = runs[i]
    if j % 2:  # hi lies inside a run or at its start: end where it does
        hi = runs[j]
        j += 1
    runs[i:j] = (lo, hi)


def add_rank(runs: list[int], rank: int) -> None:
    """Insert ``rank`` into the run list ``runs`` in place."""
    add_run(runs, rank, rank + 1)


class RankRuns(Set):
    """An immutable set of ranks held as a run list.

    ``len`` costs O(runs), ``in`` one bisect, and iteration yields the
    ranks in ascending order without materializing them. It compares
    equal to a ``set``/``frozenset`` of the same ranks, in both
    directions, and hashes like the equal ``frozenset``. Set operators
    (``|``, ``&``, ``-``, ``^``) return a plain ``frozenset``.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[int] = ()):
        #: the run list (a tuple: the value never changes)
        self.runs = tuple(runs)

    def __len__(self) -> int:
        return sum(self.runs[1::2]) - sum(self.runs[::2])

    def __contains__(self, rank: object) -> bool:
        return (isinstance(rank, int)
                and bisect_right(self.runs, rank) % 2 == 1)

    def __iter__(self) -> Iterator[int]:
        bounds = iter(self.runs)
        return chain.from_iterable(map(range, bounds, bounds))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RankRuns):
            return self.runs == other.runs  # run lists are canonical
        return Set.__eq__(self, other)

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, ranks: Iterable[int]) -> frozenset:
        return frozenset(ranks)

    def __repr__(self) -> str:
        return f"RankRuns({list(self.runs)})"


# The recursive walks are module-level: a nested def that calls itself
# closes over its own name, a cycle only the cyclic collector frees.

def fold_tree_node(acc: dict, node: dict) -> None:
    """Union the wire node ``node`` (``{"r": runs, "c": {frame: node}}``)
    into the router-owned node ``acc``: each run goes in by bisection,
    each child into ``acc``'s child of the same frame, made empty on
    first sight. Nothing of ``node`` is written or kept."""
    runs = acc["r"]
    theirs = node["r"]
    for i in range(0, len(theirs), 2):
        add_run(runs, theirs[i], theirs[i + 1])
    children = acc["c"]
    for frame, child in node["c"].items():
        mine = children.get(frame)
        if mine is None:
            mine = children[frame] = {"r": [], "c": {}}
        fold_tree_node(mine, child)


def finish_tree_node(node: dict) -> dict:
    """A folded node in wire form, its children in frame order."""
    children = node["c"]
    return {"r": node["r"],
            "c": {f: finish_tree_node(children[f])
                  for f in sorted(children)}}


class PrefixTreeMergeFilter(Filter):
    """STAT's call-graph union as a stream filter with a windowed view.

    Payloads are ``PrefixTree.to_dict`` wire dicts; the union is computed
    on them directly, equal to round-tripping through
    :class:`~repro.tools.stat_tool.PrefixTree`, so the TBON layer needs no
    tool import. The merge is a pointwise union of rank runs --
    associative, commutative and idempotent -- so any tree shape reduces
    losslessly. The accumulator is a tree of the router's own nodes,
    shaped like the payloads, with ``"n"`` the summed sample count.
    ``state["running"]`` unions the last ``window`` merged waves.
    """

    name = "prefix_tree_merge"

    def __init__(self, window: int = 0):
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": None}

    def start(self) -> dict:
        return {"tree": {"r": [], "c": {}}, "n": 0}

    def fold(self, acc: dict, payload: dict) -> dict:
        fold_tree_node(acc["tree"], payload["tree"])
        acc["n"] += payload.get("n", 0)
        return acc

    def finish(self, acc: dict) -> dict:
        return {"tree": finish_tree_node(acc["tree"]), "n": acc["n"]}

    def update(self, state: dict, merged: dict) -> dict:
        return _update_running(self, state, merged)


#: the built-in filters: name -> factory(window=..., **params) -> Filter
_FILTERS: dict[str, Callable[..., Filter]] = {
    "concat": partial(StatelessFilter, "concat", _concat, list),
    "sum": partial(StatelessFilter, "sum", add, int),
    "max": partial(StatelessFilter, "max", _max),
    "histogram": RunningHistogramFilter,
    "top_k": TopKFilter,
    "ewma": EwmaRateFilter,
    "prefix_tree_merge": PrefixTreeMergeFilter,
}


def stream_filter_names() -> list[str]:
    """Every built-in filter name."""
    return sorted(_FILTERS)


def make_filter(name: str, window: int = 0, **params: Any) -> Filter:
    """Instantiate filter ``name``.

    Stateful built-ins honour ``window`` (and filter-specific ``params``
    like ``k`` or ``alpha``); a stateless filter ignores ``window`` and
    rejects ``params``.
    """
    try:
        factory = _FILTERS[name]
    except KeyError:
        raise KeyError(f"unknown TBON filter {name!r}; known: "
                       f"{stream_filter_names()}") from None
    return factory(window=window, **params)
