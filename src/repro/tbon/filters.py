"""TBON reduction filters: stateless wave reducers and stateful stream filters.

A filter reduces the payloads of one wave's child packets (plus the local
contribution, if any) into a single upstream payload. Filters are
registered by name so topologies/streams can reference them portably --
mirroring MRNet's filter-id mechanism.

Two faces share one registry:

* the **legacy callable face** (``get_filter(name)(payloads)``) used by
  one-shot wave reductions -- unchanged since the seed;
* the **stream face** (``make_filter(name, window=..., **params)``) used
  by persistent streams (:meth:`repro.tbon.Overlay.open_stream`), which
  returns a :class:`Filter` whose ``reduce(payloads, state)`` both merges
  one wave *and* folds it into per-position running state.

Algebraic contract (the executable spec lives in
``tests/tbon/test_filter_properties.py``): the per-wave merge of every
built-in filter is **associative and commutative**, so the value the root
delivers is independent of fanout, depth, and child arrival order --
reducing through any tree shape equals one flat reduction over all leaf
payloads. The *state* is where windowing lives: each position folds its
subtree's per-wave merges into a running aggregate over the last
``window`` waves (0 = unbounded). Emitting the wave *delta* upstream while
keeping the running aggregate in local state is what lets every level hold
a live windowed view of its subtree without ever double-counting history.

Built-in stream filters and their MRNet/paper correspondence:

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
                    sorted run list, merged by :func:`union_runs`
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

from bisect import bisect_right
from collections.abc import Set
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "FILTER_REGISTRY",
    "Filter",
    "RankRuns",
    "StatelessFilter",
    "add_rank",
    "get_filter",
    "make_filter",
    "register_filter",
    "register_stream_filter",
    "stream_filter_names",
    "subtract_runs",
    "union_runs",
]

FilterFn = Callable[[Sequence[Any]], Any]

FILTER_REGISTRY: dict[str, FilterFn] = {}

#: stream-filter factories: name -> factory(window=..., **params) -> Filter
STREAM_FILTER_REGISTRY: dict[str, Callable[..., "Filter"]] = {}


def register_filter(name: str, fn: FilterFn) -> None:
    """Register (or replace) a named reduction filter (legacy callable)."""
    FILTER_REGISTRY[name] = fn


def get_filter(name: str) -> FilterFn:
    try:
        return FILTER_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown TBON filter {name!r}; registered: "
                       f"{sorted(FILTER_REGISTRY)}") from None


def register_stream_filter(name: str,
                           factory: Callable[..., "Filter"]) -> None:
    """Register (or replace) a stateful stream-filter factory."""
    STREAM_FILTER_REGISTRY[name] = factory


def stream_filter_names() -> list[str]:
    """Every name usable by a persistent stream (stateful or wrapped)."""
    return sorted(set(STREAM_FILTER_REGISTRY) | set(FILTER_REGISTRY))


def make_filter(name: str, window: int = 0, **params: Any) -> "Filter":
    """Instantiate the stream face of filter ``name``.

    Stateful built-ins honour ``window`` (and filter-specific ``params``
    like ``k`` or ``alpha``); a name registered only as a legacy callable
    comes back wrapped in a :class:`StatelessFilter`.
    """
    factory = STREAM_FILTER_REGISTRY.get(name)
    if factory is not None:
        return factory(window=window, **params)
    fn = get_filter(name)  # raises the unknown-name KeyError first
    if params:
        raise KeyError(
            f"TBON filter {name!r} is stateless; it takes no parameters "
            f"{sorted(params)} (stateful filters: "
            f"{sorted(STREAM_FILTER_REGISTRY)})")
    return StatelessFilter(fn, name)


class Filter:
    """A stateful TBON stream filter.

    ``reduce(payloads, state)`` merges one wave's child payloads into the
    upstream payload and folds the merge into ``state`` (created by
    :meth:`initial_state`; one state lives per (stream, position), passed
    back in on every wave). The merge MUST be associative and commutative
    -- that is what makes the root's result independent of tree shape and
    arrival order. Instances carry no per-position data themselves, so one
    instance can serve a whole stream.
    """

    name = "?"

    def initial_state(self) -> Any:
        return None

    def reduce(self, payloads: Sequence[Any],
               state: Any) -> tuple[Any, Any]:
        raise NotImplementedError

    # the legacy callable face: single stateless wave reduction
    def __call__(self, payloads: Sequence[Any]) -> Any:
        merged, _state = self.reduce(payloads, self.initial_state())
        return merged


class StatelessFilter(Filter):
    """Adapter giving a legacy callable the stream-filter interface."""

    def __init__(self, fn: FilterFn, name: str = "?"):
        self.fn = fn
        self.name = name

    def reduce(self, payloads: Sequence[Any],
               state: Any) -> tuple[Any, Any]:
        return self.fn(payloads), state


# -- stateless built-in filters ----------------------------------------------

def _concat(payloads: Sequence[Any]) -> Any:
    """Waitforall concatenation: list of all child payloads (no reduction)."""
    out: list = []
    for p in payloads:
        if isinstance(p, list):
            out.extend(p)
        else:
            out.append(p)
    return out


def _sum(payloads: Sequence[Any]) -> Any:
    return sum(payloads)


def _max(payloads: Sequence[Any]) -> Any:
    return max(payloads)


register_filter("concat", _concat)
register_filter("sum", _sum)
register_filter("max", _max)


# -- stateful built-in filters ------------------------------------------------

class RunningHistogramFilter(Filter):
    """Pointwise-summed histograms with a running windowed total.

    Wave payloads are ``{bin: count}`` dicts; the merge is a pointwise sum
    over all children (associative, commutative). ``state["running"]`` is
    the pointwise sum of the last ``window`` merged waves (all waves when
    ``window=0``) -- at the root that is the windowed histogram of every
    leaf sample in flight-order-independent form.
    """

    name = "histogram"

    def __init__(self, window: int = 0):
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": {}}

    @staticmethod
    def merge(payloads: Sequence[dict]) -> dict:
        out: dict = {}
        for p in payloads:
            for b, c in p.items():
                out[b] = out.get(b, 0) + c
        return dict(sorted(out.items(), key=lambda kv: str(kv[0])))

    def reduce(self, payloads: Sequence[dict],
               state: dict) -> tuple[dict, dict]:
        merged = self.merge(payloads)
        state["waves"].append(merged)
        running = state["running"]
        for b, c in merged.items():
            running[b] = running.get(b, 0) + c
        if self.window and len(state["waves"]) > self.window:
            evicted = state["waves"].pop(0)
            for b, c in evicted.items():
                running[b] -= c
                if not running[b]:
                    del running[b]
        return merged, state


class TopKFilter(Filter):
    """Exact distributed top-k over ``[value, key]`` items.

    Items are deduplicated per key by **max** value, ranked by
    ``(-value, str(key))`` and truncated to ``k``. Max-dedup keeps the
    truncated merge exact: if an item belongs to the global top-k, fewer
    than k items beat it in any subtree, so its best instance survives
    every intermediate truncation (the associativity argument the property
    tests pin down). ``state["running"]`` is the top-k over the last
    ``window`` waves.
    """

    name = "top_k"

    def __init__(self, k: int = 8, window: int = 0):
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        self.k = int(k)
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": []}

    def merge(self, payloads: Sequence[list]) -> list:
        best: dict = {}
        for p in payloads:
            for value, key in p:
                kk = key if isinstance(key, (str, int, float, bool)) \
                    else repr(key)
                if kk not in best or value > best[kk][0]:
                    best[kk] = [value, key]
        ranked = sorted(best.values(), key=lambda it: (-it[0], str(it[1])))
        return [list(it) for it in ranked[:self.k]]

    def reduce(self, payloads: Sequence[list],
               state: dict) -> tuple[list, dict]:
        merged = self.merge(payloads)
        state["waves"].append(merged)
        if self.window and len(state["waves"]) > self.window:
            state["waves"].pop(0)
        state["running"] = self.merge(state["waves"])
        return merged, state


class EwmaRateFilter(Filter):
    """Per-wave aggregate sum with an EWMA rate estimate in state.

    Wave payloads are numbers; the merge is their sum (associative,
    commutative -- exactly so for ints, to float tolerance otherwise).
    ``state["ewma"]`` tracks ``alpha * wave + (1-alpha) * ewma`` over this
    position's subtree aggregates; ``state["last"]`` and ``state["waves"]``
    expose the raw series tail for rate computations. ``window`` bounds the
    retained raw series (the EWMA itself needs no window).
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.5, window: int = 0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"ewma needs 0 < alpha <= 1, got {alpha}")
        self.alpha = float(alpha)
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "ewma": None, "last": None, "n_waves": 0}

    def reduce(self, payloads: Sequence[float],
               state: dict) -> tuple[float, dict]:
        total = sum(payloads)
        prev = state["ewma"]
        state["ewma"] = total if prev is None else (
            self.alpha * total + (1.0 - self.alpha) * prev)
        state["last"] = total
        state["n_waves"] += 1
        state["waves"].append(total)
        if self.window and len(state["waves"]) > self.window:
            state["waves"].pop(0)
        return total, state


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


def add_rank(runs: list[int], rank: int) -> None:
    """Insert ``rank`` into the run list ``runs`` in place."""
    i = bisect_right(runs, rank)
    if i % 2:
        return  # already inside [runs[i-1], runs[i])
    joins_left = i > 0 and runs[i - 1] == rank
    joins_right = i < len(runs) and runs[i] == rank + 1
    if joins_left and joins_right:
        del runs[i - 1:i + 1]
    elif joins_left:
        runs[i - 1] = rank + 1
    elif joins_right:
        runs[i] = rank
    else:
        runs[i:i] = (rank, rank + 1)


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


def _merge_tree_nodes(nodes: Sequence[dict]) -> dict:
    """Pointwise union of prefix-tree wire nodes (``{"r": runs, "c": {}}``)."""
    children: dict = {}
    for n in nodes:
        for frame, child in n["c"].items():
            children.setdefault(frame, []).append(child)
    return {"r": union_runs([n["r"] for n in nodes]),
            "c": {f: _merge_tree_nodes(children[f]) for f in sorted(children)}}


def prefix_tree_merge(payloads: Sequence[dict]) -> dict:
    """Merge prefix-tree payloads (``PrefixTree.to_dict`` wire form).

    Promoted from ``repro.tools.stat_tool.prefix_tree``: the union is
    computed directly on the JSON-able dicts, equal to round-tripping
    through :class:`~repro.tools.stat_tool.PrefixTree` (both call
    :func:`union_runs`), so the TBON layer needs no tool import.
    """
    return {"tree": _merge_tree_nodes([p["tree"] for p in payloads]),
            "n": sum(p.get("n", 0) for p in payloads)}


class PrefixTreeMergeFilter(Filter):
    """STAT's call-graph union as a stream filter with a windowed view.

    The merge is a pointwise union of rank runs -- associative,
    commutative and idempotent -- so any tree shape reduces losslessly.
    ``state["running"]`` unions the last ``window`` merged waves.
    """

    name = "prefix_tree_merge"

    def __init__(self, window: int = 0):
        self.window = max(0, int(window))

    def initial_state(self) -> dict:
        return {"waves": [], "running": None}

    def reduce(self, payloads: Sequence[dict],
               state: dict) -> tuple[dict, dict]:
        merged = prefix_tree_merge(payloads)
        state["waves"].append(merged)
        if self.window:
            if len(state["waves"]) > self.window:
                state["waves"].pop(0)
            state["running"] = prefix_tree_merge(state["waves"])
        else:
            state["running"] = (merged if state["running"] is None
                                else prefix_tree_merge(
                                    [state["running"], merged]))
        return merged, state


register_stream_filter("histogram", RunningHistogramFilter)
register_stream_filter("top_k", TopKFilter)
register_stream_filter("ewma", EwmaRateFilter)
register_stream_filter("prefix_tree_merge", PrefixTreeMergeFilter)

# the legacy callable face of the stateful built-ins (single-wave merge)
register_filter("histogram", RunningHistogramFilter.merge)
register_filter("top_k", TopKFilter())
register_filter("ewma", EwmaRateFilter())
register_filter("prefix_tree_merge", prefix_tree_merge)
