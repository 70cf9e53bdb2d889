"""Attribute a cProfile run to the ``repro.<package>`` layers.

A function belongs to the layer whose package file defines it
(``repro/simx/core.py`` -> ``simx``, ``repro/runner.py`` -> ``runner``).
Everything else -- C builtins, the standard library, ``repro``'s own
package root -- is not a layer: its self time is charged to the layers
that called it, split along the profiler's caller edges. So ``len()``
called from the kernel is kernel time, and ``heapq`` pushes made by the
network model are network time. Time whose call chain reaches no layer
at all (the benchmark's own glue) is reported as ``outside`` and left
out of the shares, so the layer shares sum to 1.

``calls_in`` counts calls that enter a layer from another one (or from
outside): the traffic across each layer boundary. The package -> package
edges, with their call counts and cumulative seconds, are the span tree
at layer boundaries; a layer's self time is its time minus its callees'.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: the layers, one per ``repro`` package, in dependency order
LAYERS = ("simx", "cluster", "rm", "launch", "adhoc", "tbon", "engine",
          "lmonp", "mpir", "be", "mw", "fe", "ctl", "fleet", "perfmodel",
          "tools", "apps", "experiments", "runner")

OUTSIDE = "outside"

Func = Tuple[str, int, str]


class LayerProfile:
    """One profiled call attributed to layers (see the module docstring).

    ``stats`` is a ``pstats``/``cProfile`` stats dict:
    ``func -> (primitive calls, calls, self s, cumulative s, callers)``
    with ``callers[caller] = (calls, primitive calls, self s, cum s)``.
    ``package_dir`` is the directory of the ``repro`` package profiled.
    """

    def __init__(self, stats: dict, package_dir: str):
        self.stats = stats
        self._prefix = os.path.join(os.path.abspath(package_dir), "")
        self._by_time: Dict[Func, dict] = {}
        self._by_calls: Dict[Func, dict] = {}
        self.total_s = sum(entry[2] for entry in stats.values())
        self.self_s = {layer: 0.0 for layer in LAYERS + (OUTSIDE,)}
        self.calls_in = {layer: 0 for layer in LAYERS}
        self.edges: Dict[str, dict] = {}
        for func in sorted(stats):
            self._attribute(func)

    # -- classification --------------------------------------------------------
    def layer_of(self, func: Func) -> Optional[str]:
        """The layer defining ``func``, or None for non-layer code."""
        filename = func[0]
        if not filename.startswith(self._prefix):
            return None
        head = filename[len(self._prefix):].split(os.sep, 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return head if head in LAYERS else None

    def _owner(self, func: Func, weight: int, memo: dict,
               active: set) -> dict:
        """Share of ``func``'s activity each layer is responsible for.

        A layer function owns itself; other code is owned by its callers,
        weighted by the edge's cumulative seconds (``weight`` 3) or call
        count (``weight`` 0). A recursion cycle contributes nothing.
        """
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in active:
            return {}
        active.add(func)
        acc: Dict[str, float] = {}
        total = 0.0
        entry = self.stats.get(func)
        callers = entry[4] if entry else {}
        for caller in sorted(callers):
            w = callers[caller][weight]
            if w <= 0:
                continue
            sub = self._owner(caller, weight, memo, active)
            if not sub:
                continue
            total += w
            for name, share in sub.items():
                acc[name] = acc.get(name, 0.0) + w * share
        active.discard(func)
        owner = ({name: v / total for name, v in acc.items()} if total
                 else {OUTSIDE: 1.0})
        memo[func] = owner
        return owner

    def _time_owner(self, func: Func) -> dict:
        return self._owner(func, 3, self._by_time, set())

    def caller_layer(self, func: Func) -> str:
        """The one layer a call from ``func`` is made on behalf of: its
        own, or for non-layer code the layer making most of its calls
        (count-weighted, so it is exact and repeatable)."""
        owner = self._owner(func, 0, self._by_calls, set())
        return max(sorted(owner), key=lambda name: owner[name])

    # -- accumulation ----------------------------------------------------------
    def _attribute(self, func: Func) -> None:
        _, _, tt, _, callers = self.stats[func]
        layer = self.layer_of(func)
        if layer is None:
            # charge self time to the callers' layers, edge by edge
            charged = 0.0
            for caller in sorted(callers):
                edge_tt = callers[caller][2]
                for name, share in self._time_owner(caller).items():
                    self.self_s[name] += edge_tt * share
                charged += edge_tt
            rest = tt - charged
            if rest > 0:
                for name, share in self._time_owner(func).items():
                    self.self_s[name] += rest * share
            return
        self.self_s[layer] += tt
        for caller in sorted(callers):
            src = self.caller_layer(caller)
            if src == layer:
                continue
            calls, _, _, cum = callers[caller]
            self.calls_in[layer] += calls
            edge = self.edges.setdefault(f"{src}->{layer}",
                                         {"calls": 0, "cum_s": 0.0})
            edge["calls"] += calls
            edge["cum_s"] += cum

    # -- queries -----------------------------------------------------------------
    def self_share(self) -> Dict[str, float]:
        """Each layer's share of the self time spent in layers."""
        inside = sum(self.self_s[layer] for layer in LAYERS)
        return {layer: (self.self_s[layer] / inside if inside else 0.0)
                for layer in LAYERS}

    def _entries(self, path: str, name: str):
        """Stats entries of function ``name`` in ``repro/<path>``."""
        filename = self._prefix + path.replace("/", os.sep)
        return [entry for func, entry in self.stats.items()
                if func[0] == filename and func[2] == name]

    def calls(self, path: str, name: str) -> int:
        """Total calls (recursive ones included) of a ``repro`` function."""
        return sum(entry[1] for entry in self._entries(path, name))

    def cum_s(self, path: str, name: str) -> float:
        """Cumulative seconds of a ``repro`` function and its callees."""
        return sum(entry[3] for entry in self._entries(path, name))

    def as_dict(self) -> dict:
        shares = self.self_share()
        return {
            "total_s": self.total_s,
            "outside_self_s": self.self_s[OUTSIDE],
            "layers": {layer: {"self_s": self.self_s[layer],
                               "self_share": shares[layer],
                               "calls_in": self.calls_in[layer]}
                       for layer in LAYERS},
            "edges": dict(sorted(self.edges.items())),
        }
