"""The batch merges the TBON routers ran before they folded on arrival.

Each takes one wave's whole payload list, in arrival order, and returns
the merged payload. They are the reference ``test_fold_oracle.py`` holds
every built-in filter's fold to, and the flat reductions the tree-shape
properties of ``test_filter_properties.py`` compare against.

A sum is spelled out as a left fold from ``0``: the built-in ``sum()``
adds floats the same way up to CPython 3.11, but compensates their
rounding from 3.12 on.
"""

from repro.tbon.filters import union_runs


def concat_merge(payloads):
    """Waitforall concatenation: list payloads contribute their items."""
    out = []
    for p in payloads:
        if isinstance(p, list):
            out.extend(p)
        else:
            out.append(p)
    return out


def sum_merge(payloads):
    total = 0
    for p in payloads:
        total = total + p
    return total


def max_merge(payloads):
    return max(payloads)


def histogram_merge(payloads):
    out = {}
    for p in payloads:
        for b, c in p.items():
            out[b] = out.get(b, 0) + c
    return dict(sorted(out.items(), key=lambda kv: str(kv[0])))


def top_k_merge(payloads, k=8):
    best = {}
    for p in payloads:
        for value, key in p:
            kk = key if isinstance(key, (str, int, float, bool)) \
                else repr(key)
            if kk not in best or value > best[kk][0]:
                best[kk] = [value, key]
    ranked = sorted(best.values(), key=lambda it: (-it[0], str(it[1])))
    return [list(it) for it in ranked[:k]]


def ewma_merge(payloads, alpha=0.5):
    """An ewma wave's merge is its sum; ``alpha`` only shapes the state."""
    return sum_merge(payloads)


def merge_tree_nodes(nodes):
    """Pointwise union of prefix-tree wire nodes (``{"r": runs, "c": {}}``)."""
    children = {}
    for n in nodes:
        for frame, child in n["c"].items():
            children.setdefault(frame, []).append(child)
    return {"r": union_runs([n["r"] for n in nodes]),
            "c": {f: merge_tree_nodes(children[f]) for f in sorted(children)}}


def prefix_tree_merge(payloads):
    return {"tree": merge_tree_nodes([p["tree"] for p in payloads]),
            "n": sum(p.get("n", 0) for p in payloads)}


#: built-in filter name -> its batch merge (filter params as keywords)
REFERENCE = {
    "concat": concat_merge,
    "sum": sum_merge,
    "max": max_merge,
    "histogram": histogram_merge,
    "top_k": top_k_merge,
    "ewma": ewma_merge,
    "prefix_tree_merge": prefix_tree_merge,
}
