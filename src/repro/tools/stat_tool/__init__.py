"""STAT: the Stack Trace Analysis Tool (Section 5.2).

STAT samples stack traces from every task of a parallel application and
merges them into a *call graph prefix tree* whose nodes carry the set of
ranks exhibiting each call path -- collapsing a million-task job into a
handful of process equivalence classes a debugger can then examine via
class representatives.

The reproduction includes the data structure (:mod:`prefix_tree`, with a
registered TBON merge filter), the daemons and front end (:mod:`tool`), and
both startup mechanisms compared in Figure 6: MRNet's native rsh-based
launch versus LaunchMON integration (which also replaces the command-line /
shared-file distribution of MRNet tree info with an LMONP broadcast).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.tools.stat_tool.prefix_tree": ("PrefixTree", "merge_trees"),
    "repro.tools.stat_tool.tool": ("StatResult", "run_stat_launchmon",
                                   "run_stat_mrnet_native"),
})

__all__ = [
    "PrefixTree",
    "StatResult",
    "merge_trees",
    "run_stat_launchmon",
    "run_stat_mrnet_native",
]
