"""simlint: AST lint rules for the project's simulation invariants.

Generic linters know nothing about a discrete-event simulator's contract,
so the invariants the whole stack depends on regress silently: one
``time.time()`` in a daemon body and runs stop being reproducible; one
``list.remove`` back in a kernel hot path and the O(N^2) class PR 5
purged is back at 64k daemons. This pass encodes those project rules over
the AST:

``wall-clock``
    No wall-clock reads (``time.time``/``perf_counter``/``monotonic``/...)
    anywhere in simulator-driven code. Virtual time comes from
    ``sim.now``; the only sanctioned wall-clock uses are *observational*
    (kernel stats, harness measurement around a whole run) and carry an
    inline suppression.

``unseeded-random``
    No global-RNG ``random.*`` calls and no seedless ``random.Random()``.
    Randomness must flow from the seeded per-subsystem streams
    (:mod:`repro.simx.rng`), or two runs with one seed diverge.

``linear-scan``
    No ``.remove(x)`` / ``.pop(0)`` / ``.insert(0, ...)`` in the
    registered hot-path modules (:data:`HOT_PATH_MODULES`) -- each is an
    O(N) scan or shift that a launch storm multiplies into O(N^2)
    (``Process.interrupt``'s old ``list.remove`` was exactly this).
    ``set.remove(...)`` via the explicit class is exempt (O(1)).

``sweep-pickle``
    Point functions handed to :func:`repro.experiments.sweep.map_grid`
    must be module-level: a lambda or nested def pickles with ``--jobs N``
    only until someone runs it, i.e. it fails exactly when the sweep
    engine is used as designed.

``blocking-io``
    No blocking I/O (``open``/``input``/``time.sleep``/``subprocess``/
    ``socket``/...) inside generator functions -- generators in this
    codebase are simx :class:`~repro.simx.Process` bodies, and a real
    block inside one stalls the virtual clock for every simulated node
    at once.

``agg-leaves``
    No direct ``.backends()`` / ``.live_backends()`` iteration in the
    registered hybrid hot-path modules (:data:`AGG_AWARE_MODULES`):
    those accessors see only *simulated* back ends, so code that means
    "every leaf" silently drops the aggregate spans of a hybrid run.
    Use the aggregate-aware ``leaves()`` / ``live_leaves()``; sites
    that genuinely want only the simulated positions (placement,
    per-daemon spawning) carry an inline allow.

``gc-policy``
    No ``gc.disable``/``enable``/``freeze``/``unfreeze``/``set_threshold``
    outside the kernel (:data:`GC_POLICY_OWNER`). ``Simulator.run()``
    pauses the cyclic collector while it dispatches and restores the
    caller's setting on return; a second owner of collector policy would
    fight it (re-enabling collection mid-run, or leaving it off after).
    ``gc.collect()`` and ``gc.isenabled()`` are fine anywhere.

Suppression: append ``# simlint: allow[rule]`` (or ``allow[r1,r2]``, or
bare ``# simlint: allow`` for all rules) to the flagged line, ideally
with a short justification after it. Suppressions are per-line and per
physical line of the call's ``lineno``.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = ["AGG_AWARE_MODULES", "Finding", "GC_POLICY_OWNER",
           "HOT_PATH_MODULES", "RULES", "lint_file", "lint_paths",
           "lint_source", "main"]

RULES = {
    "wall-clock": "wall-clock read in simulator-driven code (use sim.now; "
                  "observational uses need an inline allow)",
    "unseeded-random": "global/unseeded random (use the seeded "
                       "repro.simx.rng streams)",
    "linear-scan": "O(N) list scan/shift in a registered hot-path module",
    "sweep-pickle": "map_grid point function is not module-level picklable",
    "blocking-io": "blocking I/O inside a simx process (generator) body",
    "agg-leaves": "simulated-only leaf iteration (backends()/"
                  "live_backends()) in a hybrid hot-path module; use the "
                  "aggregate-aware leaves()/live_leaves()",
    "gc-policy": "collector policy (gc.disable/enable/freeze/unfreeze/"
                 "set_threshold) outside the kernel, which owns it",
}

#: modules the kernel/launch hot path runs through: the places where an
#: O(N) scan per event/packet/allocation compounds to O(N^2) at scale
#: (the PR-5 fix sites). Paths are suffix-matched posix-style.
HOT_PATH_MODULES = (
    "repro/simx/core.py",
    "repro/simx/channels.py",
    "repro/tbon/overlay.py",
    "repro/tbon/flow.py",
    "repro/cluster/node.py",
    "repro/rm/base.py",
    # the control plane checkpoints on *every* session transition, and
    # restore sweeps the whole RM allocation ledger: per-session scans
    # here compound across the soak's hundreds of restart points
    "repro/ctl/daemon.py",
    "repro/ctl/checkpoint.py",
    "repro/ctl/restore.py",
    # the fleet routing tier sits in front of every session launch: a
    # per-request scan over all members (or per-round scan over all
    # records) compounds across the arrival stream at fleet scale
    "repro/fleet/health.py",
    "repro/fleet/placement.py",
    "repro/fleet/gossip.py",
    "repro/fleet/frontdoor.py",
    # the netfault injector is consulted per gossip pull edge and the
    # chaos harness runs hundreds of seeded storms per soak: per-edge
    # or per-storm scans here compound across every chaos iteration
    "repro/cluster/faults.py",
    "repro/fleet/chaos.py",
    # every back-end bootstrap is a handful of ICCL collectives whose
    # messages are all sized here: a per-hop walk or scan multiplies by
    # the daemon count on every launch
    "repro/be/iccl.py",
    "repro/cluster/network.py",
)

#: modules the hybrid tier runs through: anywhere here that iterates the
#: *simulated* back ends when it means "every leaf" silently drops the
#: aggregate spans of a hybrid run (the ``agg-leaves`` rule's scope)
AGG_AWARE_MODULES = (
    "repro/tbon/overlay.py",
    "repro/tbon/startup.py",
    "repro/launch/report.py",
    "repro/tools/stat_tool/tool.py",
    "repro/experiments/fig6.py",
    "repro/experiments/streaming.py",
)

#: the one module allowed to set collector policy (the ``gc-policy`` rule)
GC_POLICY_OWNER = "repro/simx/core.py"

_GC_POLICY_CALLS = frozenset(
    f"gc.{fn}" for fn in ("disable", "enable", "freeze", "unfreeze",
                          "set_threshold"))

_WALL_CLOCK_CALLS = frozenset(
    f"time.{fn}" for fn in (
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "clock"))

_GLOBAL_RNG_CALLS = frozenset(
    f"random.{fn}" for fn in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "getrandbits", "seed", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate"))

_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.socket", "socket.create_connection", "open", "input",
    "select.select",
})
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.request.",
                      "http.client.")

_SUPPRESS = re.compile(
    r"#\s*simlint:\s*allow(?:\[(?P<rules>[a-z\-, ]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}"

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


def _suppressed(source_lines: Sequence[str], lineno: int,
                rule: str) -> bool:
    if not 1 <= lineno <= len(source_lines):
        return False
    match = _SUPPRESS.search(source_lines[lineno - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return rule in {r.strip() for r in rules.split(",")}


def _scan_yields(fn: ast.AST) -> bool:
    """True if the function's own body yields (nested scopes excluded)."""
    class _Scan(ast.NodeVisitor):
        found = False

        def visit_FunctionDef(self, node):
            if node is not fn:
                return  # new scope: stop
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Lambda(self, node):
            return

        def visit_Yield(self, node):
            self.found = True

        def visit_YieldFrom(self, node):
            self.found = True

    scan = _Scan()
    scan.visit(fn)
    return scan.found


class _ModuleLint(ast.NodeVisitor):
    """One module's lint pass (see the rule catalog in the module doc)."""

    def __init__(self, path: str, source_lines: Sequence[str],
                 hot: bool, agg_aware: bool = False, gc_owner: bool = False):
        self.path = path
        self.source_lines = source_lines
        self.hot = hot
        self.agg_aware = agg_aware
        self.gc_owner = gc_owner
        self.findings: list[Finding] = []
        #: name -> fully dotted origin ("t" -> "time",
        #: "sleep" -> "time.sleep")
        self.aliases: dict[str, str] = {}
        self.module_defs: set[str] = set()
        self.nested_defs: set[str] = set()
        self._func_depth = 0
        self._generator_depth = 0

    # -- bookkeeping -----------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _visit_funcdef(self, node) -> None:
        if self._func_depth == 0:
            self.module_defs.add(node.name)
        else:
            self.nested_defs.add(node.name)
        is_gen = _scan_yields(node)
        self._func_depth += 1
        if is_gen:
            self._generator_depth += 1
        self.generic_visit(node)
        if is_gen:
            self._generator_depth -= 1
        self._func_depth -= 1

    def visit_FunctionDef(self, node):  # noqa: N802
        self._visit_funcdef(node)

    def visit_AsyncFunctionDef(self, node):  # noqa: N802
        self._visit_funcdef(node)

    # -- resolution ------------------------------------------------------
    def _dotted(self, node: ast.AST) -> Optional[str]:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            root = self.aliases.get(node.id, node.id)
            return ".".join([root, *reversed(parts)])
        return None

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if _suppressed(self.source_lines, node.lineno, rule):
            return
        self.findings.append(Finding(
            path=self.path, line=node.lineno, col=node.col_offset,
            rule=rule, message=message))

    # -- the rules -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)

        if dotted in _WALL_CLOCK_CALLS:
            self._report(node, "wall-clock",
                         f"{dotted}() reads the wall clock; simulated "
                         f"code must use sim.now")

        if dotted in _GC_POLICY_CALLS and not self.gc_owner:
            self._report(node, "gc-policy",
                         f"{dotted}() sets collector policy, which "
                         f"Simulator.run() owns; only {GC_POLICY_OWNER} "
                         f"may call it")

        if dotted in _GLOBAL_RNG_CALLS:
            self._report(node, "unseeded-random",
                         f"{dotted}() draws from the global RNG; use a "
                         f"seeded repro.simx.rng stream")
        elif dotted == "random.Random" and not node.args:
            self._report(node, "unseeded-random",
                         "random.Random() without a seed is "
                         "OS-entropy-seeded; pass an explicit seed")

        if self._generator_depth > 0 and dotted is not None:
            if dotted in _BLOCKING_CALLS or \
                    dotted.startswith(_BLOCKING_PREFIXES):
                self._report(node, "blocking-io",
                             f"{dotted}() blocks the worker thread inside "
                             f"a simx process body; model the delay with "
                             f"sim.timeout() instead")

        if self.hot and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            attr = node.func.attr
            recv_is_set_class = (isinstance(receiver, ast.Name)
                                 and receiver.id == "set")
            if attr == "remove" and not recv_is_set_class:
                self._report(node, "linear-scan",
                             ".remove() scans its sequence; hot-path "
                             "modules need an O(1) structure (tombstone, "
                             "set, index)")
            elif attr == "pop" and node.args and \
                    isinstance(node.args[0], ast.Constant) and \
                    node.args[0].value == 0:
                self._report(node, "linear-scan",
                             ".pop(0) shifts the whole list; use "
                             "collections.deque")
            elif attr == "insert" and node.args and \
                    isinstance(node.args[0], ast.Constant) and \
                    node.args[0].value == 0:
                self._report(node, "linear-scan",
                             ".insert(0, ...) shifts the whole list; use "
                             "collections.deque")

        if self.agg_aware and isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("backends", "live_backends"):
            self._report(node, "agg-leaves",
                         f".{node.func.attr}() sees only simulated back "
                         f"ends and drops a hybrid run's aggregate spans; "
                         f"use the aggregate-aware leaves()/live_leaves() "
                         f"(or allow, if simulated-only is the point)")

        if dotted is not None and \
                (dotted == "map_grid" or dotted.endswith(".map_grid")):
            self._check_sweep_point(node)

        self.generic_visit(node)

    def _check_sweep_point(self, node: ast.Call) -> None:
        if not node.args:
            return
        point = node.args[0]
        if isinstance(point, ast.Lambda):
            self._report(node, "sweep-pickle",
                         "map_grid point function is a lambda; lambdas "
                         "don't pickle, so --jobs N breaks")
        elif isinstance(point, ast.Name):
            name = point.id
            if name in self.nested_defs and name not in self.module_defs:
                self._report(node, "sweep-pickle",
                             f"map_grid point function {name!r} is a "
                             f"nested def; workers can't import it by "
                             f"qualified name, so --jobs N breaks")


def _is_hot(path: Path, hot_paths: Iterable[str]) -> bool:
    posix = path.resolve().as_posix()
    return any(posix.endswith(suffix) for suffix in hot_paths)


def lint_source(source: str, path: str = "<string>",
                hot: Optional[bool] = None,
                hot_paths: Iterable[str] = HOT_PATH_MODULES,
                agg_aware: Optional[bool] = None,
                agg_paths: Iterable[str] = AGG_AWARE_MODULES,
                ) -> list[Finding]:
    """Lint one module's source text; returns its findings in file order.

    ``hot=None`` decides hot-path membership from ``path`` against
    ``hot_paths``; pass ``hot=True``/``False`` to force (fixture tests).
    ``agg_aware`` gates the ``agg-leaves`` rule the same way against
    ``agg_paths``.
    """
    if hot is None:
        hot = _is_hot(Path(path), hot_paths)
    if agg_aware is None:
        agg_aware = _is_hot(Path(path), agg_paths)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=exc.offset or 0, rule="syntax",
                        message=f"cannot parse: {exc.msg}")]
    linter = _ModuleLint(path, source.splitlines(), hot,
                         agg_aware=agg_aware,
                         gc_owner=_is_hot(Path(path), (GC_POLICY_OWNER,)))
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: Path, hot: Optional[bool] = None,
              hot_paths: Iterable[str] = HOT_PATH_MODULES,
              agg_aware: Optional[bool] = None,
              agg_paths: Iterable[str] = AGG_AWARE_MODULES,
              ) -> list[Finding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path),
                       hot=hot, hot_paths=hot_paths,
                       agg_aware=agg_aware, agg_paths=agg_paths)


def lint_paths(paths: Iterable[Path],
               hot_paths: Iterable[str] = HOT_PATH_MODULES,
               agg_paths: Iterable[str] = AGG_AWARE_MODULES,
               ) -> list[Finding]:
    """Lint every ``*.py`` under the given files/directories."""
    findings: list[Finding] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(lint_file(file, hot_paths=hot_paths,
                                      agg_paths=agg_paths))
    return findings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_REPO_ROOT = Path(__file__).resolve().parents[3]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="Lint simulator-driven code for determinism and "
                    "scalability hazards (rule catalog: docs/analysis.md).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint (default: src/)")
    parser.add_argument("--hot", action="append", default=[],
                        metavar="SUFFIX",
                        help="treat modules matching this path suffix as "
                             "hot-path (adds to the built-in registry)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write findings as JSON")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:<16} {desc}")
        return 0

    paths = args.paths or [_REPO_ROOT / "src"]
    hot_paths = tuple(HOT_PATH_MODULES) + tuple(args.hot)
    findings = lint_paths(paths, hot_paths=hot_paths)
    for finding in findings:
        print(finding, file=sys.stderr)
    if args.json:
        args.json.write_text(json.dumps(
            {"ok": not findings,
             "findings": [f.as_dict() for f in findings]},
            indent=2) + "\n", encoding="utf-8")
    n_files = sum(len(sorted(p.rglob('*.py'))) if Path(p).is_dir() else 1
                  for p in paths)
    print(f"simlint: {n_files} file(s) checked, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0
