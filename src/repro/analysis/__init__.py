"""Correctness tooling: scalability-fault detection and hazard linting.

This package is the repo's *meta* layer -- it never runs inside the
simulator; it runs the simulator (or reads its source) and judges the
result. Two subsystems:

``scalecheck`` (:mod:`repro.analysis.scalecheck`)
    The continuous scalability-fault detector the ROADMAP calls for, per
    ScalAna and *Understanding and Detecting Scalability Faults*
    (PAPERS.md): run an experiment at a geometric ladder of scales
    (:mod:`repro.analysis.ladders`), fit a per-phase complexity exponent
    to every attributed metric (log-log regression,
    :mod:`repro.analysis.fitting`), and compare the fitted exponents --
    plus a machine-normalized tail ratio for wall-clock metrics --
    against a committed known-good baseline (``analysis/baselines/``).
    A phase whose growth exponent regresses beyond tolerance fails the
    check, so the O(N^2) class of bug PR 5 purged is caught in CI at
    small scale by extrapolation instead of in production at 64k
    daemons.

``simlint`` (:mod:`repro.analysis.simlint`)
    A custom AST lint pass encoding the invariants the simulation stack
    depends on but no generic linter knows about: no wall-clock reads or
    unseeded ``random`` in simulator-driven code (virtual-time
    determinism), no linear list scans in registered hot-path modules,
    sweep point functions must stay module-level picklable, and no
    blocking I/O inside simx process bodies. Violations carry an
    inline-comment suppression syntax (``# simlint: allow[rule]``) for
    the rare justified exception.

Both ship as thin CLIs (``scripts/scalecheck.py``, ``scripts/simlint.py``)
and run in CI; see ``docs/analysis.md`` for the methodology and rule
catalog.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.analysis.fitting": ("PowerFit", "fit_metric_exponents",
                               "fit_power"),
    "repro.analysis.ladders": ("LADDERS", "Ladder", "collect_samples"),
    "repro.analysis.scalecheck": ("CheckResult", "Regression",
                                  "load_baseline", "run_check",
                                  "write_baseline"),
    "repro.analysis.simlint": ("Finding", "RULES", "lint_paths",
                               "lint_source"),
})

__all__ = [
    "CheckResult",
    "Finding",
    "LADDERS",
    "Ladder",
    "PowerFit",
    "RULES",
    "Regression",
    "collect_samples",
    "fit_metric_exponents",
    "fit_power",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_check",
    "write_baseline",
]
