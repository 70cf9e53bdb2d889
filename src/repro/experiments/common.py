"""Shared experiment result container, audits, table formatting and the
idle daemon body the launch-only experiments spawn."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional, Sequence

__all__ = ["ExperimentResult", "fmt", "idle_context_factory", "idle_daemon",
           "percentile", "write_json_report"]


def idle_daemon(ctx):
    """A tool-daemon body that starts and ends: only the launch is timed."""
    yield ctx.sim.timeout(0)


def idle_context_factory(sim) -> Callable[..., Any]:
    """A daemon-context factory for :func:`idle_daemon`: every daemon it
    serves gets the one context it holds, which carries only ``sim``."""
    ctx = SimpleNamespace(sim=sim)
    return lambda daemon, daemons, fabric: ctx


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``.

    Deterministic and dependency-free (no numpy); matches numpy's default
    'linear' interpolation for the small samples the studies produce.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def fmt(value: Any) -> str:
    """Human-format one cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)


@dataclass
class ExperimentResult:
    """One experiment's output: typed rows + provenance notes."""

    exp_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: the paper's reference numbers for EXPERIMENTS.md comparison
    paper_reference: dict = field(default_factory=dict)
    #: machine-readable pass/fail: every runner's built-in audits record
    #: themselves via :meth:`check`, any failed check clears this, and the
    #: CLI exits non-zero when any result has ``ok=False``
    ok: bool = True
    #: every :meth:`check` performed, as ``{name, ok, detail}`` dicts --
    #: the uniform audit trail the ``--json`` report carries per result
    audits: list[dict] = field(default_factory=list)

    def add_row(self, **cells: Any) -> None:
        self.rows.append(cells)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        """Record one audit outcome uniformly across experiments.

        A failed check clears :attr:`ok` and leaves an ``AUDIT FAILURE``
        note in the human-readable table; passed checks are recorded in
        :attr:`audits` (and thus the JSON report) but stay out of the
        table. Returns ``passed`` so call sites can branch on it.
        """
        self.audits.append({"name": name, "ok": bool(passed),
                            "detail": detail})
        if not passed:
            self.ok = False
            note = f"AUDIT FAILURE [{name}]"
            self.notes.append(note + (f": {detail}" if detail else ""))
        return passed

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.rows]

    def row_for(self, key_col: str, key: Any) -> Optional[dict]:
        for r in self.rows:
            if r.get(key_col) == key:
                return r
        return None

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI's ``--json`` report uses this)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
            "paper_reference": dict(self.paper_reference),
            "ok": self.ok,
            "audits": [dict(a) for a in self.audits],
        }

    def format_table(self) -> str:
        header = [self.exp_id + ": " + self.title]
        widths = {c: max(len(c), *(len(fmt(r.get(c))) for r in self.rows))
                  if self.rows else len(c) for c in self.columns}
        line = "  ".join(c.rjust(widths[c]) for c in self.columns)
        header.append(line)
        header.append("  ".join("-" * widths[c] for c in self.columns))
        for r in self.rows:
            header.append("  ".join(
                fmt(r.get(c)).rjust(widths[c]) for c in self.columns))
        for note in self.notes:
            header.append(f"# {note}")
        return "\n".join(header)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format_table()


def write_json_report(path: str, results: Sequence[ExperimentResult],
                      scale: str = "full") -> dict:
    """Write the uniform machine-readable report every runner shares.

    The report carries each result's rows *and* audit trail, plus a
    top-level ``ok`` conjoining them -- so CI consumes one shape whether
    the experiment is ``ctl``, ``fleet`` or a plain table run. Returns
    the report dict (tests assert on it without re-reading the file).
    """
    report = {
        "scale": scale,
        "ok": all(r.ok for r in results),
        "failed": sorted(r.exp_id for r in results if not r.ok),
        "results": [r.as_dict() for r in results],
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
