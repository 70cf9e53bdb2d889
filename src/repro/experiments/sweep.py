"""Parallel sweep engine: run independent grid points across processes.

Every experiment sweep in this package is a grid of *independent* cells --
each cell builds its own :class:`~repro.simx.Simulator`, cluster and RM
from an explicit seed, so cells share no state and their results depend
only on their parameters. That makes the sweeps embarrassingly parallel:
:func:`map_grid` fans the cells out over a pool of worker processes and
merges the results back **in grid order** (the deterministic key order the
experiment built its grid in), so a parallel run's table is byte-identical
to the serial run's -- only the wall-clock changes.

Contract for a grid point function:

* module-level (picklable by qualified name) and taking keyword arguments
  that are themselves picklable (ints, floats, strings, tuples);
* pure with respect to process state: everything the experiment needs must
  be in the *returned* value (plain dicts/lists/scalars), because with
  ``jobs > 1`` the function runs in a worker process whose interpreter
  state is discarded afterwards.

``jobs <= 1`` bypasses the pool entirely (no subprocess, no pickling), so
the serial path is exactly the historical in-process execution. The pool
is imported only for ``jobs > 1``: ``concurrent.futures.process`` loads
``multiprocessing`` (34 modules, 1-2 MiB resident), which a serial run
never uses.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

__all__ = ["default_jobs", "map_grid"]


def default_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 -> 1, negative -> cpu count."""
    if not jobs:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def map_grid(point_fn: Callable[..., Any], grid: Sequence[dict],
             jobs: int = 1) -> list:
    """Evaluate ``point_fn(**kwargs)`` for every kwargs dict in ``grid``.

    Results come back in grid order regardless of which worker finishes
    first -- the merge is keyed on the grid index, never on completion
    order, which is what keeps ``--jobs N`` output byte-identical to a
    serial run. Worker failures re-raise in the parent (the first failing
    cell's exception, like the serial loop would).
    """
    grid = list(grid)
    jobs = default_jobs(jobs)
    if jobs <= 1 or len(grid) <= 1:
        return [point_fn(**kwargs) for kwargs in grid]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(grid))) as pool:
        futures = [pool.submit(point_fn, **kwargs) for kwargs in grid]
        # collect in submission (grid) order; .result() re-raises failures
        return [f.result() for f in futures]
