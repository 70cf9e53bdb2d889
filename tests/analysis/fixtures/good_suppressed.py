"""simlint fixture: every hazard carries an allow comment (0 findings)."""

import time


def measured_harness():
    t0 = time.perf_counter()  # simlint: allow[wall-clock] -- harness timing
    return time.perf_counter() - t0  # simlint: allow[wall-clock]


def checkpointing_daemon(sim, state, path):
    time.sleep(0)  # simlint: allow
    yield sim.timeout(1.0)


class Registry:
    def __init__(self):
        self.entries = []

    def withdraw(self, entry):
        self.entries.remove(entry)  # simlint: allow[linear-scan] -- cold path

    def group(self, idx, key, entry):
        idx.setdefault(key, []).append(entry)  # simlint: allow[eager-default]


def frozen_measurement(measure):
    import gc
    gc.freeze()  # simlint: allow[gc-policy] -- shrinks full passes only
    try:
        return measure()
    finally:
        gc.unfreeze()  # simlint: allow[gc-policy]
