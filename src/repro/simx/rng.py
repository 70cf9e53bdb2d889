"""Deterministic hierarchical random streams.

Every stochastic cost in the simulation (fork jitter, network jitter, ...)
draws from a :class:`SeededRNG` stream derived from a root seed plus a string
path, so adding a new consumer never perturbs the draws seen by existing
consumers — experiments stay bit-for-bit reproducible as the code evolves.

Memory contract: a stream holds no generator until it is drawn from.
Its ``random.Random`` (a ~2.5 KiB Mersenne-Twister state) is derived from
``seed`` and ``path`` and seeded on the first draw, so the many per-node
streams a large cluster creates and never draws from cost no hash and
only a few hundred bytes each. The draws do not depend on when that
first draw happens.
"""

from __future__ import annotations

import hashlib
import random
from functools import cached_property
from typing import Optional

__all__ = ["SeededRNG"]


class SeededRNG:
    """A named, seeded random stream with child-stream derivation."""

    def __init__(self, seed: int = 0, path: str = "root"):
        self.seed = int(seed)
        self.path = path

    @cached_property
    def _rng(self) -> random.Random:
        """The stream's generator, derived and seeded on first draw."""
        digest = hashlib.sha256(f"{self.seed}:{self.path}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def child(self, name: str) -> "SeededRNG":
        """Derive an independent stream identified by ``path/name``."""
        return SeededRNG(self.seed, f"{self.path}/{name}")

    # -- draws -------------------------------------------------------------
    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def jitter(self, base: float, rel: float = 0.05) -> float:
        """``base`` perturbed by a uniform relative jitter, never negative.

        This is the workhorse for cost sampling: a 5% spread keeps measured
        curves realistically non-smooth without hiding their shape.
        """
        if base <= 0.0:
            return 0.0
        lo, hi = base * (1.0 - rel), base * (1.0 + rel)
        return max(0.0, self._rng.uniform(lo, hi))

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq):
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)

    def random(self) -> float:
        return self._rng.random()
