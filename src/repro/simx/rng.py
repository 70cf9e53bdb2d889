"""Deterministic hierarchical random streams.

Every stochastic cost in the simulation (fork jitter, network jitter, ...)
draws from a :class:`SeededRNG` stream derived from a root seed plus a string
path, so adding a new consumer never perturbs the draws seen by existing
consumers — experiments stay bit-for-bit reproducible as the code evolves.

Memory contract: a stream keeps a generator only once it draws more
than a few values. Its ``random.Random`` (a ~2.5 KiB Mersenne-Twister
state) is derived from ``seed`` and ``path``, so the many per-node
streams a large cluster creates and never draws from cost no hash and
only their slots. On its first draw a stream seeds that generator,
takes its next ``_DRAW_AHEAD`` ``random()`` values into a tuple and
drops it: ``random``, ``uniform`` and ``jitter`` read from the tuple,
which covers a node stream's few draws in a few hundred bytes. A draw
past the tuple, or any other method, seeds the generator again, skips
the values already taken and keeps it from then on. The values drawn
are those of one generator seeded once, whenever each draw happens.

A stream's seed is the first 8 bytes of the SHA-256 digest of
``"{seed}:{path}"``. The digest comes from the interpreter's built-in
module through :func:`repro.digest.sha256_digest`, so no process maps
OpenSSL to seed its streams.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.digest import sha256_digest

__all__ = ["SeededRNG"]

#: ``random()`` values a stream takes on its first draw (see the module
#: docstring); a fig6 node stream draws two, the fork jitters of its MPI
#: task and its tool daemon
_DRAW_AHEAD = 4


class SeededRNG:
    """A named, seeded random stream with child-stream derivation."""

    __slots__ = ("seed", "path", "_ahead", "_taken", "_rng")

    def __init__(self, seed: int = 0, path: str = "root"):
        self.seed = int(seed)
        self.path = path
        #: the values drawn ahead, or None before the first draw and
        #: once the generator is kept
        self._ahead: Optional[tuple] = None
        #: values of ``_ahead`` handed out
        self._taken = 0
        self._rng: Optional[random.Random] = None

    def _seeded(self) -> random.Random:
        """A fresh generator at the start of this stream."""
        digest = sha256_digest(f"{self.seed}:{self.path}".encode())
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _generator(self) -> random.Random:
        """The stream's generator, past every value already handed out;
        seeded on first use and kept from then on."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._seeded()
            for _ in range(self._taken):
                rng.random()
            self._ahead = None
        return rng

    def child(self, name: str) -> "SeededRNG":
        """Derive an independent stream identified by ``path/name``."""
        return SeededRNG(self.seed, f"{self.path}/{name}")

    # -- draws -------------------------------------------------------------
    def random(self) -> float:
        rng = self._rng
        if rng is not None:
            return rng.random()
        taken = self._taken
        if taken == _DRAW_AHEAD:
            return self._generator().random()
        ahead = self._ahead
        if ahead is None:
            rng = self._seeded()
            ahead = self._ahead = tuple(
                [rng.random() for _ in range(_DRAW_AHEAD)])
        self._taken = taken + 1
        return ahead[taken]

    def uniform(self, lo: float, hi: float) -> float:
        # random.Random.uniform's own formula, over this stream's values
        return lo + (hi - lo) * self.random()

    def expovariate(self, rate: float) -> float:
        return self._generator().expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._generator().gauss(mu, sigma)

    def jitter(self, base: float, rel: float = 0.05) -> float:
        """``base`` perturbed by a uniform relative jitter, never negative.

        This is the workhorse for cost sampling: a 5% spread keeps measured
        curves realistically non-smooth without hiding their shape.
        """
        if base <= 0.0:
            return 0.0
        lo, hi = base * (1.0 - rel), base * (1.0 + rel)
        rng = self._rng
        value = lo + (hi - lo) * (rng.random() if rng is not None
                                  else self.random())
        return value if value > 0.0 else 0.0  # NaN clamps to 0.0 too

    def randint(self, lo: int, hi: int) -> int:
        return self._generator().randint(lo, hi)

    def choice(self, seq):
        return self._generator().choice(seq)

    def shuffle(self, seq) -> None:
        self._generator().shuffle(seq)
