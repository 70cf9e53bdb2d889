"""Tests for deterministic hierarchical RNG streams."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import SeededRNG
from repro.simx import rng as rng_module


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(5).uniform(0, 1)
        b = SeededRNG(5).uniform(0, 1)
        assert a == b

    def test_different_seeds_differ(self):
        assert SeededRNG(1).uniform(0, 1) != SeededRNG(2).uniform(0, 1)

    def test_child_streams_independent_of_sibling_creation(self):
        root = SeededRNG(9)
        x = root.child("net").uniform(0, 1)
        # creating another sibling first must not perturb "net"
        root2 = SeededRNG(9)
        _ = root2.child("fs")
        y = root2.child("net").uniform(0, 1)
        assert x == y

    def test_child_path_distinguishes(self):
        root = SeededRNG(3)
        assert root.child("a").uniform(0, 1) != root.child("b").uniform(0, 1)

    def test_nested_children(self):
        a = SeededRNG(1).child("x").child("y").random()
        b = SeededRNG(1).child("x").child("y").random()
        assert a == b

    def test_jitter_bounds(self):
        rng = SeededRNG(7)
        for _ in range(200):
            v = rng.jitter(1.0, rel=0.1)
            assert 0.9 <= v <= 1.1

    def test_jitter_zero_base(self):
        assert SeededRNG(1).jitter(0.0) == 0.0
        assert SeededRNG(1).jitter(-1.0) == 0.0

    def test_jitter_never_negative(self):
        rng = SeededRNG(11)
        for _ in range(100):
            assert rng.jitter(1e-9, rel=2.0) >= 0.0

    def test_randint_choice_shuffle(self):
        rng = SeededRNG(13)
        assert 1 <= rng.randint(1, 3) <= 3
        assert rng.choice(["a", "b"]) in ("a", "b")
        seq = list(range(10))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(10))


class TestLazySeeding:
    """A stream derives and seeds its generator on first draw; what it
    draws must not depend on when that happens."""

    @staticmethod
    def _alone(path, n):
        """``n`` draws of the stream at ``path``, made by a fresh root
        whose only drawn stream is that one."""
        stream = SeededRNG(7)
        for name in path:
            stream = stream.child(name)
        return [stream.random() for _ in range(n)]

    def test_seed_derivation_is_sha256_of_seed_and_path(self):
        digest = hashlib.sha256(b"5:root/net").digest()
        want = random.Random(int.from_bytes(digest[:8], "big"))
        got = SeededRNG(5).child("net")
        assert [got.random() for _ in range(3)] == [
            want.random() for _ in range(3)]

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30),
           st.permutations(range(5)))
    @settings(max_examples=60, deadline=None)
    def test_draw_order_does_not_matter(self, draws, creation_order):
        paths = [(), ("a",), ("b",), ("a", "x"), ("b", "x")]
        root = SeededRNG(7)
        streams = {}
        for i in creation_order:  # children may precede their parents
            stream = root
            for name in paths[i]:
                stream = stream.child(name)
            streams[i] = stream
        seen = {i: [] for i in streams}
        for i in draws:
            seen[i].append(streams[i].random())
        for i, values in seen.items():
            assert values == self._alone(paths[i], len(values))

    def test_child_of_an_undrawn_stream(self):
        parent = SeededRNG(7).child("a")
        child = parent.child("x")
        assert [child.random() for _ in range(3)] == self._alone(("a", "x"), 3)
        assert parent.random() == self._alone(("a",), 1)[0]

    @pytest.mark.parametrize("copy_fn", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("drawn", [0, 1, 5])
    def test_copy_continues_the_sequence(self, copy_fn, drawn):
        stream = SeededRNG(7).child("a")
        for _ in range(drawn):
            stream.gauss(0.0, 1.0)
        clone = copy_fn(stream)
        assert clone.path == stream.path and clone.seed == stream.seed
        assert [clone.random() for _ in range(4)] == [
            stream.random() for _ in range(4)]

    def test_creating_streams_allocates_no_generator(self, monkeypatch):
        made = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(rng_module.random, "Random", CountingRandom)
        root = SeededRNG(3)
        nodes = [root.child(f"node:{i}") for i in range(100)]
        nodes[0].child("x")
        assert made == []
        nodes[7].jitter(1.0)
        nodes[7].uniform(0.0, 1.0)
        assert len(made) == 1


def _reference(seed, path):
    """A plain generator seeded as a stream at ``path`` is."""
    digest = hashlib.sha256(f"{seed}:{path}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw(source, method):
    """One ``method`` draw from a stream, or the equivalent draw from a
    plain ``random.Random``."""
    if method == "jitter":
        if isinstance(source, SeededRNG):
            return source.jitter(1.5, 0.1)
        return max(0.0, source.uniform(1.5 * (1.0 - 0.1), 1.5 * (1.0 + 0.1)))
    if method == "shuffle":
        seq = list(range(6))
        source.shuffle(seq)
        return seq
    return {
        "random": lambda: source.random(),
        "uniform": lambda: source.uniform(-2.0, 3.0),
        "randint": lambda: source.randint(1, 6),
        "choice": lambda: source.choice("abcdef"),
        "gauss": lambda: source.gauss(1.0, 0.5),
        "expovariate": lambda: source.expovariate(2.0),
    }[method]()


#: the draws a stream serves from the values it drew ahead, and the rest
TUPLE_DRAWS = ("random", "uniform", "jitter")
GENERATOR_DRAWS = ("randint", "choice", "shuffle", "gauss", "expovariate")
COPIES = {"pickle": lambda s: pickle.loads(pickle.dumps(s)),
          "deepcopy": copy.deepcopy}


class TestDrawAhead:
    """A stream draws a few values ahead and drops its generator; what it
    hands out must be what one generator seeded once would."""

    @given(st.lists(
        st.tuples(st.one_of(st.sampled_from(TUPLE_DRAWS),
                            st.sampled_from(GENERATOR_DRAWS)),
                  st.sampled_from((None, "pickle", "deepcopy"))),
        max_size=3 * rng_module._DRAW_AHEAD))
    @settings(max_examples=300, deadline=None)
    def test_any_mix_of_draws_matches_one_generator(self, program):
        stream = SeededRNG(7).child("node:3")
        want = _reference(7, "root/node:3")
        for method, copy_kind in program:
            if copy_kind is not None:
                stream = COPIES[copy_kind](stream)
            assert _draw(stream, method) == _draw(want, method)

    def _counting(self, monkeypatch):
        made = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(rng_module.random, "Random", CountingRandom)
        return made

    def test_a_draw_past_the_tuple_seeds_once_more_and_keeps_it(
            self, monkeypatch):
        made = self._counting(monkeypatch)
        stream = SeededRNG(3).child("x")
        for _ in range(rng_module._DRAW_AHEAD):
            stream.random()
        assert len(made) == 1
        for _ in range(3 * rng_module._DRAW_AHEAD):
            stream.random()
        stream.randint(1, 6)
        assert len(made) == 2

    def test_another_method_first_seeds_once(self, monkeypatch):
        made = self._counting(monkeypatch)
        stream = SeededRNG(3).child("x")
        stream.randint(1, 6)
        for _ in range(3 * rng_module._DRAW_AHEAD):
            stream.jitter(1.0)
        assert len(made) == 1
