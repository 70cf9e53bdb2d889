"""The fold oracle: every built-in filter's fold equals its batch merge.

A router folds each payload into its wave's accumulator as it arrives
(``start``/``fold``/``finish``, the contract in :mod:`repro.tbon.filters`)
instead of buffering the wave. The batch merges that fold replaced are
kept in ``batch_merges.py`` as the reference, and Hypothesis drives every
built-in filter with random payload lists in random arrival order. The
fold must equal the reference under ``==`` and print the same ``repr``,
so types and dict order count too: a sum adds in arrival order from
``0``, floats included; ``max`` keeps the first maximal payload;
``concat`` keeps arrival order; histogram bins and prefix-tree frames
come out in name order.

Folding writes into no payload. Hybrid-style prefix trees share one run
list across their nodes, and some waves fold the same payload twice;
every payload is unchanged afterwards.
"""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.tbon import make_filter, stream_filter_names
from repro.tools.stat_tool import PrefixTree
from tests.tbon.batch_merges import REFERENCE

#: bounded so no sum reaches an infinity: inf + -inf is NaN, equal to nothing
numbers = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
#: equal values of two types: which one a max keeps is visible in repr
ties = st.integers(-3, 3).flatmap(lambda v: st.sampled_from([v, float(v)]))
#: 1 and "1" rank alike (``str(key)``), so their order is arrival order
bins = st.one_of(st.sampled_from(["a", "b", "1"]), st.integers(0, 2))
keys = st.one_of(st.sampled_from(["x", "y", "1"]), st.integers(0, 3),
                 st.tuples(st.integers(0, 2)))
frames = st.lists(st.sampled_from(["main", "solve", "MPI_Barrier", "io"]),
                  min_size=1, max_size=4)


@st.composite
def tree_payloads(draw):
    """A prefix-tree wire payload: a sampled tree's ``to_dict``, or a
    span the way the hybrid aggregate emitter builds it, one run list
    shared by every node of its stack."""
    if draw(st.booleans()):
        tree = PrefixTree()
        for stack, rank in draw(st.lists(
                st.tuples(frames, st.integers(-1, 24)), min_size=1,
                max_size=8)):
            tree.insert(stack, rank)
        return tree.to_dict()
    lo = draw(st.integers(-1, 40))
    hi = lo + draw(st.integers(1, 12))
    runs = [lo, hi]
    node = {"r": runs, "c": {}}
    for frame in reversed(draw(frames)):
        node = {"r": runs, "c": {frame: node}}
    return {"tree": node, "n": hi - lo}


#: built-in filter name -> (payload strategy, filter-params strategy)
CASES = {
    "concat": (st.one_of(st.lists(st.integers(), max_size=3),
                         st.integers(), st.text(max_size=2)),
               st.just({})),
    "sum": (numbers, st.just({})),
    "max": (ties, st.just({})),
    "histogram": (st.dictionaries(bins, numbers, max_size=4), st.just({})),
    "top_k": (st.lists(st.tuples(numbers, keys).map(list), max_size=4),
              st.fixed_dictionaries({"k": st.integers(1, 4)})),
    "ewma": (numbers, st.fixed_dictionaries(
        {"alpha": st.floats(min_value=0.1, max_value=1.0)})),
    "prefix_tree_merge": (tree_payloads(), st.just({})),
}


def test_every_registered_filter_has_a_reference():
    assert set(stream_filter_names()) == set(REFERENCE) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
def test_fold_then_finish_equals_the_batch_merge(name, data):
    payload_strategy, params_strategy = CASES[name]
    params = data.draw(params_strategy)
    payloads = data.draw(st.lists(payload_strategy, min_size=1,
                                  max_size=12))
    # a random arrival order, and sometimes a payload folded again
    order = data.draw(st.permutations(range(len(payloads))))
    again = data.draw(st.lists(st.sampled_from(order), max_size=2))
    arrivals = [payloads[i] for i in list(order) + again]
    before = copy.deepcopy(payloads)

    filt = make_filter(name, **params)
    acc = filt.start()
    for payload in arrivals:
        acc = filt.fold(acc, payload)
    folded = filt.finish(acc)

    expected = REFERENCE[name](arrivals, **params)
    assert folded == expected
    assert repr(folded) == repr(expected)
    assert repr(filt.merge(arrivals)) == repr(expected)
    assert repr(payloads) == repr(before)


def test_a_float_sum_adds_in_arrival_order_from_zero():
    # a compensated sum (sum() from CPython 3.12) would give 1.0
    assert repr(make_filter("sum").merge([1e16, 1.0, -1e16])) == "0.0"
    assert repr(make_filter("ewma").merge([1e16, 1.0, -1e16])) == "0.0"


def test_max_keeps_the_first_maximal_payload():
    assert repr(make_filter("max").merge([1, 2.0, 2, 0])) == "2.0"
    assert repr(make_filter("max").merge([2, 2.0])) == "2"
    with pytest.raises(ValueError):  # as max() of nothing does
        make_filter("max").merge([])


def test_a_shared_run_list_is_never_written():
    runs = [4, 8]
    span = {"tree": {"r": runs, "c": {"main": {"r": runs, "c": {}}}},
            "n": 4}
    other = PrefixTree()
    other.insert(["main", "solve"], 8)
    other.insert(["main"], 2)
    merged = make_filter("prefix_tree_merge").merge([span, other.to_dict()])
    assert runs == [4, 8] and span["tree"]["c"]["main"]["r"] is runs
    assert merged["tree"]["r"] == [2, 3, 4, 9]
    assert merged["tree"]["c"]["main"]["r"] == [2, 3, 4, 9]
    assert merged["tree"]["c"]["main"]["c"] == {"solve": {"r": [8, 9],
                                                          "c": {}}}
