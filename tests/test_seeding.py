"""Property tests for :class:`repro.seeding.BulkDraws` and
:func:`repro.seeding.selection_cdf`.

The bulk draws must be indistinguishable from scalar generator calls:
the same values in the same order, and afterwards the same full
``bit_generator.state`` dict — including the buffered 32-bit half.  A
weighted pick on the selection cdf must equal ``Generator.choice(n,
p=...)`` the same way.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import BulkDraws, selection_cdf

#: Spans that exercise every branch of the 32-bit bounded path: no draw
#: (1), the raw half (2**32), powers of two, and rejection-heavy spans
#: just above 3 * 2**30 (a quarter of the words are rejected).
EDGE_SPANS = [1, 2, 3, 7, 64, 1 << 16, 1 << 31, 1 << 32]
HEAVY_SPANS = st.integers(0, 1 << 20).map(lambda k: 3 * (1 << 30) + k)
#: Spans above 2**32 leave the 32-bit path (scalar pass-through).
WIDE_SPANS = st.sampled_from([(1 << 32) + 1, 1 << 40, (1 << 62) + 3])

draw_ops = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"),
        st.integers(-1000, 1000),
        st.one_of(
            st.sampled_from(EDGE_SPANS),
            HEAVY_SPANS,
            st.integers(1, (1 << 32) - 1),
            WIDE_SPANS,
        ),
    ),
)


def same_state(a, b) -> bool:
    """Deep equality of ``bit_generator.state`` dicts (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def scalar_draws(rng, ops):
    return [
        float(rng.random()) if op[0] == "random"
        else int(rng.integers(op[1], op[1] + op[2]))
        for op in ops
    ]


def bulk_draws(rng, ops, words):
    with BulkDraws(rng, words=words) as draws:
        return [
            draws.random() if op[0] == "random"
            else draws.integers(op[1], op[1] + op[2])
            for op in ops
        ]


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    buffered=st.booleans(),
    # Up to 300 draws against prefetch runs as short as 16 words, so
    # most examples refill at least once.
    ops=st.lists(draw_ops, max_size=300),
    words=st.sampled_from([16, 64, 256]),
)
def test_pcg64_matches_scalar_calls(seed, buffered, ops, words):
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    if buffered:
        # Leave a buffered high half (has_uint32 = 1) behind.
        fast.integers(0, 10)
        reference.integers(0, 10)
    assert bulk_draws(fast, ops, words) == scalar_draws(reference, ops)
    assert fast.bit_generator.state == reference.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([np.random.MT19937, np.random.Philox, np.random.SFC64]),
    ops=st.lists(draw_ops, max_size=60),
)
def test_other_generators_pass_through(seed, kind, ops):
    fast = np.random.Generator(kind(seed))
    reference = np.random.Generator(kind(seed))
    assert bulk_draws(fast, ops, 16) == scalar_draws(reference, ops)
    assert same_state(fast.bit_generator.state, reference.bit_generator.state)


def test_consumed_buffered_half_keeps_its_value():
    # After the buffered half is used, has_uint32 drops to 0 but numpy
    # leaves uinteger at the consumed value; the rewrite must too.
    fast = np.random.default_rng(3)
    reference = np.random.default_rng(3)
    for rng in (fast, reference):
        rng.integers(0, 5)
    with BulkDraws(fast) as draws:
        draws.integers(0, 5)
    reference.integers(0, 5)
    state = fast.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] != 0
    assert state == reference.bit_generator.state


def test_unused_helper_leaves_state_untouched():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with BulkDraws(rng, words=512):
        pass
    assert rng.bit_generator.state == before


def test_empty_range_raises_like_numpy():
    rng = np.random.default_rng(5)
    reference = np.random.default_rng(5)
    with BulkDraws(rng) as draws:
        draws.integers(0, 9)
        with pytest.raises(ValueError):
            draws.integers(3, 3)
        value = draws.integers(0, 9)
    reference.integers(0, 9)
    assert value == int(reference.integers(0, 9))
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # Zero weights anywhere (leading, inner, trailing) and spreads of
    # many orders of magnitude; at least one weight is positive.
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=1, max_size=8
    ).filter(lambda weights: sum(weights) > 0),
)
def test_selection_cdf_pick_matches_choice(seed, weights):
    probabilities, cdf = selection_cdf(weights)
    rng = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for _ in range(200):
        expected = int(reference.choice(len(weights), p=probabilities))
        assert bisect_right(cdf, rng.random()) == expected
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "weights",
    [
        [],
        [0.0, 0.0],
        [-1.0, 2.0],
        [float("nan"), 1.0],
        [1.0, float("inf")],
        [float("-inf"), 1.0],
    ],
)
def test_selection_cdf_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="finite, non-negative and not all zero"):
        selection_cdf(weights)
