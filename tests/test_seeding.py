"""Property tests for :class:`repro.seeding.BulkDraws`.

The bulk draws must be indistinguishable from scalar generator calls:
the same values in the same order, and afterwards the same full
``bit_generator.state`` dict — including the buffered 32-bit half.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import BulkDraws
from repro.seeding import unbroken_prefix

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


# ----------------------------------------------------------------------
# Array take: speculate / accept / rows
# ----------------------------------------------------------------------

#: One row's spans for the array take: every 32-bit branch, including
#: spans of 1 (no half consumed) and rejection-heavy spans.
row_spans = st.lists(
    st.one_of(st.sampled_from(EDGE_SPANS), HEAVY_SPANS), min_size=1, max_size=4
)

block_ops = st.one_of(
    draw_ops,
    st.tuples(
        st.just("block"),
        row_spans,
        st.integers(0, 40),
        # Rows the caller breaks on (an occupied cell, say): each is
        # finished on the scalar replay instead of being kept.
        st.sets(st.integers(0, 39), max_size=6),
        st.sampled_from([0.0, 0.01, 0.2, 1.0]),
    ),
)


def scalar_block_draws(rng, ops):
    values = []
    for op in ops:
        if op[0] != "block":
            values.extend(scalar_draws(rng, [op]))
            continue
        _, spans, n_rows, _, _ = op
        for _ in range(n_rows):
            values.extend(int(rng.integers(0, span)) for span in spans)
    return values


def speculated_rows(draws, spans, n_rows, breaks):
    """The documented loop, written out on speculate/accept."""
    rows = []
    while len(rows) < n_rows:
        values, rejected = draws.speculate(spans, n_rows - len(rows))
        broken = rejected.copy()
        broken[[row - len(rows) for row in breaks if len(rows) <= row < n_rows]] = True
        kept = unbroken_prefix(broken)
        draws.accept(kept)
        rows.extend(values[:kept].tolist())
        if len(rows) < n_rows:
            rows.append([draws.integers(0, span) for span in spans])
    return [value for row in rows for value in row]


def looped_rows(draws, spans, n_rows, breaks, rate):
    """The same rows through ``BulkDraws.rows``."""
    table = np.full((n_rows, len(spans)), -1, dtype=np.int64)

    def keep(values, rejected, at):
        table[at : at + len(values)] = values
        hits = [row - at for row in breaks if at <= row < at + len(values)]
        broken = rejected.copy()
        broken[hits] = True
        return unbroken_prefix(broken)

    def finish(at):
        table[at] = [draws.integers(0, span) for span in spans]

    draws.rows(n_rows, spans, keep, finish, lambda at: rate)
    return table.ravel().tolist()


def block_draws(rng, ops, words, take):
    values = []
    with BulkDraws(rng, words=words) as draws:
        for op in ops:
            if op[0] == "random":
                values.append(draws.random())
            elif op[0] == "integers":
                values.append(draws.integers(op[1], op[1] + op[2]))
            else:
                _, spans, n_rows, breaks, rate = op
                values.extend(take(draws, spans, n_rows, breaks, rate))
    return values


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    buffered=st.booleans(),
    ops=st.lists(block_ops, max_size=12),
    words=st.sampled_from([16, 64, 256]),
    looped=st.booleans(),
)
def test_array_take_matches_scalar_calls(seed, buffered, ops, words, looped):
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    if buffered:
        fast.integers(0, 10)
        reference.integers(0, 10)
    if looped:
        take = looped_rows
    else:
        def take(draws, spans, n_rows, breaks, rate):
            return speculated_rows(draws, spans, n_rows, breaks)
    assert block_draws(fast, ops, words, take) == scalar_block_draws(reference, ops)
    assert fast.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("spans", [(1,), (1, 1), (1, 7, 1), (3, 1 << 32)])
@pytest.mark.parametrize("buffered", [False, True])
def test_accepted_prefix_leaves_scalar_state(spans, buffered):
    # Every prefix length of one speculated block: the cursor, the
    # buffered half and numpy's stale ``uinteger`` all land where the
    # scalar calls leave them.
    for kept in range(6):
        fast = np.random.default_rng(8)
        reference = np.random.default_rng(8)
        if buffered:
            fast.integers(0, 10)
            reference.integers(0, 10)
        with BulkDraws(fast, words=16) as draws:
            values, _ = draws.speculate(spans, 5)
            draws.accept(kept)
        expected = [
            [int(reference.integers(0, span)) for span in spans] for _ in range(kept)
        ]
        assert values[:kept].tolist() == expected
        assert fast.bit_generator.state == reference.bit_generator.state


def test_speculate_has_no_array_form_off_the_32_bit_path():
    with BulkDraws(np.random.default_rng(1)) as draws:
        assert draws.speculate([5, (1 << 32) + 1], 4) is None
        assert draws.speculate([0, 5], 4) is None
    with BulkDraws(np.random.Generator(np.random.MT19937(1))) as draws:
        assert draws.speculate([5], 4) is None


def test_rows_fall_back_to_scalar_rows_on_other_generators():
    fast = np.random.Generator(np.random.MT19937(2))
    reference = np.random.Generator(np.random.MT19937(2))
    got = block_draws(fast, [("block", [7, 9], 12, set(), 0.0)], 16, looped_rows)
    assert got == scalar_block_draws(reference, [("block", [7, 9], 12, set(), 0.0)])
    assert same_state(fast.bit_generator.state, reference.bit_generator.state)
