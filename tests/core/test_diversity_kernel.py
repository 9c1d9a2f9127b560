"""The compiled population diversity against ``stack_diversity``.

On the arrays path of a GA run the trace's diversity is one
``repro_stack_diversity`` call.  The numpy ``stack_diversity`` is the
reference, and the golden digest pins every trace record, so the kernel
must give the same float, bit for bit: it follows numpy's summation
order (each pair's pairwise sum over the routers, with its 8-way unroll
and its 128-item blocks, divided by N; one pairwise sum per first
index; the row sums added in order) and numpy's int32/int64 switch
above coordinate 32767.  Generated stacks, then the edges: one or two
members, one router, router counts on both sides of the unroll and the
block, and coordinates past the int32 switch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import compiled
from repro.genetic.population import stack_diversity

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)


def random_stack(seed, members, routers, top):
    rng = np.random.default_rng(seed)
    return rng.integers(0, top + 1, size=(members, routers, 2)).astype(np.int32)


def assert_same_bits(cells):
    expected = stack_diversity(cells)
    got = compiled.stack_diversity(cells)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    members=st.integers(1, 40),
    routers=st.integers(1, 300),
    top=st.sampled_from([0, 1, 15, 127, 32767, 32768, 65535, 2**31 - 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_stacks(members, routers, top, seed):
    assert_same_bits(random_stack(seed, members, routers, top))


def test_one_member_is_zero():
    assert compiled.stack_diversity(random_stack(1, 1, 9, 100)) == 0.0


def test_two_members():
    cells = np.array([[[0, 0], [5, 5]], [[3, 4], [5, 5]]], dtype=np.int32)
    # Router 0 moves 5, router 1 stays: the one pair's mean is 2.5.
    assert compiled.stack_diversity(cells) == stack_diversity(cells) == 2.5
    assert_same_bits(random_stack(2, 2, 64, 127))


def test_one_router():
    for members in (2, 3, 17):
        assert_same_bits(random_stack(members, members, 1, 127))


@pytest.mark.parametrize("routers", [7, 8, 9, 127, 128, 129, 255, 256, 257])
def test_router_counts_around_the_unroll_and_the_block(routers):
    for seed in range(3):
        assert_same_bits(random_stack(seed, 6, routers, 1000))


@pytest.mark.parametrize("members", [8, 9, 129, 130])
def test_member_counts_around_the_unroll_and_the_block(members):
    # The first index's row of pair means is P - 1 long.
    assert_same_bits(random_stack(members, members, 3, 1000))


@pytest.mark.parametrize("top", [32767, 32768, 40000, 2**31 - 1])
def test_coordinates_around_the_int32_switch(top):
    cells = random_stack(top, 5, 33, 10)
    cells[2, 7] = (top, top)
    assert_same_bits(cells)


def test_non_contiguous_stack():
    cells = random_stack(4, 12, 20, 300)[::2]
    assert not cells.flags.c_contiguous
    assert_same_bits(cells)


def test_malformed_stacks_are_refused():
    for bad in (
        np.zeros((3, 4, 2), dtype=np.int64),
        np.zeros((3, 4), dtype=np.int32),
        np.zeros((3, 4, 3), dtype=np.int32),
        np.zeros((3, 0, 2), dtype=np.int32),
    ):
        with pytest.raises(ValueError):
            compiled.stack_diversity(bad)
