import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference_ops as ref
from totaldp.extreal import (
    INF, expect, expect_rows, margin_leq, sup_dist, sup_dist_segments, xadd, xdiff, xmul)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
extended = st.one_of(finite, st.sampled_from([INF, -INF]))


class TestConventions:
    def test_opposite_infinities_add_to_plus_inf(self):
        assert xadd(INF, -INF) == INF
        assert xadd(-INF, INF) == INF

    def test_zero_times_infinity_is_zero(self):
        assert xmul(0.0, INF) == 0.0
        assert xmul(0.0, -INF) == 0.0
        assert xmul(INF, 0.0) == 0.0
        assert xmul(-INF, 0.0) == 0.0

    @given(extended, extended)
    def test_add_never_nan(self, a, b):
        assert not math.isnan(xadd(a, b))

    @given(extended, extended)
    def test_mul_never_nan(self, a, b):
        assert not math.isnan(xmul(a, b))

    @given(finite, finite)
    def test_finite_agrees_with_float_ops(self, a, b):
        assert xadd(a, b) == a + b
        if a != 0.0 and b != 0.0:
            assert xmul(a, b) == a * b


class TestExpect:
    def test_zero_weight_kills_infinity(self):
        w = np.array([0.0, 1.0])
        v = np.array([INF, 2.0])
        assert expect(w, v) == 2.0

    def test_positive_weight_propagates_infinity(self):
        w = np.array([0.5, 0.5])
        assert expect(w, np.array([INF, 1.0])) == INF
        assert expect(w, np.array([-INF, 1.0])) == -INF

    def test_mixed_infinities_resolve_positive(self):
        w = np.array([0.5, 0.5])
        assert expect(w, np.array([INF, -INF])) == INF

    def test_rows_match_scalar_version(self):
        rng = np.random.default_rng(0)
        P = rng.random((4, 5))
        v = rng.normal(size=5)
        v[2] = INF
        P[1, 2] = 0.0
        rows = expect_rows(P, v)
        for i in range(4):
            assert rows[i] == expect(P[i], v)


class TestComparisons:
    def test_sup_dist_equal_infinities(self):
        assert sup_dist(np.array([INF, 1.0]), np.array([INF, 1.0])) == 0.0
        assert sup_dist(np.array([INF]), np.array([1.0])) == INF
        assert sup_dist(np.array([INF]), np.array([-INF])) == INF

    def test_sup_dist_empty(self):
        assert sup_dist(np.array([]), np.array([])) == 0.0

    def test_xdiff_never_subtracts_equal_entries(self):
        # pytest turns numpy's inf - inf warning into an error
        a = np.array([INF, -INF, INF, -INF, np.nan, 1.0, 2.0])
        b = np.array([INF, -INF, -INF, INF, 1.0, np.nan, 0.5])
        d = xdiff(a, b)
        assert d[:4].tolist() == [0.0, 0.0, INF, -INF] and d[6] == 1.5
        assert np.isnan(d[4]) and np.isnan(d[5])
        assert math.isnan(sup_dist(a, b))


# Entries for the residual kernels: few distinct values (so that exact
# ties are common), both zeros, both infinities and NaN.  Finite values
# stay far from the overflow range, where a - b warns in the masked form
# and the fast path alike.
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 1.0, -1.0, 2.5]),
                  st.floats(-1e6, 1e6))


@st.composite
def residual_pairs(draw):
    """Vectors a and b of one length; each b entry is drawn afresh, equal
    to a's, or a's with the sign of a zero flipped."""
    a = draw(st.lists(ENTRY, max_size=8))
    b = []
    for x in a:
        kind = draw(st.sampled_from(["fresh", "tie", "flip"]))
        b.append(draw(ENTRY) if kind == "fresh" else -x if kind == "flip" and x == 0.0
                 else x)
    return np.array(a, dtype=float), np.array(b, dtype=float)


def same_float(x, y):
    """Bitwise equal, or both NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


class TestResidualKernels:
    """`sup_dist` and `margin_leq` take a plain subtraction when a holds
    no infinity; the masked forms they replaced are the oracles."""

    @given(residual_pairs())
    def test_equal_to_the_masked_forms_bit_for_bit(self, pair):
        a, b = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x, y in ((a, b), (b, a)):
                assert same_float(sup_dist(x, y), ref.sup_dist_masked(x, y))
                assert same_float(margin_leq(x, y), ref.margin_masked(x, y))


@st.composite
def residual_stacks(draw, max_rows=4):
    """A (k, n) stack, k and n from 0, and a partner: an n-vector or a
    second (k, n) stack.  Each partner entry is drawn afresh, equal to the
    stack's entry it meets (row 0's for a vector), or that entry with the
    sign of a zero flipped."""
    k = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, 5))
    stack = np.array(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                   min_size=k, max_size=k)), dtype=float).reshape(k, n)
    vector = draw(st.booleans())
    met = stack[:1] if vector else stack
    partner = []
    for x in (met.ravel() if met.size else [draw(ENTRY) for _ in range(n if vector else 0)]):
        kind = draw(st.sampled_from(["fresh", "tie", "flip"]))
        partner.append(draw(ENTRY) if kind == "fresh" else -x if kind == "flip" and x == 0.0
                       else x)
    return stack, np.array(partner, dtype=float).reshape((n,) if vector else (k, n))


def shaped_stack(k, n, vector, seed):
    """A (k, n) stack of `ENTRY`'s special values and random floats, and a
    partner as `residual_stacks` makes it, at a size the strategy does
    not draw."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, INF, -INF, math.nan, 1.0, -1.0, 2.5])
    stack = np.where(rng.random((k, n)) < 0.5, rng.choice(special, (k, n)),
                     rng.uniform(-1e6, 1e6, (k, n)))
    met = stack[:1] if vector else stack
    kind = rng.integers(3, size=met.shape)
    fresh = rng.choice(special, met.shape)
    partner = np.where(kind == 0, fresh, np.where((kind == 2) & (met == 0.0), -met, met))
    return stack, partner[0] if vector else partner


def same_floats(x, y):
    return x.shape == y.shape and all(same_float(u, v) for u, v in zip(x, y))


class TestStackedResidualKernels:
    """On a (k, n) stack in either argument, `sup_dist` and `margin_leq`
    give each row's 1-D result, bit for bit."""

    # Besides the drawn stacks, the shapes the solvers' ground-truth fills
    # reduce: a long value-iteration trace (up to 256 rows of a few dozen
    # states), a short one, and one of a model with 60 states.
    @given(st.one_of(residual_stacks(), residual_stacks(max_rows=40)))
    @example(shaped_stack(220, 30, True, 1))
    @example(shaped_stack(220, 30, False, 2))
    @example(shaped_stack(25, 30, True, 3))
    @example(shaped_stack(25, 30, False, 4))
    @example(shaped_stack(100, 60, True, 5))
    @example(shaped_stack(100, 60, False, 6))
    def test_equal_to_one_call_per_row_bit_for_bit(self, pair):
        stack, partner = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x, y in ((stack, partner), (partner, stack)):
                assert same_floats(sup_dist(x, y), ref.sup_dist_rows(x, y))
                assert same_floats(margin_leq(x, y), ref.margin_leq_rows(x, y))

    def test_infinities_in_either_operand(self):
        stack = np.array([[INF, 1.0], [-INF, INF], [0.0, -0.0]])
        star = np.array([INF, -INF])
        assert sup_dist(stack, star).tolist() == [INF, INF, INF]
        assert margin_leq(star, stack).tolist() == [0.0, INF, INF]
        assert margin_leq(stack, star).tolist() == [INF, INF, INF]
        assert sup_dist(np.array([[INF, -INF]]), star).tolist() == [0.0]

    @pytest.mark.parametrize("a_shape, b_shape, rows", [
        ((0, 3), (3,), 0), ((3,), (0, 3), 0), ((2, 0), (0,), 2), ((0,), (2, 0), 2),
        ((0, 0), (0,), 0)])
    def test_empty_stacks(self, a_shape, b_shape, rows):
        a, b = np.zeros(a_shape), np.zeros(b_shape)
        for kernel in (sup_dist, margin_leq):
            out = kernel(a, b)
            assert isinstance(out, np.ndarray) and out.tolist() == [0.0] * rows

    def test_vectors_still_give_floats(self):
        a, b = np.array([1.0, -2.0]), np.array([0.5, 0.0])
        assert type(sup_dist(a, b)) is float and type(margin_leq(a, b)) is float
        assert type(sup_dist(a[:0], b[:0])) is float


@st.composite
def segmented_pairs(draw):
    """Vectors a and b as in `residual_pairs`, at least one entry long,
    and segment starts from 0: one-entry segments are common."""
    a, b = draw(residual_pairs().filter(lambda pair: pair[0].size))
    cuts = draw(st.lists(st.integers(0, a.size - 1), max_size=a.size))
    return a, b, np.array(sorted({0, *cuts}), dtype=np.intp)


class TestSegmentResiduals:
    """`sup_dist_segments` gives each segment's `sup_dist`, bit for bit,
    though it picks the fast path once for the whole vector."""

    @given(segmented_pairs())
    def test_each_entry_is_its_segments_sup_dist(self, case):
        a, b, starts = case
        ends = [*starts[1:].tolist(), a.size]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x, y in ((a, b), (b, a)):
                got = sup_dist_segments(x, y, starts)
                assert got.shape == starts.shape
                want = [sup_dist(x[lo:hi], y[lo:hi]) for lo, hi in zip(starts.tolist(), ends)]
                assert all(same_float(u, v) for u, v in zip(got.tolist(), want))

    def test_an_infinity_in_one_segment_leaves_the_other_exact(self):
        # The second segment's +inf sends the whole vector through xdiff;
        # the first segment's -0.0 against +0.0 still reads +0.0.
        a = np.array([-0.0, 1.0, INF, 2.0])
        b = np.array([0.0, 1.0, INF, 3.0])
        got = sup_dist_segments(a, b, np.array([0, 2]))
        assert [struct.pack("<d", v) for v in got.tolist()] == \
            [struct.pack("<d", 0.0), struct.pack("<d", 1.0)]
        assert math.isnan(sup_dist_segments(np.array([np.nan, 1.0]), np.zeros(2),
                                            np.array([0, 1]))[0])
