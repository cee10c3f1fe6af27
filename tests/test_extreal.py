import math

import numpy as np
from hypothesis import given, strategies as st

from totaldp.extreal import (
    INF, expect, expect_rows, sup_dist, xadd, xdiff, xmul)

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
