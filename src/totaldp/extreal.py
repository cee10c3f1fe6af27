"""Extended-real arithmetic kernels.

Total-cost values live in [-inf, +inf] under two conventions that differ
from IEEE float semantics:

    inf - inf = -inf + inf = +inf
    0 * (+-inf) = (+-inf) * 0 = 0

Every expectation and sum of extended-real quantities in this package is
routed through the helpers below, so NaN can never appear in a value
vector or Q-vector.  Comparisons on the resulting floats are then total.

The vector helpers work on the model's pair axis: every atomic
(state, control) pair in one flat array, state-major, so that each state
owns a contiguous segment that starts at `TotalCostModel.pair_starts`.
Each helper takes a finite fast path (plain numpy arithmetic, one
`np.add.reduceat` per segment sum) when its inputs hold no infinity, and
otherwise a masked path that applies the two conventions above through
explicit masks.  Neither path rewrites NaN, so a NaN input stays visible
in the output.  The vector helpers test a mask with `np.count_nonzero`,
one C call, rather than `ndarray.any`, whose Python-level reduction
wrapper costs several times as much on vectors of pair-axis size.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def xadd(a: float, b: float) -> float:
    """a + b with opposite infinities resolving to +inf."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return INF
    return a + b


def xadd_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise `xadd`: entries where a and b are opposite infinities
    are set to +inf by an explicit mask; every other entry is a + b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    clash = np.isinf(a) & np.isinf(b) & (a != b)
    if not np.count_nonzero(clash):
        return a + b
    return np.add(a, b, out=np.full(clash.shape, INF), where=~clash)


def xmul(a: float, b: float) -> float:
    """a * b with 0 * (+-inf) = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def expect(weights: np.ndarray, values: np.ndarray) -> float:
    """Sum of weights[i] * values[i] for nonnegative weights.

    Zero-weight entries contribute nothing even when the value is
    infinite.  If positively weighted +inf and -inf entries are both
    present the result is +inf.
    """
    if not np.isinf(values).any():
        return float(weights @ values)
    live = weights > 0.0
    v = values[live]
    if np.isposinf(v).any():
        return INF
    if np.isneginf(v).any():
        return -INF
    return float(weights[live] @ v)


def expect_rows(P: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise `expect` for a nonnegative matrix P against one vector."""
    if not np.count_nonzero(np.isinf(values)):
        return P @ values
    finite = np.isfinite(values)
    out = P[:, finite] @ values[finite]
    neg = (P[:, np.isneginf(values)] > 0.0).any(axis=1)
    pos = (P[:, np.isposinf(values)] > 0.0).any(axis=1)
    out[neg] = -INF
    out[pos] = INF
    return out


def expect_segments(weights: np.ndarray, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """Segment-wise `expect`: entry s is the weighted sum over
    values[starts[s]:starts[s + 1]] (the last segment runs to the end).

    `starts` must be strictly increasing, so that no segment is empty.
    Zero-weight infinities contribute nothing, and a segment with
    positively weighted +inf and -inf entries is +inf.
    """
    inf_mask = np.isinf(values)
    if not np.count_nonzero(inf_mask):
        return np.add.reduceat(weights * values, starts)
    out = np.add.reduceat(weights * np.where(inf_mask, 0.0, values), starts)
    live = weights > 0.0
    neg = np.logical_or.reduceat(live & (values == -INF), starts)
    pos = np.logical_or.reduceat(live & (values == INF), starts)
    out[neg] = -INF
    out[pos] = INF
    return out


def xdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b for float arrays (broadcast together), 0 wherever a == b.

    Only unequal entries are subtracted, so inf - inf is never formed:
    equal infinities are 0 apart, opposite ones are +-inf apart, and a
    NaN entry stays NaN.
    """
    unequal = a != b
    return np.subtract(a, b, out=np.zeros(unequal.shape), where=unequal)


# `sup_dist` and `margin_leq` take two vectors of one length n, or a
# (k, n) stack of k rows in either argument against a vector or a stack of
# the same shape.  A stack gives an array of k results, each bit for bit
# the one the two rows' 1-D call gives: subtraction, absolute value and
# max are exact elementwise, so neither the fast-path choice (made once
# for the whole stack) nor the row-wise reduction (`_row_max`) moves a bit.


def _row_max(d: np.ndarray) -> np.ndarray:
    """The max of each row of a (k, n) stack.  A stack of at least 32
    rows, at least twice as many rows as columns and at most 48 columns
    is copied to its contiguous transpose and reduced over axis 0, k
    maxima at a time; any other is reduced along its rows.  Timed on
    stacks of random floats (timeit, 2-core shared host), the transpose
    took 0.2-0.6 of the row-wise time per row at k = 256 and n <= 48,
    0.75-0.9 at k = 32-64 and n <= 32, about a break-even near k = 2n,
    and lost at k = 8 (1.15-1.25), at n = 64 and 128 (1.1-1.8; powers
    of two) and from n = 150 on (1.3-1.7).  The maximum is exact and NaN
    wins in both, so the two give the same floats, but for which of
    -0.0 and +0.0 a row with both returns: `sup_dist`'s rows hold no
    -0.0, and `margin_leq` adds +0.0 to its results."""
    k, n = d.shape
    if n <= 48 and k >= max(32, 2 * n):
        return np.ascontiguousarray(d.T).max(axis=0)
    return d.max(axis=-1)


def _empty(a: np.ndarray, b: np.ndarray):
    """The result for an empty a, of n = 0 entries or of k = 0 rows: 0.0
    for a vector, a zero for each row of a stack.  (An empty b against a
    nonempty a is a stack of k = 0 rows, which the reduction handles.)"""
    rows = np.broadcast_shapes(a.shape, b.shape)[:-1]
    return np.zeros(rows) if rows else 0.0


def sup_dist(a: np.ndarray, b: np.ndarray):
    """Sup-norm distance treating equal infinities as coincident; row by
    row for a (k, n) stack.

    When a holds no infinity, the plain difference is taken
    (`_sup_dist`).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _sup_dist(a, b, not np.count_nonzero(np.isinf(a)))


def _sup_dist(a: np.ndarray, b: np.ndarray, plain: bool):
    """`sup_dist` of float arrays, unchecked: |a - b| by `xdiff`, or,
    ``plain``, by the plain difference.  The two give the same floats
    whenever a or b holds no infinity: then no inf - inf is formed, and
    they differ only in the sign of a zero (an a of -0.0 against a b of
    +0.0), which the absolute value drops; a NaN entry stays NaN either
    way."""
    if a.size == 0:
        return _empty(a, b)
    d = a - b if plain else xdiff(a, b)
    d = np.abs(d, out=d)
    return float(d.max()) if d.ndim <= 1 else _row_max(d)


def sup_dist_segments(a: np.ndarray, b: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment-wise `sup_dist` of two vectors of one length: entry s is
    the `sup_dist` of a and b over [starts[s], starts[s + 1]) (the last
    segment runs to the end), bit for bit.

    `starts` must begin at 0 and be strictly increasing, so that no
    segment is empty.  The fast-path choice is made once for the whole
    vector; a segment without an infinity in a may then take `xdiff`,
    which differs from the plain difference only in the sign of a zero
    that the absolute value drops, and the maximum is exact, so each
    entry is the float its segment's own call gives.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _sup_dist_segments(a, b, starts, not np.count_nonzero(np.isinf(a)))


def _sup_dist_segments(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
                       plain: bool) -> np.ndarray:
    """`sup_dist_segments` of float vectors, unchecked; ``plain`` as in
    `_sup_dist`."""
    d = a - b if plain else xdiff(a, b)
    return np.maximum.reduceat(np.abs(d, out=d), starts)


def margin_leq(a: np.ndarray, b: np.ndarray):
    """max over entries of a - b, 0 where they are equal (infinities
    included): <= 0 exactly when a <= b elementwise, NaN aside; 0 for
    empty vectors; row by row for a (k, n) stack.

    The fast path is `sup_dist`'s, without the absolute value; adding
    +0.0 turns the -0.0 that an a of -0.0 against a b of +0.0 leaves
    into the +0.0 that `xdiff` puts at equal entries (`xdiff` itself
    leaves no -0.0: unequal floats never subtract to zero).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return _empty(a, b)
    d = a - b if not np.count_nonzero(np.isinf(a)) else xdiff(a, b)
    return (float(d.max()) if d.ndim <= 1 else _row_max(d)) + 0.0
