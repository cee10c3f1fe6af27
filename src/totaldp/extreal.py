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
in the output.
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
    if not clash.any():
        return a + b
    return np.add(a, b, out=np.full(clash.shape, INF), where=~clash)


def xmul(a: float, b: float) -> float:
    """a * b with 0 * (+-inf) = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xsum(values) -> float:
    """Left-to-right sum under the xadd convention."""
    total = 0.0
    for v in values:
        total = xadd(total, v)
    return total


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
    if not np.isinf(values).any():
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
    if not inf_mask.any():
        return np.add.reduceat(weights * values, starts)
    out = np.add.reduceat(weights * np.where(inf_mask, 0.0, values), starts)
    live = weights > 0.0
    neg = np.logical_or.reduceat(live & (values == -INF), starts)
    pos = np.logical_or.reduceat(live & (values == INF), starts)
    out[neg] = -INF
    out[pos] = INF
    return out


def xdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b for float arrays, 0 wherever a == b.

    Only unequal entries are subtracted, so inf - inf is never formed:
    equal infinities are 0 apart, opposite ones are +-inf apart, and a
    NaN entry stays NaN.
    """
    return np.subtract(a, b, out=np.zeros(a.shape), where=a != b)


def sup_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance treating equal infinities as coincident."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(xdiff(a, b)).max())


def leq(a: np.ndarray, b: np.ndarray, slack: float = 0.0) -> bool:
    """Elementwise a <= b + slack, with equal infinities passing."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ok = (a == b) | (a <= b + slack)
    return bool(ok.all())
