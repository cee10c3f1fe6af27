"""End-to-end iterative solvers and their convergence traces.

Covers classical value iteration, exact and modified policy iteration,
near-optimal policy extraction, a certificate verifier that replays the
convergence guarantees recorded in a trace, and mixed value-and-policy
iteration: one loop with four Q-updates, namely nk powers of the
parametrized evaluation operator, their masked form, its exact fixed
point (the three of `mixed_vpi`) and, for nonnegative costs, the maximal
solution of the stop/continue constraint program (`lp_variant_vpi`).

``run(model, config)`` picks the solver named by ``config.algorithm``.
Every solver is deterministic given its configuration and returns a
SolveResult.  Its append-only IterationTrace, kept by one recorder that
all five solvers share, holds its rows as columns (`TraceColumns`): the
sup-norm residual, the distance to ground truth when one is supplied,
policy and set descriptors, ordering margins against ground truth and
(mixed runs in N and P) against the value-iteration envelope T^k(J0),
wall time, and the iterates that mixed and optimistic policy iteration
rows record.  Each row appends to the columns; the ground-truth columns
are filled in blocks of rows and when the run ends (`_Recorder`).  A
run that stops on the tolerance and reaches the iteration cap first
raises SolverCapError, which carries the SolveResult it ends with.  In
D, value iteration, optimistic policy iteration and the unmasked mixed
loop stop on the MacQueen-Porteus bracket of a row and return its upper
end, with its error bound (`_bracket_stop`); every other run stops on
its residual.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Union

import numpy as np

from .extreal import (
    INF,
    _sup_dist,
    _sup_dist_segments,
    margin_leq,
    sup_dist,
    sup_dist_segments,
)
from .ftheta import (
    Theta,
    _check_masks,
    _f_theta_power,
    _masked_power,
    q_fixed_point,
)
from .model import Policy, TotalCostModel, policy_mix
from .operators import (
    _bellman_T,
    _finite,
    _greedy_select,
    _plain_backup,
    _segment_min,
    _state_vector,
    bellman_T_mu,
    t_mu_power_and_h,
    greedy_select,
    h_backup,
)
from .chains import evaluate_policy, occupation_measure
from .stopping import lp_upper_bound


class SolverCapError(RuntimeError):
    """Iteration cap reached before the stop rule was met.

    The last iterate is still a valid one-sided bound in the monotone
    regimes: a lower bound for nonnegative costs, an upper bound for
    nonpositive ones.  ``result`` is the SolveResult the run ends with,
    its termination "cap".
    """

    def __init__(self, message: str, last, trace, bound: str | None, result):
        super().__init__(message)
        self.last = last
        self.trace = trace
        self.bound = bound
        self.result = result


# ---------------------------------------------------------------------------
# B-set strategies
#
# A strategy's resolve(model, policy, k) returns iteration k's set B as a
# frozenset.  F_theta reads the policy only on B; off B it reads J.


@dataclass(frozen=True)
class FullB:
    def resolve(self, model, policy, k):
        return model.state_set


@dataclass(frozen=True)
class OccupationSupportB:
    """B is the support of the policy's discounted visitation measure.

    The support is every state whose measure exceeds ``threshold``.  The
    measure is at least (1 - beta) * rho(x) at each state, so when
    (1 - beta) * min(rho) > threshold every state passes, and B = S is
    returned without solving for the measure.  With the default uniform
    rho that holds whenever threshold < (1 - beta) / n; a proper subset
    needs a concentrated rho or a larger threshold.  A rho of another
    length than the model's states is refused.
    """

    beta: float = 0.5
    threshold: float = 1e-12
    rho: np.ndarray | None = None
    # (model, policy, B) of the last resolve: a loop that keeps its policy
    # object gets the same B back without a new occupation solve.
    _last: tuple = field(default=(None,) * 3, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not self.threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")

    def resolve(self, model, policy, k):
        if self._last[0] is model and self._last[1] is policy:
            return self._last[2]
        n = model.num_states
        rho = np.full(n, 1.0 / n) if self.rho is None else np.asarray(self.rho, dtype=float)
        if rho.shape != (n,):
            raise ValueError(f"rho has shape {rho.shape}, the model wants {(n,)}")
        if (1.0 - self.beta) * rho.min() > self.threshold:
            B = model.state_set
        else:
            keep = occupation_measure(model, policy, rho, self.beta) > self.threshold
            B = model.state_set if keep.all() else frozenset(np.flatnonzero(keep).tolist())
        object.__setattr__(self, "_last", (model, policy, B))
        return B


@dataclass(frozen=True)
class CustomB:
    """Explicit per-iteration subsets, cycled when the run is longer;
    ``CustomB((frozenset(),))`` is the empty B every iteration."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.sets:
            raise ValueError("CustomB needs at least one set")

    def resolve(self, model, policy, k):
        return self.sets[k % len(self.sets)]


BStrategy = Union[FullB, OccupationSupportB, CustomB]


# ---------------------------------------------------------------------------
# Traces


# The keys of the iterates a row records in ``TraceRow.extra``: J_k and
# Q_k of a mixed row, the evaluation iterate and the greedy value of an
# optimistic policy iteration row.  Float arrays in memory and after
# `modelio.read_trace`, JSON lists on disk.
J_SNAPSHOT, Q_SNAPSHOT = "J_snapshot", "Q_snapshot"
J_EVAL, J_GREEDY = "J_eval", "J_greedy"
ITERATE_KEYS = (J_SNAPSHOT, Q_SNAPSHOT, J_EVAL, J_GREEDY)


@dataclass(slots=True)
class TraceRow:
    k: int
    residual: float
    dist_J: float | None = None
    dist_Q: float | None = None
    policy: str = ""
    b_set: str = ""
    upper_margin: float | None = None   # mixed, N/P: max(J_k - T^k(J0)); <= 0 if it holds
    lower_margin: float | None = None   # max(Jstar - J_k); <= 0 when J_k >= Jstar
    q_lower_margin: float | None = None  # max(Qstar - Q_k)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)


# The fields of a row, those held as codes into a table of strings, and
# the column entry of each field that a trace may leave out ("" being
# code 0).
_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRow))
_TEXTS = ("policy", "b_set")
_DEFAULTS = {"dist_J": None, "dist_Q": None, "policy": 0, "b_set": 0, "upper_margin": None,
             "lower_margin": None, "q_lower_margin": None, "wall_time": 0.0}


class TraceColumns(Sequence):
    """The rows of a trace, held as columns and read as `TraceRow`s.

    ``lists`` holds one list per field of `TraceRow`, with an entry per
    row, policy and b_set as codes: ``codes`` maps each distinct string
    to its code, in order of first use.  A list left empty is a field
    that the rows leave out, which takes its default in every row.
    `column` gives a field as an array.  The iterates a solver records
    sit side by side in the rows of ``block``, which grows by doubling,
    named with their column ranges by ``block_keys``; a row's
    `TraceRow.extra` lists them, as views of the block, after its dict's
    own keys.
    """

    def __init__(self, block_keys: tuple[tuple[str, int, int], ...] = ()):
        self.lists: dict[str, list] = {name: [] for name in _FIELDS}
        self.codes = {"": 0}
        self.block_keys = block_keys
        self.block = np.empty((16, block_keys[-1][2])) if block_keys else None

    def __len__(self) -> int:
        return len(self.lists["k"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("trace row index out of range")
        values = {name: column[i] for name, column in self.lists.items() if column}
        for name in _TEXTS:
            if name in values:
                values[name] = list(self.codes)[values[name]]
        if self.block_keys:
            row = self.block[i % len(self)]
            values["extra"] = {**values["extra"],
                               **{key: row[lo:hi] for key, lo, hi in self.block_keys}}
        return TraceRow(**values)

    def entries(self, name: str) -> list:
        """One field's entry in every row, as `TraceRow` has it; for
        extra, without the recorded iterates (`extras` adds them)."""
        column = self.lists[name] or [_DEFAULTS.get(name)] * len(self)
        return list(map(list(self.codes).__getitem__, column)) if name in _TEXTS else column

    def column(self, name: str) -> np.ndarray:
        """A numeric field as an array: k as ints, a float field as floats
        with NaN for None."""
        return np.array(self.entries(name), dtype=np.int64 if name == "k" else float)

    def extra_column(self, key: str) -> np.ndarray:
        """One number of every row's extra as a float array, NaN for None."""
        values = list(map(operator.itemgetter(key), self.lists["extra"]))
        return np.array(values, dtype=float)

    def iterates(self, key: str) -> np.ndarray:
        """One recorded iterate of every row as a (rows, width) array: a
        view of the block, or, for a trace read from a file, which keeps
        its iterates in each row's extra, their stack.  KeyError naming
        the key when a row does not record it."""
        for name, lo, hi in self.block_keys:
            if name == key:
                return self.block[:len(self), lo:hi]
        extras = self.lists["extra"]
        if not extras or not all(key in extra for extra in extras):
            raise KeyError(f"not every row of the trace records {key!r}")
        return np.array([extra[key] for extra in extras], dtype=float)

    def extras(self) -> list[dict]:
        """Every row's extra as `TraceRow.extra` holds it, but with its
        recorded iterates as lists of floats: what a trace file writes."""
        if not self.block_keys:
            return self.lists["extra"]
        parts = [(key, self.block[:len(self), lo:hi].tolist())
                 for key, lo, hi in self.block_keys]
        return [{**extra, **{key: rows[i] for key, rows in parts}}
                for i, extra in enumerate(self.lists["extra"])]

    def code(self, text: str) -> int:
        """The code of ``text``, given it at its first use."""
        return self.codes.setdefault(text, len(self.codes))

    def reserve(self, rows: int) -> None:
        """Grow the block, by doubling, to hold ``rows`` rows."""
        if rows > len(self.block):
            block = np.empty((max(2 * len(self.block), rows), self.block.shape[1]))
            block[:len(self.block)] = self.block
            self.block = block

    def extend(self, values: dict[str, list]) -> None:
        """Append rows given as one list per field of `TraceRow`, every
        field; a column that the trace left out so far starts with its
        default in the earlier rows.  The caller keeps k increasing
        (`IterationTrace.append` checks it); the block's rows are the
        recorder's to write."""
        rows = len(self)
        for name, column in values.items():
            if rows and not self.lists[name]:
                self.lists[name] = [_DEFAULTS[name]] * rows
            self.lists[name] += map(self.code, column) if name in _TEXTS else column

    def copy(self) -> TraceColumns:
        """A copy that shares no list or block with this one."""
        other = copy.copy(self)
        other.lists = {name: list(column) for name, column in self.lists.items()}
        other.codes = dict(self.codes)
        other.block = None if self.block is None else self.block.copy()
        return other


@dataclass
class IterationTrace:
    """A run's header and its rows: ``columns`` holds them, and ``rows``
    reads them as `TraceRow`s."""

    algorithm: str
    regime: str
    discount: float
    config: dict
    J0: np.ndarray | None = None
    Q0: np.ndarray | None = None
    dist0: float | None = None          # max distance of (J0, Q0) to ground truth
    initial_dominance: bool | None = None
    ground_truth_known: bool = False
    model_hash: str = ""
    op_count: int = 0
    columns: TraceColumns = field(default_factory=TraceColumns, repr=False)

    @property
    def rows(self) -> TraceColumns:
        return self.columns

    def append(self, row: TraceRow) -> None:
        """Append a row whose k follows the last row's; ValueError otherwise."""
        columns = self.columns
        if columns.block_keys:
            raise ValueError("a trace that holds recorded iterates takes its rows "
                             "from its solver")
        if len(columns) and not row.k > columns.lists["k"][-1]:
            raise ValueError("trace rows must be strictly increasing in k")
        columns.extend({name: [getattr(row, name)] for name in _FIELDS})

    @property
    def final_residual(self) -> float:
        residual = self.columns.lists["residual"]
        return residual[-1] if residual else INF

    def timeless(self) -> IterationTrace:
        """A copy whose wall_time column is zero, for comparing two runs."""
        columns = self.columns.copy()
        columns.lists["wall_time"] = [0.0] * len(columns)
        return dataclasses.replace(self, columns=columns)


# ---------------------------------------------------------------------------
# Configuration and results


ALGORITHMS = ("vi", "pi", "mpi", "mixed", "lp")


def check_admits(algorithm: str, model: TotalCostModel) -> None:
    """Raise ValueError unless ``algorithm`` can run on ``model``.

    Every algorithm needs a model with at least one state.  The lp
    variant needs a nonnegative-cost (P) model, and every algorithm but
    vi needs an atomic-only one: the operators they apply to Q-vectors
    are defined on atomic pairs only.
    """
    if model.num_states == 0:
        raise ValueError("the model has no state")
    if algorithm == "lp" and model.regime != "P":
        raise ValueError("the lp variant needs a nonnegative-cost (P) model")
    if algorithm != "vi" and not model.atomic_only:
        raise ValueError(f"{algorithm} needs an atomic-only model; "
                         "vi also handles affine families")


def _mask_rows(masks) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """A mask schedule as a tuple of (pair_mask, state_mask) rows, each
    mask a 1-D boolean array.  An empty schedule, or a row that is not
    two such arrays (an index list like ``[(0, 0)]`` included), is a
    ValueError: nothing is cast."""
    rows = tuple(masks)
    if not rows:
        raise ValueError("a mask schedule needs at least one row")
    for k, row in enumerate(rows):
        if not (isinstance(row, (tuple, list)) and len(row) == 2
                and all(isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 1
                        for m in row)):
            raise ValueError(f"mask row {k} must be two 1-D boolean arrays "
                             "(pair_mask, state_mask)")
    return tuple((row[0], row[1]) for row in rows)


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1: a Python or numpy integer,
    not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class SolverConfig:
    """What a solver runs with; `run` picks the solver by ``algorithm``.

    ``masks`` is the asynchronous schedule of mixed iteration: a sequence
    of rows (pair_mask, state_mask), two 1-D boolean arrays with one entry
    per pair and per state.  Row k mod len(masks) picks the coordinates
    that iteration k updates (`ftheta.masked_update`), so a cycle is
    len(masks) iterations.  The rows are frozen into a tuple here, and an
    empty schedule or a row that is not two 1-D boolean arrays is
    refused; `mixed_vpi` checks their lengths against the model and that
    together they cover every pair and every state.
    """

    algorithm: str = "mixed"
    J0: np.ndarray | None = None
    Q0: np.ndarray | None = None
    nk: int | tuple[int, ...] | str = 10       # power count per iteration, or "exact"
    epsilon: float = 0.0
    bstrategy: BStrategy = field(default_factory=FullB)
    clamp_lo: np.ndarray | None = None
    clamp_hi: np.ndarray | None = None
    masks: Sequence[tuple[np.ndarray, np.ndarray]] | None = None
    max_iter: int = 1000
    tol: float = 1e-9
    ground_truth: tuple[np.ndarray, np.ndarray | None] | None = None
    initial_policy: Policy | None = None
    stop_on_tol: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
        if not _is_count(self.max_iter):
            raise ValueError(f"max_iter must be an integer >= 1: got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if _is_count(self.nk):
            object.__setattr__(self, "nk", int(self.nk))
        elif not (isinstance(self.nk, str) and self.nk == "exact"):
            sequence = (isinstance(self.nk, (list, tuple, range))
                        or isinstance(self.nk, np.ndarray) and self.nk.ndim == 1)
            entries = tuple(self.nk) if sequence else ()
            if not entries or not all(map(_is_count, entries)):
                raise ValueError("nk must be an integer >= 1, a non-empty sequence of "
                                 f"them, or 'exact': got {self.nk!r}")
            object.__setattr__(self, "nk", tuple(int(v) for v in entries))
        if self.nk == "exact" and self.algorithm == "mpi":
            raise ValueError("modified policy iteration needs a finite nk")
        if self.masks is not None:
            object.__setattr__(self, "masks", _mask_rows(self.masks))
        if self.nk == "exact" and self.masks is not None:
            raise ValueError("mask schedules need a finite nk")
        if self.algorithm == "lp" and (self.masks is not None or self.epsilon > 0.0):
            raise ValueError("the lp variant takes no mask schedule and no epsilon > 0")
        if self.algorithm in ("vi", "pi", "mpi"):
            given = {"mask schedule": self.masks is not None,
                     "epsilon > 0": self.epsilon > 0.0,
                     "clamp_lo": self.clamp_lo is not None,
                     "clamp_hi": self.clamp_hi is not None,
                     "B strategy but FullB": not isinstance(self.bstrategy, FullB)}
            unread = [name for name, is_set in given.items() if is_set]
            if unread:
                raise ValueError(f"{_NAMES[self.algorithm]} takes no {', no '.join(unread)}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")
        for name in ("clamp_lo", "clamp_hi"):
            bound = getattr(self, name)
            if bound is not None and np.isnan(np.asarray(bound, dtype=float)).any():
                raise ValueError(f"{name} must not be NaN")
        if self.clamp_lo is not None and self.clamp_hi is not None:
            lo = np.asarray(self.clamp_lo, dtype=float)
            hi = np.asarray(self.clamp_hi, dtype=float)
            if (lo > hi).any():
                raise ValueError("clamp_lo must not exceed clamp_hi")

    def nk_at(self, k: int) -> int | str:
        if self.nk == "exact":
            return "exact"
        if isinstance(self.nk, int):
            return self.nk
        return self.nk[min(k, len(self.nk) - 1)]

    def echo(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "nk": self.nk if isinstance(self.nk, (int, str)) else list(self.nk),
            "epsilon": self.epsilon,
            "bstrategy": repr(self.bstrategy),
            "max_iter": self.max_iter,
            "tol": self.tol,
            "masks": self.masks is not None,
            "clamped": self.clamp_lo is not None or self.clamp_hi is not None,
        }


@dataclass
class SolveResult:
    """What every solver returns.

    ``termination`` is "converged" (the stop rule met), "cap"
    (iteration cap reached), or for policy iteration "optimal-certified",
    "stuck" or "cycle".  The stop rule of value iteration, optimistic
    policy iteration and the unmasked mixed loop in D is the bracket
    (`_bracket_stop`): ``J`` is then the bracket's upper end, at or
    above J* and within ``error_bound`` <= tol of it (exact arithmetic
    plus the stated rounding allowance, not a sound mode), a mixed
    run's ``Q`` is H of it, and the ``policy`` of optimistic policy
    iteration (greedy for the row's J) and of the mixed loop (greedy
    for that Q) costs at most ``J``.  Every other run, and a bracketed
    row whose tol is below what its allowance can certify, stops on a
    residual within tol, and its ``error_bound`` is None.  ``Q`` is set
    by the mixed and constraint-program methods, ``divergent`` by value
    iteration, and ``values``/``policies`` (every evaluated value and
    every policy, in order) by policy iteration, whose ``J`` and
    ``policy`` are the last evaluated ones.  ``divergent`` holds the
    states value iteration pinned at the regime-signed infinity from its
    first row: where J* is infinite, as the model's graph decides it
    (`TotalCostModel.infinite_optimum`), or none when its start bounds
    J*, whose iterates then keep J*'s infinities themselves.
    """

    J: np.ndarray
    trace: IterationTrace
    termination: str
    Q: np.ndarray | None = None
    policy: Policy | None = None
    divergent: frozenset[int] = frozenset()
    values: Sequence[np.ndarray] = ()
    policies: Sequence[Policy] = ()
    error_bound: float | None = None

    @property
    def converged(self) -> bool:
        return self.termination in ("converged", "optimal-certified", "stuck")


_NAMES = {"vi": "value iteration", "pi": "policy iteration",
          "mpi": "modified policy iteration", "mixed": "mixed iteration",
          "lp": "constraint-program iteration"}


def _truth(values, name: str, size: int) -> np.ndarray:
    """Ground truth as a float vector of ``size`` entries; ValueError
    naming both shapes otherwise."""
    star = np.asarray(values, dtype=float)
    if star.shape != (size,):
        raise ValueError(f"ground truth {name} has shape {star.shape}, "
                         f"the model wants {(size,)}")
    return star


# Rows whose ground-truth columns wait for one stacked fill.  Held memory
# between fills is at most this many J (and Q) iterates.
_BLOCK = 256


class _Recorder:
    """The trace bookkeeping every solver shares.

    Builds the trace header from the start (J0, Q0), keeps the ground
    truth and the wall clock, records each row with its time, and ends
    the run.  ``rate`` records the start's distance to ground truth
    (dist0) and ``sandwich`` whether the start dominates it
    (initial_dominance); each start vector counts only when its ground
    truth is known, and dominance only when all of them do.  A solver
    that records iterates names them with their column ranges in
    ``iterates``, and writes each row's into `block_row` before
    recording the row; it gives a row's policy and B text by their
    `code`, which the mixed loop takes once per Theta.

    A row appends its values to the trace's columns, and the recorder
    holds its J (and Q, and the envelope the mixed loop gives in N and
    P) by reference until `_fill`, every `_BLOCK` rows and in `finish`,
    appends the held rows' columns from one stacked `sup_dist`/
    `margin_leq` pass each: upper_margin = max(J_k - T^k(J0)) against
    the envelope, and the ground-truth columns (dist_J, lower_margin
    and, with Q, dist_Q, q_lower_margin).  So a solver never writes into
    an iterate or an envelope after recording it, does not read its own
    trace's rows while it runs, and gives policy, b_set and the
    envelope on every row or on none.  Ground truth of the wrong shape
    is refused here, before the first row.
    """

    def __init__(self, algorithm: str, model: TotalCostModel, config: SolverConfig,
                 J0=None, Q0=None, rate: bool = True, sandwich: bool = False,
                 iterates: tuple[tuple[str, int, int], ...] = ()):
        self.config = config
        self.Jstar = self.Qstar = None
        if config.ground_truth is not None:
            Jstar, Qstar = config.ground_truth
            self.Jstar = _truth(Jstar, "Jstar", model.num_states)
            if Qstar is not None:
                self.Qstar = _truth(Qstar, "Qstar", model.num_pairs())
        J0 = None if J0 is None else np.array(J0, dtype=float)
        Q0 = None if Q0 is None else np.array(Q0, dtype=float)
        self.columns = TraceColumns(iterates)
        self.trace = IterationTrace(
            algorithm=algorithm, regime=model.regime, discount=model.discount,
            config=config.echo(), J0=J0, Q0=Q0,
            ground_truth_known=self.Jstar is not None, columns=self.columns)
        if self.Jstar is not None and J0 is not None:
            starts = [(self.Jstar, J0)]
            if Q0 is not None:
                starts.append((self.Qstar, Q0))
            known = [(star, v) for star, v in starts if star is not None]
            if rate:
                self.trace.dist0 = max(sup_dist(v, star) for star, v in known)
            if sandwich and len(known) == len(starts):
                self.trace.initial_dominance = all(
                    margin_leq(star, v) <= 0.0 for star, v in known)
        lists = self.columns.lists
        self._k, self._residual = lists["k"], lists["residual"]
        self._wall_time, self._extra = lists["wall_time"], lists["extra"]
        self._policy, self._b_set = lists["policy"], lists["b_set"]
        self.code = self.columns.code
        self._held_J: list[np.ndarray] = []
        self._held_Q: list[np.ndarray] = []
        self._held_envelope: list[np.ndarray] = []
        self._start = perf_counter()

    def block_row(self) -> np.ndarray:
        """The row of the trace's block that the next row records."""
        i = len(self._k)
        if i == len(self.columns.block):
            self.columns.reserve(i + 1)
        return self.columns.block[i]

    def row(self, k: int, residual: float, J: np.ndarray, Q: np.ndarray | None = None,
            policy: int | None = None, b_set: int | None = None,
            envelope: np.ndarray | None = None, extra: dict | None = None) -> None:
        """Record row k, which follows the last row's k, with the codes
        of its policy and B text.  With ground truth or an envelope, J
        (and Q, and the envelope) are held by reference until the row's
        columns are filled: the caller never writes into them
        afterwards."""
        self._k.append(k)
        self._residual.append(residual)
        self._wall_time.append(perf_counter() - self._start)
        if policy is not None:
            self._policy.append(policy)
        if b_set is not None:
            self._b_set.append(b_set)
        self._extra.append({} if extra is None else extra)
        if envelope is not None:
            self._held_envelope.append(envelope)
        elif self.Jstar is None:
            return
        self._held_J.append(J)
        if Q is not None and self.Qstar is not None:
            self._held_Q.append(Q)
        if len(self._held_J) >= _BLOCK:
            self._fill()

    def _fill(self) -> None:
        """The held rows' upper_margin and ground-truth columns, from one
        row-wise pass of each kernel over their stacked iterates."""
        if not self._held_J:
            return
        lists = self.columns.lists
        stack = np.array(self._held_J)
        if self._held_envelope:
            envelopes = np.array(self._held_envelope)
            lists["upper_margin"] += margin_leq(stack, envelopes).tolist()
        if self.Jstar is not None:
            lists["dist_J"] += sup_dist(stack, self.Jstar).tolist()
            lists["lower_margin"] += margin_leq(self.Jstar, stack).tolist()
        if self._held_Q:
            stack = np.array(self._held_Q)
            lists["dist_Q"] += sup_dist(stack, self.Qstar).tolist()
            lists["q_lower_margin"] += margin_leq(self.Qstar, stack).tolist()
        for held in (self._held_J, self._held_Q, self._held_envelope):
            held.clear()

    def finish(self, termination: str, J: np.ndarray, bound: str | None = None,
               **fields) -> SolveResult:
        """The run's SolveResult, holding its own copies of the final J
        and Q: the trace's rows may hold the very arrays, and a caller
        that edits its result must not edit them.  An ``error_bound``
        among the fields that is set goes into the trace's config too.
        At the cap of a run that was meant to stop on the tolerance,
        raise SolverCapError carrying it instead; ``bound`` says which
        side of the answer the last iterate bounds."""
        self._fill()
        if fields.get("Q") is not None:
            fields["Q"] = fields["Q"].copy()
        if fields.get("error_bound") is not None:
            self.trace.config["error_bound"] = fields["error_bound"]
        result = SolveResult(J=J.copy(), trace=self.trace, termination=termination,
                             **fields)
        config = self.config
        if termination == "cap" and config.stop_on_tol:
            raise SolverCapError(
                f"{_NAMES[self.trace.algorithm]} hit the {config.max_iter}-iteration cap "
                f"(residual {self.trace.final_residual:g})",
                last=result.J if result.Q is None else (result.J, result.Q),
                trace=self.trace, bound=bound, result=result)
        return result


# ---------------------------------------------------------------------------
# The discounted stop
#
# With alpha < 1 and finite costs, every J brackets J*: with d = T(J) - J
# and c = alpha / (1 - alpha),
#
#     T(J) + c min(d) <= J* <= T(J) + c max(d)   elementwise
#
# (MacQueen 1966, Porteus 1971; Puterman 1994, section 6.6.3).  A finite
# row of value iteration, optimistic policy iteration or the unmasked
# mixed loop stops once the gap c span(d) plus a rounding allowance rho
# meets tol, and returns the upper end U = T(J) + c max(d).  U is within
# the gap of J*, and it is a supersolution, T(U) <= U: so U >= J*, and
# a policy greedy for U, or for J, costs at most U.  Its residual
# T(U) - U has one sign.  The midpoint, within half the gap, has a
# residual of both signs at about alpha span(d) / 2, the scale of the
# stop-rule engine's switching slack (`chains._stop_rule_iteration`),
# and a stopping problem built on it priced up to 8 rules where U needs
# 2.  The bound holds in exact arithmetic plus the allowance: it is
# derived from the row, not a fixed slack, and it is not a sound mode,
# since the floats of T(J) are not rounded outward.
#
# The gap's own floats carry up to about 2 rho of rounding, so the
# bracket may never meet a tol below 3 rho.  A row whose residual stop
# is met while 3 rho > tol therefore stops on its residual, as the run
# would off the finite path, and reports no error bound: a tol that
# the residual reaches is never turned into a cap.

# The unit roundoff of a double.
_U = 2.0 ** -53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): m roundings each of relative
    error at most u compound to at most gamma_m (Higham 2002, Accuracy
    and Stability of Numerical Algorithms, section 3.1)."""
    return m * _U / (1.0 - m * _U)


def _brackets(model: TotalCostModel, config: SolverConfig) -> bool:
    """Whether a solve's rows on the finite path stop on `_bracket_stop`:
    it stops on tol, in D with a discount below 1, finite pair costs and
    no mask schedule.  Every other row stops on its residual."""
    return (config.stop_on_tol and model.regime == "D" and 0.0 <= model.discount < 1.0
            and model.pair_costs_finite and config.masks is None)


def _bracket_stop(model: TotalCostModel, TJ: np.ndarray, J: np.ndarray, lo: float,
                  hi: float, settled: bool, tol: float
                  ) -> tuple[np.ndarray, float] | tuple[None, None] | None:
    """How a row on the finite path stops: (U, bound) on the bracket,
    (None, None) on its residual, or None when it goes on.

    TJ and J are T(J) and J of the row, lo, hi = min(d), max(d) of
    d = T(J) - J, and ``settled`` says whether the row meets its
    residual stop.  The rounding allowance

        rho = (1 + c) gamma_{m+4} G + c gamma_16 max|d|,

    m = `max_successors` and G = the largest |g| + alpha |P| |J| over
    the pairs, is one more product, taken only on a row whose gap
    c (hi - lo) meets tol or that is settled.  The first term is
    Higham's bound on the backup that formed T(J) (m products and sums,
    alpha's product, g's sum) carried through the bracket's 1 + c, with
    one rounding more for the add that forms U and one for rho's own
    sums.  The second covers the rounding of d, of c, of the gap (at
    most 2 c max|d|) and of the shift c max(d).  The row stops on the
    bracket when gap + rho, the error bound, meets tol, and on its
    residual when it is settled and 3 rho > tol.  A NaN or an infinity
    in d gives a NaN or infinite gap, and no bracket stop.
    """
    alpha = model.discount
    c = alpha / (1.0 - alpha)
    gap = c * (hi - lo)
    if not (gap <= tol or settled):
        return None
    with np.errstate(over="ignore"):  # an infinite G is no bracket stop
        G = float(np.maximum.reduce(np.abs(model.pair_costs) + alpha
                                    * (np.abs(model.pair_probs) @ np.abs(J))))
    rho = ((1.0 + c) * _gamma(model.max_successors + 4) * G
           + c * _gamma(16) * max(abs(lo), abs(hi)))
    if gap + rho <= tol:
        return TJ + c * hi, gap + rho
    if settled and not 3.0 * rho <= tol:
        return None, None
    return None


def _extremes(d: np.ndarray) -> tuple[float, float]:
    """min(d) and max(d), NaN when d holds one."""
    return float(np.minimum.reduce(d)), float(np.maximum.reduce(d))


# ---------------------------------------------------------------------------
# Value iteration

# Infinities in the undiscounted regimes.  There J* may be the
# regime-signed infinity, which no finite number of rows reaches from a
# finite start.  The model's graph decides where (`chains.infinite_optimum`,
# cached on the model), and a run pins those states from its first row,
# unless its start bounds J* so that its own iterates keep J*'s
# infinities: in P a J0 >= 0 with T(J0) <= J0 (then J* <= T^k(J0), so
# T^k(J0) is +inf wherever J* is), in N a J0 <= 0 with T(J0) >= J0 (then
# T^k(J0) <= J*, so T^k(J0) is -inf wherever J* is).  T(J0) is value
# iteration's first row and the mixed loop's first envelope step, so the
# test costs no backup of its own.


def _bounds_optimum(regime: str, J0: np.ndarray, TJ0: np.ndarray) -> bool:
    """Whether J0, with TJ0 = T(J0), bounds J* so that its iterates keep
    J*'s infinities themselves; a NaN entry fails the test."""
    if regime == "P":
        return bool((J0 >= 0.0).all() and (TJ0 <= J0).all())
    return bool((J0 <= 0.0).all() and (TJ0 >= J0).all())


def _pinned(model: TotalCostModel, J0: np.ndarray, TJ0: np.ndarray) -> np.ndarray | None:
    """The states an undiscounted run pins at the regime-signed infinity
    from its start J0 with T(J0) = TJ0, or None when it pins none."""
    if model.regime == "D" or _bounds_optimum(model.regime, J0, TJ0):
        return None
    infinite = model.infinite_optimum
    return infinite if np.count_nonzero(infinite) else None


def value_iteration(model: TotalCostModel, J0: np.ndarray,
                    config: SolverConfig | None = None) -> SolveResult:
    """Iterate the optimal-cost backup from J0.

    An undiscounted run reads T(J0) off its first row.  Unless J0
    bounds J* (`_bounds_optimum`), it pins the states where J* is the
    regime-signed infinity (`TotalCostModel.infinite_optimum`, decided
    on the model's graph) from that row on and reports them as
    ``divergent``.  On an atomic-only model the pin is written into
    every iterate, and the residual is taken over every state: the
    pins' own move makes row 1's residual infinite unless J0 held them
    already.
    On a model with affine families the iteration goes on over the
    finite values, so that continuum infima see the true finite iterates
    (the gap of FX-P3a from zero), each row reports a pinned copy, and
    from row 2 on the residual is taken over the states not pinned.  A discounted
    run stops on the residual only off the finite path; a finite row
    stops on the bracket of T(J) (`_bracket_stop`), from the min and max
    of its increment T(J) - J, and the run returns the bracket's upper
    end with its error bound; where tol is below what the row's rounding
    allowance can certify, it stops on the residual after all, with no
    bound.  The end is T(J) plus a constant, so its greedy policy is
    that of T(J).

    Each row records the iterate itself, which holds the pins of an
    atomic-only model, or the pinned copy; each backup is a fresh
    array.  Every row shares one ``extra`` dict, its direction and
    ``divergent`` list set on row 1, and nothing writes into it.

    Finiteness is decided once per solve and carried in the residuals.
    The run starts finite when the model is atomic-only and its pair
    costs and J0 are finite, no infinity and no NaN (`operators._finite`,
    one scan).  A finite row backs up with the plain product P @ J
    (`_bellman_T`) and forms its increment T(J) - J once, with the plain
    difference and no scan: the maximum of its absolute value is the
    row's residual.  A discounted row takes the increment's min and max
    instead, and its residual is max(|min|, |max|), the same float; it
    forms no absolute value.  This is bit for bit what the checked
    kernels give: `expect_rows` takes this same product for a J without
    infinity, and against a finite J the plain difference is `xdiff`'s
    after the absolute value, whatever T(J) holds.  A finite residual
    from a finite J means a finite T(J) and a finite increment: an
    infinity in T(J) gives an infinite residual and a NaN a NaN one.  So
    the run stays finite while ``res < inf``, and drops to the checked
    path (`sup_dist`) for the rest of the solve on an infinite or NaN
    residual, or when it pins a state.
    """
    check_admits("vi", model)
    config = config or SolverConfig(algorithm="vi")
    J = _state_vector(model, J0).copy()
    rec = _Recorder("vi", model, config, J0=J, sandwich=True)
    sign = -1.0 if model.regime == "N" else 1.0
    pinned: np.ndarray | None = None  # the states pinned at infinity, if any
    divergent_states: list[int] = []
    live = slice(None)  # the states the residual reads from row 2 on
    pin = model.atomic_only
    finite = pin and _finite(model, J)
    bracket = _brackets(model, config)
    direction: str | None = None
    for k in range(1, config.max_iter + 1):
        nxt = _bellman_T(model, J, finite)
        rec.trace.op_count += 1
        if finite:
            inc = np.subtract(nxt, J)
            if not bracket:
                res = float(np.maximum.reduce(np.abs(inc, out=inc)))
            else:
                lo, hi = _extremes(inc)
                res = max(abs(lo), abs(hi))
        if k == 1:
            pinned = _pinned(model, J, nxt)
            if pinned is not None:
                divergent_states = np.flatnonzero(pinned).tolist()
                finite = False
                if not pin:
                    live = ~pinned
        if pinned is not None:
            if pin:
                nxt[pinned] = sign * INF
            # row 1's residual shows the pins' own move
            res = sup_dist(nxt, J) if k == 1 else sup_dist(nxt[live], J[live])
        elif not finite:
            res = sup_dist(nxt, J)
        finite = finite and res < INF
        if k == 1:
            if margin_leq(nxt, J) <= 0.0:
                direction = "nonincreasing"
            elif margin_leq(J, nxt) <= 0.0:
                direction = "nondecreasing"
            extra = {"direction": direction, "divergent": divergent_states}
        prev = J
        J = reported = nxt
        if pinned is not None and not pin:
            reported = J.copy()
            reported[pinned] = sign * INF
        rec.row(k, res, reported, extra=extra)
        if bracket and finite:
            stop = _bracket_stop(model, J, prev, lo, hi, res <= config.tol, config.tol)
            if stop is not None:
                U, bound = stop
                return rec.finish("converged", J if U is None else U, error_bound=bound)
        elif config.stop_on_tol and res <= config.tol:
            return rec.finish("converged", reported, divergent=frozenset(divergent_states))
    bound = {"nondecreasing": "lower", "nonincreasing": "upper"}.get(direction or "")
    return rec.finish("cap", reported, bound, divergent=frozenset(divergent_states))


# ---------------------------------------------------------------------------
# Policy iteration and modified policy iteration


def policy_iteration(model: TotalCostModel, mu0: Policy,
                     config: SolverConfig | None = None) -> SolveResult:
    """Exact policy iteration with greedy improvement.

    Terminates "stuck" when the current policy's backup already attains
    the optimal backup at its own value function (within 1e-12); this is
    a fixed point of the scheme but not necessarily optimal.  With
    ground truth supplied, a stuck point matching it upgrades the reason
    to "optimal-certified".  Policy cycles are detected exactly through
    the full history of deterministic policies.

    Each iteration backs up its value J once: H = `h_backup(model, J)`,
    and T(J), T_mu(J) and the next greedy policy are read off H (the
    segment minimum `_segment_min`, the policy's mix `policy_mix` and
    the kernel `_greedy_select`), bit for bit what `bellman_T`,
    `bellman_T_mu` and `greedy_select` of a fresh backup each give on
    an atomic-only model.  The op count still grows by 2 for T and T_mu
    and by 1 for the improvement: it counts the paper's operators, not
    backups.
    """
    check_admits("pi", model)
    config = config or SolverConfig(algorithm="pi")
    rec = _Recorder("pi", model, config)
    mu = mu0
    policies = [mu]
    values: list[np.ndarray] = []
    seen: dict[str, int] = {}

    def result(termination: str) -> SolveResult:
        return rec.finish(termination, values[-1], policy=policies[len(values) - 1],
                          values=values, policies=policies)

    prev_J: np.ndarray | None = None
    for k in range(1, config.max_iter + 1):
        J = evaluate_policy(model, mu).J
        values.append(J)
        H = h_backup(model, J)
        TJ = _segment_min(model, H)
        TmuJ = policy_mix(model, mu, H)
        rec.trace.op_count += 2
        gap = sup_dist(TmuJ, TJ)
        res = sup_dist(J, prev_J) if prev_J is not None else INF
        prev_J = J
        key = mu.descriptor()
        rec.row(k, res, J, policy=rec.code(key), extra={"improvement_gap": gap})
        if gap <= 1e-12:
            if rec.Jstar is not None and sup_dist(J, rec.Jstar) <= config.tol:
                return result("optimal-certified")
            return result("stuck")
        if key in seen:
            return result("cycle")
        seen[key] = k
        mu = _greedy_select(model, H, 0.0, None, None)
        rec.trace.op_count += 1
        policies.append(mu)
    return result("cap")


def modified_policy_iteration(model: TotalCostModel, mu0: Policy, J0: np.ndarray,
                              config: SolverConfig | None = None) -> SolveResult:
    """Optimistic policy iteration: nk fixed-policy backups per round,
    then exact greedy improvement.

    The nk backups T_mu^nk and the Q backup H that follows them are one
    power (`t_mu_power_and_h`): the policy's layout is checked and the
    finite path chosen once per round, not once per backup, and the
    trace's op count still grows by nk + 1.

    The rest of a round calls the kernels behind the public entries:
    M(Q) is `_segment_min`, the residual `_sup_dist` and the selection
    `_greedy_select` with ``keep=mu``.  Finiteness is carried in the
    residual of J_greedy = M(Q), as in `value_iteration`: the first
    J_greedy is scanned once, and a later one is finite (no infinity,
    no NaN) while the last one was and the residual between them is
    below +inf, since an infinity in J_greedy gives an infinite residual
    and a NaN a NaN one.  Against a finite last J_greedy the residual is
    the plain max |a - b|, `sup_dist`'s floats bit for bit.  A finite
    J_greedy also means a Q without NaN (the segment minimum carries a
    NaN into it), so the selection skips its NaN check; the residual is
    therefore taken before the selection, which neither reads nor
    changes it.  A J_greedy says nothing about the evaluation iterate
    J that starts the next power, so `t_mu_power_and_h` still scans it
    once per round.

    In D, J_greedy = M(H(J)) is T(J) of the evaluation iterate J, so a
    row on the finite path (every J_greedy so far finite, and finite
    costs) stops on the bracket of d = J_greedy - J (`_bracket_stop`)
    instead of the residual, and the run returns the bracket's upper end
    J_greedy + c max(d) with its error bound and the row's policy, which
    is greedy for J and so costs at most that end.  Where tol is below
    what the row's rounding allowance can certify, it stops on the
    residual after all, with no bound.

    Each row records the evaluation iterate and the improvement-time
    value M(h_backup(J)) as ``J_eval``/``J_greedy``, copied into a row of
    the trace's block; for nonnegative-cost runs with ground truth the
    initial-condition flags T_mu0(J0) <= J0 and J0 <= c Jstar are recorded
    in the header.  A J0 of another shape than the model's states is
    refused before the first round.
    """
    check_admits("mpi", model)
    config = config or SolverConfig(algorithm="mpi", nk=10)
    J = _state_vector(model, J0).copy()
    mu = mu0
    n = model.num_states
    rec = _Recorder("mpi", model, config, J0=J, rate=False,
                    iterates=((J_EVAL, 0, n), (J_GREEDY, n, 2 * n)))
    if model.regime == "P":
        flags = {"superharmonic_start": bool(
            margin_leq(bellman_T_mu(model, mu0, J), J) <= 1e-12)}
        if rec.Jstar is not None:
            flags["cone_c"] = cone_multiplier(J, rec.Jstar)
        rec.trace.config["initial_flags"] = flags
    prev_greedy: np.ndarray | None = None
    finite = False  # whether prev_greedy holds no infinity and no NaN
    bracket = _brackets(model, config)
    for k in range(1, config.max_iter + 1):
        nk = int(config.nk_at(k - 1))
        J, Q = t_mu_power_and_h(model, mu, J, nk)
        rec.trace.op_count += nk + 1
        J_greedy = _segment_min(model, Q)
        recorded = rec.block_row()
        recorded[:n], recorded[n:] = J, J_greedy
        if prev_greedy is None:
            res = INF
            finite = np.count_nonzero(np.isfinite(J_greedy)) == J_greedy.size
        else:
            res = (_sup_dist(J_greedy, prev_greedy, True) if finite
                   else sup_dist(J_greedy, prev_greedy))
            finite = finite and res < INF
        mu = _greedy_select(model, Q, 0.0, None, mu, finite)
        prev_greedy = J_greedy
        rec.row(k, res, J_greedy, policy=rec.code(mu.descriptor()))
        if bracket and finite:
            stop = _bracket_stop(model, J_greedy, J, *_extremes(J_greedy - J),
                                 res <= config.tol, config.tol)
            if stop is not None:
                U, bound = stop
                return rec.finish("converged", J_greedy if U is None else U, policy=mu,
                                  error_bound=bound)
        elif config.stop_on_tol and res <= config.tol:
            return rec.finish("converged", J_greedy, policy=mu)
    return rec.finish("cap", J_greedy, policy=mu)


# ---------------------------------------------------------------------------
# Mixed value-and-policy iteration


def mixed_vpi(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Mixed value-and-policy iteration (`_mixed_loop`) whose Q-update is
    nk powers of the parametrized evaluation operator, their asynchronous
    masked form under a mask schedule, or the exact fixed point
    (``nk="exact"``).  A mask schedule (`SolverConfig`) is refused before
    the first row if a row's lengths do not fit the model or if its rows
    together leave out a pair or a state (`_check_schedule`).
    ``extra["powers"]`` counts the applications that ran (fewer than nk
    once a power repeats; the count `f_theta_power` returns).  In N
    and P, ``upper_margin`` is the margin against the value-iteration
    envelope T^k(J0); in D it is None.  J_k <= T^k(J0) is a guarantee
    of the unmasked iteration only, so `verify_certificates` checks it
    on unmasked traces alone.  Each row records J_k and Q_k as
    ``J_snapshot``/``Q_snapshot``.
    """
    check_admits("mixed", model)
    if config.masks is not None:
        _check_schedule(model, config.masks)
    update = (_masked_update if config.masks is not None
              else _exact_update if config.nk == "exact" else _power_update)
    return _mixed_loop(model, config, "mixed", update)


def _check_schedule(model: TotalCostModel, masks) -> None:
    """Refuse mask rows whose lengths do not fit the model, and a schedule
    whose rows together leave out a pair or a state, named by its
    `pair_labels` entry or state name: the asynchronous iteration
    converges only if every coordinate is updated in each cycle, and one
    that never is would end "converged" at its start value."""
    for k, (pair_mask, state_mask) in enumerate(masks):
        try:
            _check_masks(model, pair_mask, state_mask)
        except ValueError as err:
            raise ValueError(f"mask row {k}: {err}") from None
    pairs = np.logical_or.reduce([row[0] for row in masks])
    if not pairs.all():
        missed = model.pair_labels[int(np.argmin(pairs))]
        raise ValueError(f"the mask schedule never updates pair {missed}")
    states = np.logical_or.reduce([row[1] for row in masks])
    if not states.all():
        missed = model.state_names[int(np.argmin(states))]
        raise ValueError(f"the mask schedule never updates state {missed}")


def lp_variant_vpi(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Mixed iteration whose Q-update is the maximal solution of the
    stop/continue constraint program (an upper bound on the exact fixed
    point that stays below one operator application of itself).

    Each row verifies both defining inequalities, Q_{k+1} >= Q_fixed and
    Q_{k+1} <= F(Q_{k+1}; J_k), with margins in ``extra``.
    """
    check_admits("lp", model)
    return _mixed_loop(model, config, "lp", _program_update)


def _mixed_loop(model: TotalCostModel, config: SolverConfig, algorithm: str,
                update) -> SolveResult:
    """The loop of mixed and lp.  Per iteration: pick the policy (the
    initial one at k = 0, if given, else greedy from Q with the configured
    epsilon, reusing M(Q) when the last iteration took it, and keeping the
    policy and its Theta while the choice repeats), resolve B, and let
    ``update(model, config, k, nk, theta, Q, J, finite, J_next, Q_next,
    first)`` write Q_next and J_next and return (operator count, M(Q_next)
    or None when J_next is a masked update's own J, lp's row columns).
    J becomes the clamped J_next.  In D without a mask schedule, a row
    on the finite path stops on the bracket of its J (`_bracket_stop`),
    which holds for any J, clamped or epsilon-greedy ones too.  The
    bracket backs up H(J) once, not counted in the op count, into the
    next row's Q half, and T(J) = M(H(J)) into its J half: that row's
    power starts from this H when it reads J byte for byte, which every
    unclamped epsilon = 0 row does, signed zeros aside (``first``,
    `ftheta._f_theta_power`), and a power that stops there leaves
    M(Q_next) = T(J) made.  So a row whose iterates rise takes one
    backup and one minimum in all.  On a stop the row returns the upper
    end U, Q = H(U), the upper end H(T(J)) + alpha c max(d) of the Q*
    bracket, the policy greedy for that Q, which costs at most U, and
    the bound; one backup more.  Where tol is below what the row's
    rounding allowance can certify, the row keeps the residual stop
    below.  Every other run converges once
    max(res_J, res_Q) <= tol on each of the last rows of a whole cycle
    of the mask schedule (one row without masks): a masked
    row moves only the pairs and states its masks set, so a quiet row
    alone shows nothing about the others, while a whole cycle updates
    every one (`mixed_vpi` refuses a schedule that does not).  lp records
    no envelope, start dominance or snapshots, adds ``cone_margin``
    (max(J_k - c Jstar) for J0's cone multiplier c), and its capped
    iterate is a lower bound.  A J0, Q0, clamp_lo or clamp_hi of another
    shape than the model's states or pairs is refused before the first
    row.

    In N and P, mixed takes T(J0), the first step of its envelope
    T^k(J0), before the first row.  Unless J0 bounds J*
    (`_bounds_optimum`), it pins the states where J* is infinite
    (`TotalCostModel.infinite_optimum`) at the regime's infinity in J0,
    and in Q0 every pair that costs that infinity or steps to a pinned
    state with positive probability, where Q* = H(J*) is infinite too;
    the trace's header records this pinned start, from which the
    envelope then runs.  So a finite nk reaches J* = -inf.  lp does not
    pin: its constraint program refuses an infinite stop cost on B
    (`lp_upper_bound`), so a pinned run would refuse itself at its first
    row, where an unpinned one runs on to its cap, a lower bound.

    Each row's [J | Q] is one buffer of n + pairs floats, a row of the
    trace's block (mixed) or a fresh array (lp), and every update writes
    into its halves J_next and Q_next: the power its last backup into the
    Q half (`_f_theta_power`'s ``out``), M(Q) goes into the J half and the
    clamp runs there in place, and the masked, exact and lp updates copy
    their fresh results in.  The N/P envelope steps on the finite path
    while it holds no infinity and no NaN (`_bellman_T` with a flag,
    rescanned after each step until it fails), and the recorder fills
    each row's upper_margin against it by block.  Both residuals are
    then one pass over the buffer against the last row's
    (`sup_dist_segments`, each entry its half's `sup_dist` bit for bit).
    No later row writes into a row's buffer, and the result holds copies
    of its own.  What stays fixed
    for the solve is taken once: the clamp bounds as float arrays, an
    int nk, and the codes of the policy's and B's text once per Theta.

    Finiteness is decided once per solve and carried in the residuals.
    The run starts finite when the pair costs, J0 and Q0 are finite, no
    infinity and no NaN (`operators._finite`, one scan), and stays finite
    while both residuals of each row are finite: from a finite [J | Q], an
    infinity in the next one gives an infinite residual and a NaN a NaN
    one.  A finite row calls the kernels unchecked: greedy selection
    skips its NaN check (a finite Q holds none), the powers take the
    plain product without scanning w (`ftheta._f_theta_power`, whose
    NaN rerun after a multi-backup power stays), and the residuals are
    the plain max |[J | Q]_next - [J | Q]|.  Bit for bit, every checked
    kernel takes this same plain path from a finite previous iterate:
    `expect_rows` and `_backup_power`'s start check find no infinity in
    a w read off finite J and Q, `greedy_select`'s NaN check finds none,
    and against a finite [J | Q] the plain difference is `xdiff`'s after
    the absolute value.  An infinite or NaN residual drops the run to
    the checked kernels for the rest of the solve.
    """
    if config.J0 is None or config.Q0 is None:
        raise ValueError("config must provide J0 and Q0")
    lp = algorithm == "lp"
    n = model.num_states
    size = n + model.num_pairs()
    for name, given, length in (("J0", config.J0, n), ("Q0", config.Q0, size - n),
                                ("clamp_lo", config.clamp_lo, n),
                                ("clamp_hi", config.clamp_hi, n)):
        if given is not None and np.shape(given) != (length,):
            raise ValueError(f"{name} has shape {np.shape(given)}, "
                             f"the model wants {(length,)}")
    lo, hi = (None if bound is None else np.asarray(bound, dtype=float)
              for bound in (config.clamp_lo, config.clamp_hi))
    # [J | Q] of the current iterate, and its two halves
    JQ = np.concatenate((np.asarray(config.J0, dtype=float),
                         np.asarray(config.Q0, dtype=float)))
    J, Q = JQ[:n], JQ[n:]
    halves = np.array([0, n])
    envelope = (None if lp or model.regime == "D"
                else _bellman_T(model, J, _finite(model, J)))
    pinned = None if envelope is None else _pinned(model, J, envelope)
    if pinned is not None:
        infinity = -INF if model.regime == "N" else INF
        J[pinned] = infinity
        Q[(model.pair_probs[:, pinned] > 0.0).any(axis=1)
          | (model.pair_costs == infinity)] = infinity
        envelope = _bellman_T(model, J)
    # whether the envelope holds no infinity and no NaN, rescanned while it does
    envelope_finite = envelope is not None and _finite(model, envelope)
    finite = _finite(model, JQ)
    rec = _Recorder(algorithm, model, config, J0=J, Q0=Q, sandwich=not lp,
                    iterates=() if lp else ((J_SNAPSHOT, 0, n), (Q_SNAPSHOT, n, size)))
    c = None if not lp or rec.Jstar is None else cone_multiplier(J, rec.Jstar)
    # c * Jstar with 0 * inf = 0.  A finite c >= 0 meets an infinity of
    # Jstar as NaN only when c = 0 (J0 = 0 wherever Jstar is finite).
    cone = (None if c is None or not np.isfinite(c)
            else np.zeros(J.shape) if c == 0.0 else c * rec.Jstar)
    nk = config.nk if isinstance(config.nk, int) else None
    resolve, epsilon, tol = config.bstrategy.resolve, config.epsilon, config.tol
    policy = config.initial_policy
    theta = policy_code = b_code = None
    qmin = None  # M(Q) of the current Q, when the last iteration computed it
    cycle = 1 if config.masks is None else len(config.masks)
    quiet = 0  # rows in a row with max(res_J, res_Q) <= tol
    bracket = _brackets(model, config)
    # The next row's [J | Q] buffer and H(J) in its Q half, when the bracket
    # wrote them (with T(J) in its J half)
    nxt = first = None
    for k in range(config.max_iter):
        if k > 0 or policy is None:
            policy = _greedy_select(model, Q, epsilon, qmin, policy, finite)
        B = resolve(model, policy, k)
        # Greedy selection hands back the policy it kept, and a B strategy
        # its last B, so a run builds (and describes) one Theta per
        # distinct policy and B.
        if theta is None or theta.policy is not policy or theta.B is not B:
            theta = Theta(policy, B)
            policy_code = rec.code(policy.descriptor())
            b_code = rec.code(_describe_b(theta.B, n))
        if nxt is None:
            nxt = np.empty(size) if lp else rec.block_row()
        J_next, Q_next = nxt[:n], nxt[n:]
        ops, qmin, columns = update(model, config, k, config.nk_at(k) if nk is None else nk,
                                    theta, Q, J, finite, J_next, Q_next, first)
        rec.trace.op_count += ops
        if lo is not None or hi is not None:
            qmin = None if qmin is None else qmin.copy()
            _clamp(J_next, lo, hi, J_next)
        res_J, res_Q = (_sup_dist_segments(nxt, JQ, halves, True) if finite
                        else sup_dist_segments(nxt, JQ, halves)).tolist()
        finite = finite and res_J < INF and res_Q < INF
        JQ, J, Q = nxt, J_next, Q_next
        nxt = first = None
        if envelope is not None and k:
            envelope = _bellman_T(model, envelope, envelope_finite)
            envelope_finite = envelope_finite and _finite(model, envelope)
        if lp:
            extra = {"residual_Q": res_Q, **columns,
                     "cone_margin": None if cone is None else margin_leq(J, cone)}
        else:
            extra = {"residual_Q": res_Q, "powers": ops}
        rec.row(k + 1, res_J, J, Q, policy=policy_code, b_set=b_code, envelope=envelope,
                extra=extra)
        if bracket and finite:
            # H(J) and T(J) = M(H(J)) go into the next row's buffer, whose
            # power starts from that H when it reads J
            nxt = np.empty(size) if lp else rec.block_row()
            first = _plain_backup(model, J, nxt[n:])
            TJ = _segment_min(model, first, nxt[:n])
            stop = _bracket_stop(model, TJ, J, *_extremes(TJ - J), max(res_J, res_Q) <= tol,
                                 tol)
            if stop is not None:
                U, bound = stop
                if U is None:
                    return rec.finish("converged", J, Q=Q, policy=policy)
                Q = h_backup(model, U)
                return rec.finish("converged", U, Q=Q, policy=_greedy_select(
                    model, Q, 0.0, None, policy, True), error_bound=bound)
        else:
            quiet = quiet + 1 if max(res_J, res_Q) <= tol else 0
            if config.stop_on_tol and quiet >= cycle:
                return rec.finish("converged", J, Q=Q, policy=policy)
    return rec.finish("cap", J, "lower" if lp else None, Q=Q, policy=policy)


# The Q-updates of `_mixed_loop`, called with the row's power count nk, the
# halves J_next, Q_next of its buffer and the bracket's H(J) (``first``,
# in Q_next's memory, or None).  Each writes Q_next and J_next and returns
# its operator count, M(Q_next) (J_next itself) or None when J_next is
# the masked update's own J, and lp's row columns.  The three of
# `mixed_vpi` have one row column, ``powers``: their operator count,
# which the loop writes itself, so they return None for the columns.


def _power_update(model, config, k, nk, theta, Q, J, finite, J_next, Q_next, first):
    Q_new, powers = _f_theta_power(model, theta, Q, J, nk, finite, Q_next, first)
    # a power that stopped at the bracket's H(J) finds M(H(J)) = T(J) in J_next
    qmin = J_next if Q_new is first else _segment_min(model, Q_next, J_next)
    return powers, qmin, None


def _masked_update(model, config, k, nk, theta, Q, J, finite, J_next, Q_next, first):
    pair_mask, state_mask = config.masks[k % len(config.masks)]
    Q_new, J_new, powers = _masked_power(model, theta, Q, J, pair_mask, state_mask,
                                         nk, finite)
    Q_next[...] = Q_new
    J_next[...] = J_new
    return powers, None, None


def _exact_update(model, config, k, nk, theta, Q, J, finite, J_next, Q_next, first):
    Q_fix, cert = q_fixed_point(model, theta, J)
    Q_next[...] = Q_fix
    return cert.iterations, _segment_min(model, Q_next, J_next), None


def _program_update(model, config, k, nk, theta, Q, J, finite, J_next, Q_next, first):
    bound = lp_upper_bound(model, theta, J)
    Q_fix, cert = q_fixed_point(model, theta, J)
    Q_next[...] = bound.Qbar
    columns = {"ineq_lower_margin": margin_leq(Q_fix, bound.Qbar),   # <= 0: above Q_fix
               "ineq_upper_margin": bound.certificate.upper_margin}  # >= 0: below F
    return (cert.iterations + bound.certificate.iterations,
            _segment_min(model, Q_next, J_next), columns)


def _clamp(J: np.ndarray, lo: np.ndarray | None, hi: np.ndarray | None,
           out: np.ndarray) -> None:
    """max(min(J, hi), lo), a bound that is None left out, written into
    ``out`` (which may be J itself)."""
    if hi is not None:
        np.minimum(J, hi, out=out)
    elif J is not out:
        out[...] = J
    if lo is not None:
        np.maximum(out, lo, out=out)


def _describe_b(B: frozenset[int], n: int) -> str:
    if len(B) == n:
        return "S"
    if not B:
        return "{}"
    return "{" + ",".join(str(x) for x in sorted(B)) + "}"


def round_robin_masks(model: TotalCostModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Singleton asynchronous masks cycling through every pair and state:
    max(num_pairs, num_states) rows of boolean (pair_mask, state_mask),
    row k setting pair k mod num_pairs and state k mod num_states."""
    p, n = model.num_pairs(), model.num_states
    k = np.arange(max(p, n))[:, None]
    return list(zip(np.arange(p) == k % p, np.arange(n) == k % n))


# ---------------------------------------------------------------------------
# Front door


def run(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Run ``config.algorithm`` on the model.

    vi and mpi start from ``config.J0``, pi and mpi from
    ``config.initial_policy``; mixed and lp read everything they need
    from the config.  Each solver refuses a model that `check_admits`
    does not admit.  The solvers are looked up by name on every call, so
    a caller that rebinds one (a tracer, a test double) sees it used.
    """
    algorithm = config.algorithm
    if algorithm in ("vi", "mpi") and config.J0 is None:
        raise ValueError(f"{algorithm} needs config.J0")
    if algorithm in ("pi", "mpi") and config.initial_policy is None:
        raise ValueError(f"{algorithm} needs config.initial_policy")
    if algorithm == "vi":
        return value_iteration(model, config.J0, config)
    if algorithm == "pi":
        return policy_iteration(model, config.initial_policy, config)
    if algorithm == "mpi":
        return modified_policy_iteration(model, config.initial_policy, config.J0, config)
    if algorithm == "mixed":
        return mixed_vpi(model, config)
    return lp_variant_vpi(model, config)


# ---------------------------------------------------------------------------
# Policy extraction


def extract_policy_discounted(model: TotalCostModel, Q: np.ndarray, epsilon: float,
                              delta: float | None = None, k: int | None = None
                              ) -> tuple[Policy, float | None]:
    """Epsilon-greedy policy from a Q iterate of a discounted run, with
    the a-priori suboptimality bound (2 alpha^k delta + epsilon)/(1 - alpha)
    when the initial distance delta and the iteration index k are known."""
    if model.regime != "D":
        raise ValueError("the a-priori extraction bound is for discounted models")
    policy = greedy_select(model, Q, epsilon=epsilon)
    bound = None
    if delta is not None and k is not None:
        bound = (2.0 * model.discount ** k * delta + epsilon) / (1.0 - model.discount)
    return policy, bound


# ---------------------------------------------------------------------------
# Certificate verification


def cone_multiplier(J: np.ndarray, Jstar: np.ndarray) -> float:
    """Smallest c >= 0 with J <= c * Jstar, infinity-aware.

    States with Jstar = 0 force J = 0 there; otherwise no finite c
    exists and the result is +inf.  States with infinite Jstar never
    constrain c, nor does a ratio J/Jstar that is NaN (an infinity over
    -inf, a NaN entry); c is the largest positive ratio, or 0.  The
    zero set is tested first, over every state, and the ratios are
    taken with floating-point warnings off.  So a zero-set violation
    gives +inf even where a loop over the states in order, with
    RuntimeWarning raised as an error, would stop at an earlier division
    that overflows or is invalid; this form never warns.
    """
    J = np.asarray(J, dtype=float)
    Jstar = np.asarray(Jstar, dtype=float)
    zero = Jstar == 0.0
    if np.count_nonzero(J[zero] != 0.0):
        return INF
    scaled = ~zero & (Jstar != INF)
    with np.errstate(all="ignore"):
        ratios = J[scaled] / Jstar[scaled]
    ratios = ratios[ratios > 0.0]
    return float(ratios.max()) if ratios.size else 0.0


def _cone_witness(J0: np.ndarray, Jstar: np.ndarray, c: float, nonneg: bool) -> str:
    """Why J0 is outside the convergence cone, or "" when it is inside.

    A NaN entry of J0 is named first: it fails J0 >= 0 without being
    negative, and `cone_multiplier` ignores its ratio.  An infinite c is
    then named at the first state that forces it: a nonzero J0 where
    Jstar is zero, or a ratio J0/Jstar that is +inf over a finite
    positive Jstar, because J0 is infinite or because the division
    overflows.
    """
    nan = np.flatnonzero(np.isnan(J0))
    if nan.size:
        return f"state {nan[0]}: J0 is NaN"
    if not np.isfinite(c):
        for x, (jx, sx) in enumerate(zip(J0.tolist(), Jstar.tolist())):
            if sx == 0.0 and jx != 0.0:
                return f"state {x}: J0={jx:g} but Jstar=0"
            if 0.0 < sx < INF and jx == INF:
                return f"state {x}: J0 infinite over finite Jstar"
            if 0.0 < sx < INF and jx / sx == INF:
                return f"state {x}: J0={jx:g} over Jstar={sx:g} overflows c"
    return "" if nonneg else "J0 has negative entries"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name} (worst margin {c.margin:g})"
                         + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _known(column: np.ndarray) -> np.ndarray:
    """The entries of a float column that rows hold, NaN (None) left out."""
    return column[~np.isnan(column)]


def _first_max(values: np.ndarray) -> float:
    """The largest entry, the first of equal ones as Python's max takes
    it (so a -0.0 before a 0.0 is kept)."""
    return float(values[np.argmax(values)])


def verify_certificates(model: TotalCostModel, trace: IterationTrace,
                        ground_truth: tuple[np.ndarray, np.ndarray | None] | None = None
                        ) -> CertReport:
    """Replay the convergence guarantees recorded in a trace.

    Discounted traces check the geometric rate against the initial
    distance, with 1e-12 of room for round-off; undiscounted ones check
    the envelope sandwich Jstar <= J_k <= T^k(J0) (the lower side only
    under certified initial dominance), with none.  A masked trace skips
    the geometric rate and the upper side of the sandwich: a masked row
    refreshes only the pairs and states its masks set, so J_k may fall
    more slowly than value iteration's T^k(J0), and neither is a
    guarantee of the asynchronous iteration.  With ground truth
    supplied, the initial function is also tested for membership in the
    convergence cone: bounded by a finite multiple of Jstar and zero
    wherever Jstar is zero.  A failed cone check reports margin +inf.
    """
    checks: list[CheckResult] = []
    Jstar = None if ground_truth is None else np.asarray(ground_truth[0], dtype=float)
    columns = trace.columns

    if (model.regime == "D" and trace.dist0 is not None
            and not trace.config.get("masks")):
        alpha = model.discount
        dist = np.fmax(columns.column("dist_J"), columns.column("dist_Q"))
        known = ~np.isnan(dist)
        # alpha ** k by Python's pow, which numpy's power may differ from
        # in the last bit
        powers = np.fromiter(map(pow, itertools.repeat(alpha),
                                 columns.column("k")[known].tolist()), float)
        margins = dist[known] - (powers * trace.dist0 + 1e-12)
        margins = margins[~np.isnan(margins)]
        worst = _first_max(margins) if margins.size else -INF
        checks.append(CheckResult(
            "geometric-rate", not (margins > 0.0).any(), worst if worst > -INF else 0.0,
            f"alpha={alpha}, dist0={trace.dist0:g}"))

    if model.regime in ("N", "P"):
        ups = _known(columns.column("upper_margin"))
        if ups.size and not trace.config.get("masks"):
            worst = _first_max(ups)
            checks.append(CheckResult(
                "envelope-upper", worst <= 0.0, worst,
                "J_k <= T^k(J0) elementwise"))
        if trace.initial_dominance:
            lows = _known(columns.column("lower_margin"))
            if lows.size:
                worst = _first_max(np.concatenate(
                    (lows, _known(columns.column("q_lower_margin")))))
                checks.append(CheckResult(
                    "dominance-lower", worst <= 0.0, worst,
                    "Jstar <= J_k and Qstar <= Q_k elementwise"))

    if Jstar is not None and trace.J0 is not None and model.regime == "P":
        c = cone_multiplier(trace.J0, Jstar)
        nonneg = bool((trace.J0 >= 0.0).all())
        inside = bool(np.isfinite(c)) and nonneg
        checks.append(CheckResult(
            "cone-membership", inside, c if inside else INF,
            _cone_witness(trace.J0, Jstar, c, nonneg) or f"J0 <= c Jstar with c={c:g}"))
        finite_zero = bool(nonneg and np.isfinite(trace.J0).all()
                           and (trace.J0[Jstar == 0.0] == 0.0).all())
        checks.append(CheckResult(
            "zero-set-membership", finite_zero, 0.0 if finite_zero else INF,
            "J0 finite, nonnegative, and zero on the zero set of Jstar"))
    return CertReport(tuple(checks))
