"""Model and trace file formats.

Every number that crosses the file boundary is an extended real and goes
through one codec.  ``encode_xreal`` writes a finite float as a JSON
number, which round-trips bit-identically, and an infinity as the string
"inf" or "-inf".  ``decode_xreal`` reads a number or a numeric string
("inf", "-inf", "1.5", ...) and rejects NaN and anything else with a
ModelFileError.  Model files, both trace layouts and the CLI's vector
files all use it.

Models are JSON documents; unknown fields fail parsing in strict mode
and warn otherwise.  They are read and written by the array: the reader
walks the document's structure, decodes every atomic control's
transition list in one flat pass into the (pairs, n) transition matrix
and packs the model with `TotalCostModel.from_arrays`; only a malformed
file is decoded entry by entry, to name its first bad entry.  The
writer renders the transitions of a block of states from one pass over
the nonzero entries of their rows of that matrix, as the text
json.dumps(doc, indent=2) gives, one block at a time.

A trace is one document: the IterationTrace fields as a header object
plus one object per row with the TraceRow fields, whose codecs follow
their types.  The JSON layout writes that document as it is.  The CSV
layout writes the header as a ``#header`` row, then a column-name row
and one row per iteration, and reads columns by the file's own
column-name row.  Both encode each field down the trace's column of it
and decode a file into the columns directly; a malformed file is a
ModelFileError naming its line or row.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
import typing
import warnings

import numpy as np

from .model import AffineFamily, TotalCostModel
from .solvers import ITERATE_KEYS, IterationTrace, TraceRow

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Parse failure with location information when available."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Extended reals


def encode_xreal(v) -> float | str:
    """An extended real as a JSON value: a float when finite, otherwise
    "inf" or "-inf".  NaN is not an extended real and raises ValueError."""
    x = float(v)
    if x - x == 0.0:
        return x
    if x > 0.0:
        return "inf"
    if x < 0.0:
        return "-inf"
    raise ValueError("NaN is not an extended real")


def decode_xreal(v, where: str = "value") -> float:
    """The extended real held by a JSON number or a numeric string."""
    if type(v) is float and v == v:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ModelFileError(f"{where}: expected a number or 'inf', got {type(v).__name__}")
    try:
        x = float(v.strip().replace("−", "-") if isinstance(v, str) else v)
    except (ValueError, OverflowError):
        raise ModelFileError(f"{where}: bad numeric literal {v!r}") from None
    if x != x:
        raise ModelFileError(f"{where}: NaN is not an extended real")
    return x


def encode_vector(vec) -> list:
    return [encode_xreal(v) for v in vec]


def decode_vector(values, where: str = "vector") -> np.ndarray:
    """A JSON list of extended reals as a float array."""
    if not isinstance(values, list):
        raise ModelFileError(f"{where}: expected a list of numbers")
    return np.array([decode_xreal(v, where) for v in values], dtype=float)


def read_vector(path) -> np.ndarray:
    """A vector file: one JSON list of extended reals."""
    with open(path) as fh:
        text = fh.read()
    try:
        values = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from e
    return decode_vector(values, str(path))


# ---------------------------------------------------------------------------
# Models


_ascii = json.encoder.encode_basestring_ascii


def _scalar(v) -> str:
    """One JSON scalar as json.dumps writes it: a string ASCII-escaped, a
    float by float.__repr__; NaN and infinite floats are refused."""
    if isinstance(v, str):
        return _ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON list (or, with brackets "{}", an object) of rendered items,
    laid out as json.dumps(indent=2) lays out one nested `depth` levels
    deep: one item per line, indented 2 * depth spaces."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return (brackets[0] + pad + ("," + pad).join(items)
            + "\n" + "  " * (depth - 1) + brackets[1])


# A newline and the indent of depth d, for the depths a model file uses.
_PAD1, _PAD2, _PAD5, _PAD6, _PAD7 = ("\n" + "  " * d for d in (1, 2, 5, 6, 7))
# One {"state", "prob"} item of an atomic control's transitions, at depth 6
# of a model file: the text before the state name, between it and the
# probability, and after the probability up to the next item's text.
_ITEM_HEAD = "{" + _PAD7 + '"state": '
_ITEM_MID = "," + _PAD7 + '"prob": '
_ITEM_SEP = _PAD6 + "}," + _PAD6
_ITEMS_END = _PAD6 + "}" + _PAD5 + "]"


def _transition_lists(block: np.ndarray, heads: list[str]) -> list[str | None]:
    """The transitions list, as model-file text, of each pair of a block
    of `pair_probs` rows: the nonzero entries of its row as {"state",
    "prob"} items, with ``heads[y]`` the text before state y's
    probability.  The entries come from one `np.nonzero` pass over the
    block and their text from one batch of `float.__repr__`; a pair with
    a NaN or infinite probability gets None, which `_state_entry`
    refuses when it reaches that pair."""
    rows, cols = np.nonzero(block)  # NaN counts as nonzero
    values = block[rows, cols]
    items = list(map(operator.add, map(heads.__getitem__, cols.tolist()),
                     map(float.__repr__, values.tolist())))
    bounds = np.searchsorted(rows, np.arange(block.shape[0] + 1)).tolist()
    lists = ["[" + _PAD6 + _ITEM_SEP.join(items[s:e]) + _ITEMS_END if e > s else "[]"
             for s, e in zip(bounds, bounds[1:])]
    for k in rows[~np.isfinite(values)].tolist():
        lists[k] = None
    return lists


# The most `pair_probs` cells whose transitions lists are rendered at
# once, unless one state's rows hold more: the perfbench models fit in
# one block, while a large model is rendered a few states at a time.
_BLOCK_CELLS = 1 << 12


def _state_transitions(P: np.ndarray, bounds: list[int], heads: list[str]):
    """Each state's transitions lists, in state order, where state x's
    pairs are bounds[x]:bounds[x + 1].  They are rendered a block of
    consecutive states at a time (`_transition_lists`), as many as fit in
    `_BLOCK_CELLS` cells of P and at least one, so only one block's text
    is alive at a time."""
    n, x = len(bounds) - 1, 0
    while x < n:
        y = x + 1
        while y < n and (bounds[y + 1] - bounds[x]) * P.shape[1] <= _BLOCK_CELLS:
            y += 1
        lists = _transition_lists(P[bounds[x]:bounds[y]], heads)
        for z in range(x, y):
            yield lists[bounds[z] - bounds[x]:bounds[z + 1] - bounds[x]]
        x = y


def _family(f: AffineFamily, names: list[str]) -> str:
    trans = [_block([f'"state": {names[y]}', f'"p0": {_scalar(float(f.p0[y]))}',
                     f'"p1": {_scalar(float(f.p1[y]))}'], 7, "{}")
             for y in range(len(names)) if f.p0[y] != 0.0 or f.p1[y] != 0.0]
    return _block([f'"id": {_scalar(f.name)}', f'"lo": {_scalar(f.lo)}',
                   f'"hi": {_scalar(f.hi)}', f'"lo_closed": {_scalar(f.lo_closed)}',
                   f'"hi_closed": {_scalar(f.hi_closed)}',
                   f'"cost": {_block([_scalar(f.c0), _scalar(f.c1)], 6)}',
                   f'"transitions": {_block(trans, 6)}'], 5, "{}")


def _transitions_text(text: str | None) -> str:
    if text is None:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _state_entry(model: TotalCostModel, x: int, pairs: range, names: list[str],
                 costs: list[float], transitions: list[str | None]) -> str:
    """State x's entry in the controls list of a model file, read off the
    pair axis: the control name, cost and transitions list of each of its
    ``pairs``, whose transitions lists are ``transitions`` in order."""
    ids = model.control_names
    atomic = [_block([f'"id": {_ascii(ids[k])}',
                      f'"cost": {_scalar(encode_xreal(costs[k]))}',
                      f'"transitions": {_transitions_text(text)}'], 5, "{}")
              for k, text in zip(pairs, transitions)]
    entry = [f'"state": {names[x]}', f'"atomic": {_block(atomic, 4)}']
    if model.families[x]:
        fams = [_family(f, names) for f in model.families[x]]
        entry.append(f'"affine_families": {_block(fams, 4)}')
    return _block(entry, 3, "{}")


def _model_pieces(model: TotalCostModel, ground_truth: tuple | None = None):
    """The text of `render_model` in pieces: the top-level fields up to
    the controls list, one piece per state's control entry, and the rest.
    Joined, they are that text; `model_hash` hashes them one by one, so
    no caller but `render_model` holds the whole text.  The transitions
    lists are rendered a block of states at a time
    (`_state_transitions`)."""
    names = [_scalar(s) for s in model.state_names]
    top = [f'"format_version": {FORMAT_VERSION}', f'"regime": {_scalar(model.regime)}',
           f'"discount": {_scalar(model.discount)}', f'"states": {_block(names, 2)}']
    if model.cost_bound is not None:
        top.append(f'"cost_bound": {_scalar(model.cost_bound)}')
    # The layout of _block(top, 1, "{}"), whose "controls" item is the
    # list _block(entries, 2) written one entry at a time.
    yield "{" + _PAD1 + ("," + _PAD1).join(top) + "," + _PAD1 + '"controls": '
    bounds = np.append(model.pair_starts, model.num_pairs()).tolist()
    costs = model.pair_costs.tolist()
    heads = [_ITEM_HEAD + name + _ITEM_MID for name in names]
    for x, transitions in enumerate(_state_transitions(model.pair_probs, bounds, heads)):
        yield ("[" if x == 0 else ",") + _PAD2 + _state_entry(
            model, x, range(bounds[x], bounds[x + 1]), names, costs, transitions)
    yield "\n  ]" if model.num_states else "[]"
    if ground_truth is not None:
        Jstar, Qstar = ground_truth
        gt = [f'"Jstar": {_block([_scalar(v) for v in encode_vector(Jstar)], 3)}']
        if Qstar is not None:
            gt.append(f'"Qstar": {_block([_scalar(v) for v in encode_vector(Qstar)], 3)}')
        yield "," + _PAD1 + f'"ground_truth": {_block(gt, 2, "{}")}'
    yield "\n}"


def render_model(model: TotalCostModel,
                 ground_truth: tuple | None = None) -> str:
    """Serialize a model (and optional declared optimum) to JSON text.

    The text is what json.dumps(doc, indent=2, allow_nan=False) writes
    for the model document, byte for byte, so `model_hash` values do not
    depend on how it is produced; it is written directly
    (`_model_pieces`), with each state name escaped once and each
    transition one f-string.
    """
    return "".join(_model_pieces(model, ground_truth))


_TOP_KEYS = {"format_version", "regime", "discount", "states", "controls",
             "cost_bound", "ground_truth"}
_STATE_KEYS = {"state", "atomic", "affine_families"}
_ATOMIC_KEYS = {"id", "cost", "transitions"}
_FAMILY_KEYS = {"id", "lo", "hi", "lo_closed", "hi_closed", "cost", "transitions"}


def _check_keys(obj: dict, allowed: set, where: str, strict: bool,
                warn=warnings.warn) -> None:
    """Refuse (strict) or ``warn`` about the fields of obj not allowed."""
    unknown = obj.keys() - allowed
    if not unknown:
        return
    msg = f"{where}: unknown field(s) {sorted(unknown)}"
    if strict:
        raise ModelFileError(msg)
    warn(msg)


def _field(obj, key: str, where: str):
    """obj[key] of a JSON object; a ModelFileError naming ``where`` and
    the key when obj is not an object or lacks the key."""
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ModelFileError(f"{where}: missing field {key!r}")
    return obj[key]


def _objects(value, where: str) -> list:
    """A JSON list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ModelFileError(f"{where}: expected a list of objects")
    return value


_STATE, _PROB = operator.itemgetter("state"), operator.itemgetter("prob")


def _flat_rows(lists: list, index: dict, n: int) -> np.ndarray | None:
    """The (len(lists), n) transition matrix whose row k holds the
    {"state", "prob"} entries of lists[k], decoded in one flat pass over
    every entry of every list; None when any entry is malformed (a list
    that is not one, an entry that is not an object or lacks a field, an
    unknown state, a successor listed twice in one list, or a value that
    `decode_xreal` refuses), so that the caller can name the first."""
    if not all(type(entries) is list for entries in lists):
        return None
    flat = list(itertools.chain.from_iterable(lists))
    try:
        states, values = list(map(_STATE, flat)), list(map(_PROB, flat))
    except (KeyError, TypeError):
        return None
    try:
        ys = list(map(index.__getitem__, states))
    except (KeyError, TypeError):  # a reference that is not a state name as written
        try:
            ys = [index[s if type(s) is str else str(s)] for s in states]
        except KeyError:
            return None
    try:
        if not set(map(type, values)) <= {float}:  # ints and numeric strings
            values = list(map(decode_xreal, values))
    except ModelFileError:
        return None
    probs = np.array(values, dtype=float)
    if np.isnan(probs).any():
        return None
    lengths = np.fromiter(map(len, lists), np.intp, len(lists))
    at = np.repeat(np.arange(len(lists)) * n, lengths) + np.array(ys, dtype=np.intp)
    if at.size and np.bincount(at).max() > 1:
        return None
    P = np.zeros((len(lists), n))
    P.reshape(-1)[at] = probs
    return P


def parse_model(text: str, strict: bool = True
                ) -> tuple[TotalCostModel, tuple | None]:
    """Parse model JSON; returns the model and any declared optimum.

    Every malformed structure is a ModelFileError that names where it
    is: a missing field, a value of the wrong JSON type, an unknown
    state, a successor listed twice in one transition list, and a
    ground-truth vector whose length is not the model's (n states for
    Jstar, one value per atomic pair for Qstar).

    A structural walk reads every field but the atomic controls'
    transition lists, which it collects; one flat pass (`_flat_rows`)
    decodes all of them into the pair transition matrix, and
    `TotalCostModel.from_arrays` packs the model.  When the flat pass
    meets a malformed entry, or the walk a malformed field, the lists
    collected are decoded one entry at a time (`trans_row`) in document
    order, so that the error raised is the first in the document.  The
    walk's unknown-field warnings (lenient mode) wait for that decode, so
    that the ones issued are those the document holds before the error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be an object")
    _check_keys(doc, _TOP_KEYS, "top level", strict)
    for key in ("format_version", "regime", "discount", "states", "controls"):
        if key not in doc:
            raise ModelFileError(f"missing required field {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFileError(f"unsupported format_version {doc['format_version']!r}")
    if not isinstance(doc["states"], list):
        raise ModelFileError("states: expected a list")
    names = [str(s) for s in doc["states"]]
    index = {s: i for i, s in enumerate(names)}
    if len(index) != len(names):
        raise ModelFileError("duplicate state names")
    n = len(names)

    def trans_row(entries, key: str, default, where: str) -> np.ndarray:
        """The entries' `key` values at their states; an entry lacking the
        key reads as `default` (None: the key is required).  Each successor
        may be listed at most once."""
        if not isinstance(entries, list):
            raise ModelFileError(f"{where} transitions: expected a list of objects")
        row = np.zeros(n)
        seen = set()
        label = f"{where} {key}"
        for e in entries:
            try:
                s = e["state"]
                # A reference names the state whose "states" entry has the
                # same str(); a string is looked up as it is.
                y = index[s if type(s) is str else str(s)]
                v = e[key] if default is None else e.get(key, default)
            except (KeyError, TypeError):
                raise transition_error(e, key, where) from None
            if y in seen:
                raise ModelFileError(f"{where}: successor {names[y]!r} listed twice "
                                     "in transitions")
            seen.add(y)
            row[y] = decode_xreal(v, label)
        return row

    def transition_error(e, key: str, where: str) -> ModelFileError:
        """What is wrong with a transition entry that `trans_row` could
        not read."""
        if not isinstance(e, dict):
            return ModelFileError(f"{where} transitions: expected a list of objects")
        if "state" not in e:
            return ModelFileError(f"{where} transition: missing field 'state'")
        s = e["state"]
        if str(s) not in index:
            return ModelFileError(f"{where}: unknown state {s!r}")
        return ModelFileError(f"{where} transition to {s!r}: missing field {key!r}")

    # Per atomic pair, in document order: the cost, the name, the state's
    # label and the transitions list, left undecoded.
    costs: list[float] = []
    control_names: list[str] = []
    pair_where: list[str] = []
    lists: list = []
    counts: list[int] = []
    families: list[tuple[AffineFamily, ...]] = []
    held: list[tuple[int, str]] = []  # (lists collected before it, warning)

    def check_keys(obj: dict, allowed: set, where: str) -> None:
        _check_keys(obj, allowed, where, strict, lambda msg: held.append((len(lists), msg)))

    walk_error = None
    try:
        entries = _objects(doc["controls"], "controls")
        if len(entries) != n:
            raise ModelFileError(f"'controls' lists {len(entries)} states, want {n}")
        for entry in entries:
            check_keys(entry, _STATE_KEYS, f"state entry {entry.get('state')!r}")
            s = entry.get("state")
            x = index.get(str(s)) if "state" in entry else None
            if x is None:
                raise ModelFileError(f"control entry for unknown state {s!r}")
            where = f"state {names[x]!r}"
            atomics = _objects(entry.get("atomic", []), f"{where} atomic")
            for i, a in enumerate(atomics):
                check_keys(a, _ATOMIC_KEYS, f"{where} atomic control")
                name = str(a.get("id", f"u{i}"))
                try:
                    cost, trans = a["cost"], a["transitions"]
                except KeyError as err:
                    raise ModelFileError(f"{where} control {name!r}: missing field "
                                         f"{err.args[0]!r}") from None
                costs.append(decode_xreal(cost, f"{where} control {name!r} cost"))
                control_names.append(name)
                pair_where.append(where)
                lists.append(trans)
            counts.append(len(atomics))
            fams = []
            for fdoc in _objects(entry.get("affine_families", []),
                                 f"{where} affine_families"):
                check_keys(fdoc, _FAMILY_KEYS, f"{where} affine family")
                at = f"{where} family {str(fdoc.get('id', 'family'))!r}"
                cost = _field(fdoc, "cost", at)
                if not isinstance(cost, list) or len(cost) != 2:
                    raise ModelFileError(f"{at}: cost must be a list [c0, c1]")
                c0, c1 = cost
                trans = _field(fdoc, "transitions", at)
                fams.append(AffineFamily(
                    lo=decode_xreal(_field(fdoc, "lo", at), f"{at} lo"),
                    hi=decode_xreal(_field(fdoc, "hi", at), f"{at} hi"),
                    lo_closed=bool(_field(fdoc, "lo_closed", at)),
                    hi_closed=bool(_field(fdoc, "hi_closed", at)),
                    c0=decode_xreal(c0, f"{at} cost"), c1=decode_xreal(c1, f"{at} cost"),
                    p0=trans_row(trans, "p0", 0.0, at),
                    p1=trans_row(trans, "p1", 0.0, at),
                    name=str(fdoc.get("id", "family"))))
            families.append(tuple(fams))
    except ModelFileError as err:
        walk_error = err
    P = None if walk_error is not None else _flat_rows(lists, index, n)
    told = 0  # warnings issued
    if P is None:
        # Entry by entry, warning what the walk met before each list.
        rows = []
        for k, trans in enumerate(lists):
            while told < len(held) and held[told][0] <= k:
                warnings.warn(held[told][1])
                told += 1
            rows.append(trans_row(trans, "prob", None,
                                  f"{pair_where[k]} control {control_names[k]!r}"))
        P = np.stack(rows) if rows else np.zeros((0, n))
    for _, msg in held[told:]:
        warnings.warn(msg)
    if walk_error is not None:
        raise walk_error
    model = TotalCostModel.from_arrays(
        regime=str(doc["regime"]),
        discount=decode_xreal(doc["discount"], "discount"),
        counts=counts, pair_costs=costs, pair_probs=P, control_names=control_names,
        families=families, state_names=names,
        cost_bound=(decode_xreal(doc["cost_bound"], "cost_bound")
                    if "cost_bound" in doc else None),
    )
    gt = None
    if "ground_truth" in doc:
        gdoc = doc["ground_truth"]
        Jstar = decode_vector(_field(gdoc, "Jstar", "ground_truth"), "Jstar")
        _check_keys(gdoc, {"Jstar", "Qstar"}, "ground_truth", strict)
        Qstar = decode_vector(gdoc["Qstar"], "Qstar") if "Qstar" in gdoc else None
        for name, star, want in (("Jstar", Jstar, n), ("Qstar", Qstar, model.num_pairs())):
            if star is not None and star.size != want:
                raise ModelFileError(f"ground_truth {name}: {star.size} values, "
                                     f"the model has {want}")
        gt = (Jstar, Qstar)
    return model, gt


def write_model(path, model: TotalCostModel, ground_truth: tuple | None = None) -> None:
    with open(path, "w") as fh:
        fh.writelines(_model_pieces(model, ground_truth))
        fh.write("\n")


def read_model(path, strict: bool = True) -> tuple[TotalCostModel, tuple | None]:
    with open(path) as fh:
        return parse_model(fh.read(), strict=strict)


def model_hash(model: TotalCostModel) -> str:
    """The first 16 hex digits of the SHA-256 of `render_model`'s text
    (without ground truth), fed to the hash piece by piece."""
    digest = hashlib.sha256()
    for piece in _model_pieces(model):
        digest.update(piece.encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Traces


def _optional(fn):
    return lambda v: None if v is None else fn(v)


def _optional_back(fn):
    return lambda v: None if v is None or v == "" else fn(v)


# Values that _encode_tree keeps as they are, by exact type.
_KEPT = frozenset({str, int, bool, type(None)})


def _encode_tree(obj):
    """A JSON-able copy of obj whose floats are encoded extended reals.
    A 1-D float array is encoded in one pass over its `tolist`, the same
    floats its numpy scalars give."""
    if type(obj) in _KEPT:
        return obj
    if isinstance(obj, dict):
        return {k: _encode_tree(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1:
        return encode_vector(obj.tolist())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_encode_tree(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return encode_xreal(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _decode_tree(obj):
    """Inverse of _encode_tree: floats and "inf"/"-inf" go through
    decode_xreal, everything else is kept."""
    if isinstance(obj, dict):
        return {k: _decode_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_tree(v) for v in obj]
    if isinstance(obj, float) or obj in ("inf", "-inf"):
        return decode_xreal(obj)
    return obj


def _decode_dict(v) -> dict:
    """A dict field from its document value or from a CSV cell's JSON
    text.  A row's recorded iterates come back as the float arrays the
    solver recorded."""
    doc = _decode_tree(json.loads(v or "{}") if isinstance(v, str) else v)
    if not isinstance(doc, dict):
        raise ValueError("expected an object")
    for key in ITERATE_KEYS:
        if key in doc:
            doc[key] = decode_vector(doc[key], key)
    return doc


# json.dumps(obj, allow_nan=False), by one encoder built once.
_json = json.JSONEncoder(allow_nan=False).encode


def _tree_json(obj) -> str:
    """The JSON text of `_encode_tree(obj)`.  The encoder writes a float
    (a numpy float64 too) by `float.__repr__`, as `encode_xreal` has it
    written, and refuses an infinite or NaN one and any other numpy
    value; so obj is written as it is, and encoded first only when that
    fails."""
    try:
        return _json(obj)
    except (ValueError, TypeError):
        return _json(_encode_tree(obj))


# Field type -> (to a document value, from a document value or CSV text).
_CODECS = {
    float: (encode_xreal, decode_xreal),
    float | None: (_optional(encode_xreal), _optional_back(decode_xreal)),
    np.ndarray | None: (_optional(encode_vector), _optional_back(decode_vector)),
    dict: (_encode_tree, _decode_dict),
    int: (int, int),
    str: (str, str),
    bool: (bool, bool),
    bool | None: (_optional(bool), _optional(bool)),
}

# The header fields with their codecs; the row fields in file order with
# their types, and the file value of a field that a file leaves out (None
# for k and residual, which every row must give).
_HEADER = tuple((name, *_CODECS[kind]) for name, kind in typing.get_type_hints(
    IterationTrace).items() if name != "columns")
_ROW_TYPES = typing.get_type_hints(TraceRow)
ROW_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRow))
_ROW_DEFAULTS = {"dist_J": None, "dist_Q": None, "policy": "", "b_set": "",
                 "upper_margin": None, "lower_margin": None, "q_lower_margin": None,
                 "wall_time": 0.0, "extra": {}}


def _header_doc(trace: IterationTrace) -> dict:
    return {name: out(getattr(trace, name)) for name, out, _ in _HEADER}


def _header(doc) -> IterationTrace:
    """A trace, without rows, from its header document; only the fields
    it knows are read (an old header's ``seed`` is ignored)."""
    if not isinstance(doc, dict):
        raise ModelFileError("trace header: expected an object")
    kwargs = {}
    for name, _, back in _HEADER:
        if name in doc:
            try:
                kwargs[name] = back(doc[name])
            except (ValueError, TypeError) as err:
                raise ModelFileError(f"trace header field {name!r}: {err}") from None
    try:
        return IterationTrace(**kwargs)
    except TypeError as err:
        raise ModelFileError(f"trace header: {err}") from None


def _number_cells(values: list, optional: bool) -> list:
    """A float column as file values: a float when finite, "inf" or
    "-inf", and None where an ``optional`` column has no value.  A
    column of None is kept; otherwise one numpy pass finds the entries
    that are not finite floats, and only those are encoded one by one, a
    NaN (or a None in a column that must hold a number) refused as
    `encode_xreal` refuses it."""
    if optional and values.count(None) == len(values):
        return values
    column = np.array(values, dtype=float)
    cells = column.tolist()
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = None if optional and values[i] is None else encode_xreal(values[i])
    return cells


def _row_values(trace: IterationTrace, extra_out) -> list[list]:
    """The rows' file values, one list per field in `ROW_FIELDS` order,
    each encoded down its whole column; each row's extra by
    ``extra_out``, its recorded iterates as lists, once per distinct
    dict (every value-iteration row shares one)."""
    columns = trace.columns
    values = []
    for name in ROW_FIELDS:
        kind, column = _ROW_TYPES[name], columns.entries(name)
        if kind is dict:
            extras = columns.extras()
            distinct = {id(extra): extra for extra in extras}
            encoded = {key: extra_out(extra) for key, extra in distinct.items()}
            values.append([encoded[id(extra)] for extra in extras])
        elif kind in (str, int):
            values.append(column)
        else:
            values.append(_number_cells(column, kind is not float))
    return values


def _row_columns(trace: IterationTrace, cells: dict, where: list[str]) -> IterationTrace:
    """``trace`` with its rows, from each field's file values, one row
    per entry of ``where``, the row's place in the file.  A bad value, or
    a k that does not increase, is a ModelFileError naming its row."""
    values = {}
    for name, column in cells.items():
        back = _CODECS[_ROW_TYPES[name]][1]
        values[name] = []
        for place, cell in zip(where, column):
            try:
                values[name].append(back(cell))
            except (ValueError, TypeError) as err:
                raise ModelFileError(f"{place} field {name!r}: {err}") from None
    k = values["k"]
    for place, before, after in zip(where[1:], k, k[1:]):
        if after <= before:
            raise ModelFileError(f"{place}: k={after} does not follow k={before}")
    trace.columns.extend(values)
    return trace


def trace_to_csv(trace: IterationTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["#header", _json(_header_doc(trace))])
    writer.writerow(ROW_FIELDS)
    # csv writes None as an empty cell and a float by its repr
    writer.writerows(zip(*_row_values(trace, _tree_json)))
    return buf.getvalue()


def trace_from_csv(text: str) -> IterationTrace:
    records = list(csv.reader(io.StringIO(text)))
    if len(records) < 2 or len(records[0]) != 2 or records[0][0] != "#header":
        raise ModelFileError("missing trace header")
    try:
        header = json.loads(records[0][1])
    except json.JSONDecodeError as e:
        raise ModelFileError(f"line 1: the header is not valid JSON: {e.msg}") from None
    names = records[1]
    rows = [(f"line {line}", rec) for line, rec in enumerate(records[2:], start=3) if rec]
    for place, rec in rows:
        if len(rec) != len(names):
            raise ModelFileError(f"{place}: {len(rec)} cells for {len(names)} columns")
    columns = dict(zip(names, zip(*(rec for _, rec in rows))))
    cells = {name: columns.get(name, [_ROW_DEFAULTS.get(name)] * len(rows))
             for name in ROW_FIELDS}
    return _row_columns(_header(header), cells, [place for place, _ in rows])


def trace_to_json(trace: IterationTrace) -> str:
    doc = _header_doc(trace)
    doc["rows"] = [dict(zip(ROW_FIELDS, row))
                   for row in zip(*_row_values(trace, _encode_tree))]
    return json.dumps(doc, indent=2, allow_nan=False)


def trace_from_json(text: str) -> IterationTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from None
    trace = _header(doc)
    rows = doc.get("rows", [])
    if not isinstance(rows, list):
        raise ModelFileError("trace field 'rows': expected a list")
    for i, rec in enumerate(rows):
        if not isinstance(rec, dict):
            raise ModelFileError(f"row {i}: expected an object")
    cells = {name: [rec.get(name, _ROW_DEFAULTS.get(name)) for rec in rows]
             for name in ROW_FIELDS}
    return _row_columns(trace, cells, [f"row {i}" for i in range(len(rows))])


def write_trace(path, trace: IterationTrace, fmt: str = "csv") -> None:
    text = trace_to_csv(trace) if fmt == "csv" else trace_to_json(trace)
    with open(path, "w") as fh:
        fh.write(text)


def read_trace(path) -> IterationTrace:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return trace_from_json(text)
    return trace_from_csv(text)
