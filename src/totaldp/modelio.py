"""Model and trace file formats.

Every number that crosses the file boundary is an extended real and goes
through one codec.  ``encode_xreal`` writes a finite float as a JSON
number, which round-trips bit-identically, and an infinity as the string
"inf" or "-inf".  ``decode_xreal`` reads a number or a numeric string
("inf", "-inf", "1.5", ...) and rejects NaN and anything else with a
ModelFileError.  Model files, both trace layouts and the CLI's vector
files all use it.

Models are JSON documents; unknown fields fail parsing in strict mode
and warn otherwise.  A trace is one document: the IterationTrace fields
as a header object plus one object per TraceRow, whose field names and
codecs are derived once from the two dataclasses.  The JSON layout
writes that document as it is.  The CSV layout writes the header as a
``#header`` row, then a column-name row and one row per TraceRow; it
reads columns by the file's own column-name row.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import operator
import typing
import warnings

import numpy as np

from .model import AffineFamily, AtomicControl, TotalCostModel
from .solvers import IterationTrace, J_SNAPSHOT, Q_SNAPSHOT, TraceRow

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


# An atomic control's transitions are items at depth 6 of a model file.
_PAD6, _PAD7 = "\n" + "  " * 6, "\n" + "  " * 7


def _transitions(row: np.ndarray, names: list[str]) -> str:
    """The nonzero entries of a transition row as {"state", "prob"} items."""
    nz = np.flatnonzero(row)  # NaN counts as nonzero and is refused below
    probs = row[nz].tolist()
    if not all(map(math.isfinite, probs)):
        raise ValueError("Out of range float values are not JSON compliant")
    return _block([f'{{{_PAD7}"state": {names[y]},{_PAD7}"prob": {p!r}{_PAD6}}}'
                   for y, p in zip(nz.tolist(), probs)], 6)


def _family(f: AffineFamily, names: list[str]) -> str:
    trans = [_block([f'"state": {names[y]}', f'"p0": {_scalar(float(f.p0[y]))}',
                     f'"p1": {_scalar(float(f.p1[y]))}'], 7, "{}")
             for y in range(len(names)) if f.p0[y] != 0.0 or f.p1[y] != 0.0]
    return _block([f'"id": {_scalar(f.name)}', f'"lo": {_scalar(f.lo)}',
                   f'"hi": {_scalar(f.hi)}', f'"lo_closed": {_scalar(f.lo_closed)}',
                   f'"hi_closed": {_scalar(f.hi_closed)}',
                   f'"cost": {_block([_scalar(f.c0), _scalar(f.c1)], 6)}',
                   f'"transitions": {_block(trans, 6)}'], 5, "{}")


_PAD1, _PAD2 = "\n  ", "\n    "


def _state_entry(model: TotalCostModel, x: int, pairs: range, names: list[str],
                 costs: list[float]) -> str:
    """State x's entry in the controls list of a model file, read off the
    pair axis: the control name, cost and transition row of each of its
    ``pairs``."""
    P, ids = model.pair_probs, model.control_names
    atomic = [_block([f'"id": {_scalar(ids[k])}',
                      f'"cost": {_scalar(encode_xreal(costs[k]))}',
                      f'"transitions": {_transitions(P[k], names)}'], 5, "{}")
              for k in pairs]
    entry = [f'"state": {names[x]}', f'"atomic": {_block(atomic, 4)}']
    if model.families[x]:
        fams = [_family(f, names) for f in model.families[x]]
        entry.append(f'"affine_families": {_block(fams, 4)}')
    return _block(entry, 3, "{}")


def _model_pieces(model: TotalCostModel, ground_truth: tuple | None = None):
    """The text of `render_model` in pieces: the top-level fields up to
    the controls list, one piece per state's control entry, and the rest.
    Joined, they are that text; `model_hash` hashes them one by one, so
    no caller but `render_model` holds the whole text."""
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
    for x in range(model.num_states):
        yield ("[" if x == 0 else ",") + _PAD2 + _state_entry(
            model, x, range(bounds[x], bounds[x + 1]), names, costs)
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


def _check_keys(obj: dict, allowed: set, where: str, strict: bool) -> None:
    unknown = set(obj) - allowed
    if not unknown:
        return
    msg = f"{where}: unknown field(s) {sorted(unknown)}"
    if strict:
        raise ModelFileError(msg)
    warnings.warn(msg)


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


def parse_model(text: str, strict: bool = True
                ) -> tuple[TotalCostModel, tuple | None]:
    """Parse model JSON; returns the model and any declared optimum.

    Every malformed structure is a ModelFileError that names where it
    is: a missing field, a value of the wrong JSON type, an unknown
    state, a successor listed twice in one transition list, and a
    ground-truth vector whose length is not the model's (n states for
    Jstar, one value per atomic pair for Qstar).
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

    controls: list[tuple[AtomicControl, ...]] = []
    families: list[tuple[AffineFamily, ...]] = []
    entries = _objects(doc["controls"], "controls")
    if len(entries) != n:
        raise ModelFileError(f"'controls' lists {len(entries)} states, want {n}")
    for entry in entries:
        _check_keys(entry, _STATE_KEYS, f"state entry {entry.get('state')!r}", strict)
        s = entry.get("state")
        x = index.get(str(s)) if "state" in entry else None
        if x is None:
            raise ModelFileError(f"control entry for unknown state {s!r}")
        where = f"state {names[x]!r}"
        atomics = []
        for a in _objects(entry.get("atomic", []), f"{where} atomic"):
            _check_keys(a, _ATOMIC_KEYS, f"{where} atomic control", strict)
            name = str(a.get("id", f"u{len(atomics)}"))
            at = f"{where} control {name!r}"
            try:
                cost, trans = a["cost"], a["transitions"]
            except KeyError as err:
                raise ModelFileError(f"{at}: missing field {err.args[0]!r}") from None
            atomics.append(AtomicControl(name, decode_xreal(cost, f"{at} cost"),
                                         trans_row(trans, "prob", None, at)))
        fams = []
        for fdoc in _objects(entry.get("affine_families", []), f"{where} affine_families"):
            _check_keys(fdoc, _FAMILY_KEYS, f"{where} affine family", strict)
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
        controls.append(tuple(atomics))
        families.append(tuple(fams))
    model = TotalCostModel(
        regime=str(doc["regime"]),
        discount=decode_xreal(doc["discount"], "discount"),
        controls=tuple(controls),
        families=tuple(families),
        state_names=tuple(names),
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
    """A dict field from its document value or from a CSV cell's JSON text.
    A mixed row's iterate snapshots come back as the float arrays the
    solver recorded."""
    doc = _decode_tree(json.loads(v or "{}") if isinstance(v, str) else v)
    for key in (J_SNAPSHOT, Q_SNAPSHOT):
        if key in doc:
            doc[key] = decode_vector(doc[key], key)
    return doc


# json.dumps(obj, allow_nan=False), without an encoder built per call.
_json = json.JSONEncoder(allow_nan=False).encode

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


class _Schema:
    """The fields of one trace dataclass and their codecs, derived once.

    ``doc`` gives an object as a document, ``columns`` the field values
    of many objects as document values, one list per field; ``build``
    makes an object back from a document, reading only the fields it
    knows (an old header's ``seed`` is ignored).
    """

    def __init__(self, cls):
        hints = typing.get_type_hints(cls)
        self.cls = cls
        self.names = tuple(f.name for f in dataclasses.fields(cls) if f.name != "rows")
        self.outs = tuple(_CODECS[hints[name]][0] for name in self.names)
        self.backs = tuple(_CODECS[hints[name]][1] for name in self.names)
        self.dict_fields = tuple(i for i, name in enumerate(self.names) if hints[name] is dict)
        self._get = operator.attrgetter(*self.names)

    def columns(self, objs: list) -> list[list]:
        """The objects' field values as document values, one list per
        field, each encoded down its whole column."""
        return [list(map(out, map(operator.attrgetter(name), objs)))
                for name, out in zip(self.names, self.outs)]

    def doc(self, obj) -> dict:
        return {name: out(v) for name, out, v in zip(self.names, self.outs, self._get(obj))}

    def build(self, doc: dict, where: str):
        kwargs = {}
        for name, back in zip(self.names, self.backs):
            if name in doc:
                try:
                    kwargs[name] = back(doc[name])
                except (ValueError, TypeError) as err:
                    raise ModelFileError(f"{where} field {name!r}: {err}") from None
        try:
            return self.cls(**kwargs)
        except TypeError as err:
            raise ModelFileError(f"{where}: {err}") from None


_HEADER = _Schema(IterationTrace)
_ROW = _Schema(TraceRow)


def trace_to_csv(trace: IterationTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["#header", _json(_HEADER.doc(trace))])
    writer.writerow(_ROW.names)
    columns = _ROW.columns(trace.rows)
    for i in _ROW.dict_fields:
        columns[i] = list(map(_json, columns[i]))
    # csv writes None as an empty cell and a float by its repr
    writer.writerows(zip(*columns))
    return buf.getvalue()


def trace_from_csv(text: str) -> IterationTrace:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or len(rows[0]) != 2 or rows[0][0] != "#header":
        raise ModelFileError("missing trace header")
    trace = _HEADER.build(json.loads(rows[0][1]), "trace header")
    columns = rows[1]
    for line, rec in enumerate(rows[2:], start=3):
        if not rec:
            continue
        if len(rec) != len(columns):
            raise ModelFileError(f"line {line}: {len(rec)} cells for {len(columns)} columns")
        trace.append(_ROW.build(dict(zip(columns, rec)), f"line {line}"))
    return trace


def trace_to_json(trace: IterationTrace) -> str:
    doc = _HEADER.doc(trace)
    doc["rows"] = [_ROW.doc(row) for row in trace.rows]
    return json.dumps(doc, indent=2, allow_nan=False)


def trace_from_json(text: str) -> IterationTrace:
    doc = json.loads(text)
    trace = _HEADER.build(doc, "trace header")
    for i, rec in enumerate(doc.get("rows", [])):
        trace.append(_ROW.build(rec, f"row {i}"))
    return trace


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
