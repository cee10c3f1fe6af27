import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref

from totaldp.extreal import INF
from totaldp.solvers import (
    FullB,
    IterationTrace,
    SolverConfig,
    TraceColumns,
    TraceRow,
    mixed_vpi,
    run,
    value_iteration,
)
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.operators import h_backup
from totaldp.fixtures import fixture, fixture_names, random_model
from totaldp.modelio import (
    ModelFileError,
    decode_xreal,
    model_hash,
    parse_model,
    read_model,
    render_model,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
    write_model,
)


class TestModelRoundTrip:
    @pytest.mark.parametrize("name", sorted(fixture_names()))
    def test_fixture_round_trip_is_bit_identical(self, name):
        fx = fixture(name)
        text = render_model(fx.model, (fx.Jstar, fx.Qstar))
        model, gt = parse_model(text)
        assert render_model(model, gt) == text
        assert np.array_equal(gt[0], fx.Jstar)
        assert model.regime == fx.model.regime
        assert model.discount == fx.model.discount
        for x in range(model.num_states):
            for a, b in zip(model.controls[x], fx.model.controls[x]):
                assert a.name == b.name and a.cost == b.cost
                assert np.array_equal(a.probs, b.probs)
            for a, b in zip(model.families[x], fx.model.families[x]):
                assert (a.lo, a.hi, a.lo_closed, a.hi_closed) == \
                    (b.lo, b.hi, b.lo_closed, b.hi_closed)
                assert (a.c0, a.c1) == (b.c0, b.c1)
                assert np.array_equal(a.p0, b.p0)
                assert np.array_equal(a.p1, b.p1)

    def test_random_model_round_trip(self):
        model, Jstar = random_model(77, regime="D")
        text = render_model(model, (Jstar, h_backup(model, Jstar)))
        back, gt = parse_model(text)
        assert render_model(back, gt) == text
        assert model_hash(back) == model_hash(model)

    def test_infinite_optimum_literal(self):
        fx = fixture("FX-P3a")
        text = render_model(fx.model, (fx.Jstar, None))
        assert '"inf"' in text
        _, gt = parse_model(text)
        assert gt[0][1] == INF

    def test_numeric_state_names_read_back_with_the_same_hash(self):
        fx = fixture("FX-P2")
        model = TotalCostModel("P", 1.0, fx.model.controls, state_names=(0, 1))
        back, _ = parse_model(render_model(model))
        assert back.state_names == model.state_names == ("0", "1")
        assert model_hash(back) == model_hash(model)

    def test_numeric_control_names_read_back_with_the_same_hash(self):
        fx = fixture("FX-P2")
        controls = tuple(tuple(dataclasses.replace(c, name=name) for c, name in zip(cs, names))
                         for cs, names in zip(fx.model.controls, ((0,), (0, 1))))
        model = TotalCostModel("P", 1.0, controls)
        back, _ = parse_model(render_model(model))
        assert back.control_names == model.control_names == ("0", "0", "1")
        assert model_hash(back) == model_hash(model)

    def test_a_state_name_listed_twice_does_not_read_back(self):
        # validate_model flags such a model (test_model.py)
        fx = fixture("FX-P2")
        model = TotalCostModel("P", 1.0, fx.model.controls, state_names=("a", "a"))
        with pytest.raises(ModelFileError, match="duplicate state names"):
            parse_model(render_model(model))

    def test_file_round_trip(self, tmp_path):
        fx = fixture("FX-P2")
        path = tmp_path / "m.mdp"
        write_model(path, fx.model, (fx.Jstar, fx.Qstar))
        model, gt = read_model(path)
        assert model_hash(model) == model_hash(fx.model)


class TestModelParseErrors:
    def test_truncated_file_reports_location(self):
        fx = fixture("FX-P2")
        text = render_model(fx.model)[:40]
        with pytest.raises(ModelFileError) as err:
            parse_model(text)
        assert err.value.line is not None

    def test_unknown_field_strict(self):
        fx = fixture("FX-P2")
        text = render_model(fx.model).replace(
            '"format_version": 1,', '"format_version": 1, "wat": 3,')
        with pytest.raises(ModelFileError) as err:
            parse_model(text)
        assert "wat" in str(err.value)

    def test_unknown_field_lenient_warns(self):
        fx = fixture("FX-P2")
        text = render_model(fx.model).replace(
            '"format_version": 1,', '"format_version": 1, "wat": 3,')
        with pytest.warns(UserWarning):
            model, _ = parse_model(text, strict=False)
        assert model.num_states == 2

    def test_missing_field(self):
        with pytest.raises(ModelFileError):
            parse_model('{"format_version": 1}')

    def test_bad_literal(self):
        fx = fixture("FX-P2")
        text = render_model(fx.model).replace('"cost": 1', '"cost": "one"')
        with pytest.raises(ModelFileError):
            parse_model(text)


def _edited(name, edit):
    """The fixture's model file text after ``edit`` changed its document."""
    doc = json.loads(render_model(fixture(name).model))
    edit(doc)
    return json.dumps(doc)


def _control(doc, x=1, i=0):
    return doc["controls"][x]["atomic"][i]


def _family_doc(doc):
    return next(c for c in doc["controls"] if "affine_families" in c)["affine_families"][0]


class TestModelStructureErrors:
    """A malformed structure is a ModelFileError naming the state and the
    field, never a raw KeyError or TypeError."""

    @pytest.mark.parametrize("name, edit, words", [
        ("FX-P2", lambda d: _control(d)["transitions"].__setitem__(0, {"prob": 1.0}),
         ["state '1'", "'stay'", "missing field 'state'"]),
        ("FX-P2", lambda d: _control(d).pop("cost"), ["state '1'", "missing field 'cost'"]),
        ("FX-P2", lambda d: _control(d).pop("transitions"),
         ["state '1'", "missing field 'transitions'"]),
        ("FX-P2", lambda d: _control(d)["transitions"][0].pop("prob"),
         ["state '1'", "missing field 'prob'"]),
        ("FX-P2", lambda d: _control(d).__setitem__("transitions", {"1": 1.0}),
         ["state '1'", "transitions: expected a list of objects"]),
        ("FX-P2", lambda d: _control(d).__setitem__("transitions", [1.0]),
         ["state '1'", "transitions: expected a list of objects"]),
        ("FX-P2", lambda d: _control(d)["transitions"][0].__setitem__("state", ["1"]),
         ["state '1'", "unknown state ['1']"]),
        ("FX-P2", lambda d: d["controls"][1].__setitem__("atomic", 3),
         ["state '1' atomic", "expected a list of objects"]),
        ("FX-P2", lambda d: d.__setitem__("controls", {"0": []}), ["controls"]),
        ("FX-P2", lambda d: d.__setitem__("states", 2), ["states"]),
        ("FX-P2", lambda d: d.__setitem__("ground_truth", []), ["ground_truth"]),
        ("FX-P2", lambda d: d.__setitem__("ground_truth", {"Qstar": []}),
         ["ground_truth", "missing field 'Jstar'"]),
        ("FX-P2", lambda d: d.__setitem__("ground_truth", {"Jstar": [0.0] * 3}),
         ["ground_truth Jstar: 3 values, the model has 2"]),
        ("FX-P2", lambda d: d.__setitem__("ground_truth", {"Jstar": [0.0]}),
         ["ground_truth Jstar: 1 values, the model has 2"]),
        ("FX-P2", lambda d: d.__setitem__("ground_truth", {"Jstar": [0.0] * 2,
                                                          "Qstar": [0.0] * 2}),
         ["ground_truth Qstar: 2 values, the model has 3"]),
        ("FX-P3a", lambda d: _family_doc(d).pop("lo"), ["state '2'", "missing field 'lo'"]),
        ("FX-P3a", lambda d: _family_doc(d).__setitem__("cost", 0.0),
         ["state '2'", "cost must be a list"]),
        ("FX-P3a", lambda d: _family_doc(d)["transitions"][0].pop("state"),
         ["state '2'", "missing field 'state'"]),
    ])
    def test_malformed_structure_names_where(self, name, edit, words):
        with pytest.raises(ModelFileError) as err:
            parse_model(_edited(name, edit))
        for word in words:
            assert word in str(err.value)

    @pytest.mark.parametrize("name, edit", [
        # 0.5 + 0.5 at "0" and 0.5 at "1": the old reader kept the last
        # entry for "0" and loaded a row summing to 1.
        ("FX-P2", lambda d: _control(d).__setitem__("transitions", [
            {"state": "0", "prob": 0.5}, {"state": "1", "prob": 0.5},
            {"state": "0", "prob": 0.5}])),
        ("FX-P3a", lambda d: _family_doc(d)["transitions"].append(
            dict(_family_doc(d)["transitions"][0]))),
    ])
    def test_a_successor_listed_twice_is_refused(self, name, edit):
        with pytest.raises(ModelFileError, match="listed twice"):
            parse_model(_edited(name, edit))


def _numeric_states(doc):
    """Write every state name and every "state" reference as a JSON number."""
    doc["states"] = [int(s) for s in doc["states"]]
    for entry in doc["controls"]:
        entry["state"] = int(entry["state"])
        for c in entry.get("atomic", []) + entry.get("affine_families", []):
            for t in c["transitions"]:
                t["state"] = int(t["state"])


class TestStateReferences:
    """A "state" reference names the state whose "states" entry has the
    same str(), as "states" itself is read."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_numeric_references_parse_as_their_string_twin(self, name):
        text = render_model(fixture(name).model)
        model, gt = parse_model(_edited(name, _numeric_states))
        twin, twin_gt = parse_model(text)
        assert model_hash(model) == model_hash(twin)
        assert render_model(model, gt) == render_model(twin, twin_gt)

    def test_numeric_reference_to_string_states(self):
        model, _ = parse_model(_edited(
            "FX-P2", lambda d: _control(d)["transitions"][0].__setitem__("state", 1)))
        assert model_hash(model) == model_hash(fixture("FX-P2").model)

    @pytest.mark.parametrize("edit, words", [
        (lambda d: _control(d)["transitions"][0].__setitem__("state", 2),
         ["state '1'", "unknown state 2"]),
        (lambda d: _control(d)["transitions"][0].__setitem__("state", 1.0),
         ["state '1'", "unknown state 1.0"]),
        (lambda d: d["controls"][1].__setitem__("state", 5),
         ["control entry for unknown state 5"]),
        (lambda d: d["controls"][1].pop("state"),
         ["control entry for unknown state None"]),
    ])
    def test_unknown_numeric_references_are_refused(self, edit, words):
        def numeric_then(doc):
            _numeric_states(doc)
            edit(doc)
        with pytest.raises(ModelFileError) as err:
            parse_model(_edited("FX-P2", numeric_then))
        for word in words:
            assert word in str(err.value)


def _sample_trace():
    fx = fixture("FX-D")
    cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3), Q0=np.zeros(6),
                       nk=4, bstrategy=FullB(), tol=1e-10, max_iter=300,
                       ground_truth=fx.ground_truth())
    out = mixed_vpi(fx.model, cfg)
    out.trace.model_hash = model_hash(fx.model)
    return out.trace


def _same(a, b) -> bool:
    """Bit-exact equality: floats (and arrays) by their bytes, so that
    -0.0 and 0.0 differ and a string 'inf' never equals the float."""
    if isinstance(a, (float, np.floating)):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, list) and len(a) == len(b) and all(
            _same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _assert_same_trace(a, b):
    """The same header and the same rows, read as `TraceRow`s, bit for bit."""
    for f in dataclasses.fields(IterationTrace):
        if f.name != "columns":
            assert _same(getattr(a, f.name), getattr(b, f.name)), f.name
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        for f in dataclasses.fields(TraceRow):
            assert _same(getattr(ra, f.name), getattr(rb, f.name)), (ra.k, f.name)


FORMATS = {"csv": (trace_to_csv, trace_from_csv), "json": (trace_to_json, trace_from_json)}


class TestTraceRoundTrip:
    def test_csv_reparse_is_exact(self):
        trace = _sample_trace()
        back = trace_from_csv(trace_to_csv(trace))
        _assert_same_trace(trace, back)

    def test_json_reparse_is_exact(self):
        trace = _sample_trace()
        back = trace_from_json(trace_to_json(trace))
        _assert_same_trace(trace, back)

    def test_infinite_header_fields_round_trip(self):
        fx = fixture("FX-P3a")
        res = value_iteration(fx.model, np.array([0.0, INF, 2.0]),
                              SolverConfig(algorithm="vi", tol=1e-12, max_iter=10,
                                           ground_truth=(fx.Jstar, None)))
        back = trace_from_csv(trace_to_csv(res.trace))
        assert back.J0[1] == INF
        assert back.rows[-1].dist_J == res.trace.rows[-1].dist_J

    @pytest.mark.parametrize("name", ["FX-D", "FX-P4"])
    def test_the_header_holds_an_error_bound_only_when_one_is_set(self, name):
        # FX-D's run stops on the bracket and its config records the
        # bound; FX-P4's stops on its residual, and its config has no
        # error_bound key at all.
        fx = fixture(name)
        res = value_iteration(fx.model, 1.5 * fx.Jstar + 1.0,
                              SolverConfig(algorithm="vi", max_iter=500))
        assert (res.error_bound is not None) == (name == "FX-D")
        header = json.loads(trace_to_json(res.trace))
        assert header["config"].get("error_bound") == res.error_bound
        for back in (trace_from_csv(trace_to_csv(res.trace)),
                     trace_from_json(trace_to_json(res.trace))):
            assert back.config.get("error_bound") == res.error_bound

    def test_rows_strictly_increasing(self):
        trace = IterationTrace(algorithm="vi", regime="P", discount=1.0, config={})
        trace.append(TraceRow(k=2, residual=0.0))
        for k in (2, 1):
            with pytest.raises(ValueError, match="strictly increasing"):
                trace.append(TraceRow(k=k, residual=0.0))
        assert len(trace.rows) == 1

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_a_trace_without_rows_round_trips(self, fmt):
        trace = IterationTrace(algorithm="vi", regime="P", discount=1.0, config={})
        write, read = FORMATS[fmt]
        back = read(write(trace))
        assert list(back.rows) == [] and back.final_residual == INF
        with pytest.raises(IndexError):
            back.rows[-1]
        _assert_same_trace(trace, back)

    def test_a_trace_with_recorded_iterates_takes_no_appended_row(self):
        # a mixed trace's snapshots live in its block, which only the
        # solver writes
        trace = _sample_trace()
        with pytest.raises(ValueError, match="recorded iterates"):
            trace.append(TraceRow(k=trace.rows[-1].k + 1, residual=0.0))
        assert len(trace.rows) == trace.rows[-1].k

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("algorithm", ["mixed", "mpi"])
    def test_recorded_iterates_read_the_same_in_both_layouts(self, algorithm, fmt):
        # In memory the iterates are a block; read from a file, each row's
        # extra holds them.  Both give the same (rows, width) array, and a
        # key no row records is a KeyError naming it.
        fx = fixture("FX-P4")
        J0 = 1.5 * fx.Jstar + 1.0
        trace = run(fx.model, SolverConfig(
            algorithm=algorithm, J0=J0, Q0=h_backup(fx.model, J0), nk=2,
            initial_policy=Policy.deterministic(fx.model, [0, 0, 0]))).trace
        write, read = FORMATS[fmt]
        back = read(write(trace))
        keys = {"mixed": ("J_snapshot", "Q_snapshot"), "mpi": ("J_eval", "J_greedy")}
        for key in keys[algorithm]:
            for t in (trace, back):
                got = t.columns.iterates(key)
                assert got.shape == (len(trace.rows), trace.columns.iterates(key).shape[1])
                assert _same(got, np.array([row.extra[key] for row in trace.rows]))
        other = keys["mpi" if algorithm == "mixed" else "mixed"][0]
        for t in (trace, back):
            with pytest.raises(KeyError, match=other):
                t.columns.iterates(other)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_infinities_in_extra_round_trip(self, fmt):
        # mixed on FX-P2 from J0 = (0, inf): the first Q residual is inf
        fx = fixture("FX-P2")
        J0 = np.array([0.0, INF])
        res = mixed_vpi(fx.model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=2,
            ground_truth=fx.ground_truth()))
        assert res.trace.rows[0].extra["residual_Q"] == INF
        write, read = FORMATS[fmt]
        _assert_same_trace(res.trace, read(write(res.trace)))

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_powers_round_trip(self, fmt):
        # FX-D from zero rises: every row ran one of its four powers
        trace = _sample_trace()
        assert [row.extra["powers"] for row in trace.rows] == [1] * len(trace.rows)
        assert trace.op_count == len(trace.rows)
        write, read = FORMATS[fmt]
        _assert_same_trace(trace, read(write(trace)))

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_every_field_round_trips(self, fmt):
        trace = IterationTrace(
            algorithm="mixed", regime="N", discount=1.0,
            config={"nk": "exact", "tol": 1e-9, "initial_flags": {"cone_c": INF}},
            J0=np.array([-INF, -0.0, 2.5]), Q0=np.array([INF, 1e-300]),
            dist0=INF, initial_dominance=False, ground_truth_known=True,
            model_hash="abc", op_count=7)
        trace.append(TraceRow(k=1, residual=INF, policy="0:0", b_set="{}",
                              extra={"direction": None, "divergent": [0, 2]}))
        trace.append(TraceRow(
            k=3, residual=0.1, dist_J=-INF, dist_Q=0.0, policy="0:1,1:0", b_set="S",
            upper_margin=-0.0, lower_margin=INF, q_lower_margin=-1.5, wall_time=0.125,
            extra={"ineq_lower_margin": -INF, "cone_margin": None,
                   "J_snapshot": np.array([INF, -INF, 0.1]),
                   "nested": {"gap": INF, "name": "x"}}))
        write, read = FORMATS[fmt]
        _assert_same_trace(trace, read(write(trace)))


# Traces written by the previous release (mixed on FX-P2 from J0 = (0, inf),
# nk = 2, two iterations, wall times set to 0.25 k): the CSV columns come in
# a different order from today's, and both headers carry a "seed" key.
PARENT_CSV = '''#header,"{""algorithm"": ""mixed"", ""regime"": ""P"", ""discount"": 1.0, ""model_hash"": ""546414e7323ef7ca"", ""seed"": null, ""config"": {""algorithm"": ""mixed"", ""nk"": 2, ""epsilon"": 0.0, ""bstrategy"": ""FullB"", ""max_iter"": 2, ""tol"": 1e-09, ""masks"": false, ""clamped"": false}, ""dist0"": ""inf"", ""initial_dominance"": true, ""ground_truth_known"": true, ""op_count"": 4, ""J0"": [""0.0"", ""inf""], ""Q0"": [""0.0"", ""inf"", ""1.0""]}"
k,residual,dist_J,dist_Q,upper_margin,lower_margin,q_lower_margin,policy,b_set,wall_time,extra
1,inf,1.0,1.0,0.0,0.0,0.0,"0:0,1:1",S,0.25,"{""residual_Q"": ""inf"", ""J_snapshot"": [0.0, 1.0], ""Q_snapshot"": [0.0, 1.0, 1.0]}"
2,0.0,1.0,1.0,0.0,0.0,0.0,"0:0,1:0",S,0.5,"{""residual_Q"": 0.0, ""J_snapshot"": [0.0, 1.0], ""Q_snapshot"": [0.0, 1.0, 1.0]}"
'''

PARENT_JSON = '''{
  "algorithm": "mixed",
  "regime": "P",
  "discount": 1.0,
  "config": {
    "algorithm": "mixed",
    "nk": 2,
    "epsilon": 0.0,
    "bstrategy": "FullB",
    "max_iter": 2,
    "tol": 1e-09,
    "masks": false,
    "clamped": false
  },
  "model_hash": "546414e7323ef7ca",
  "seed": null,
  "dist0": "inf",
  "initial_dominance": true,
  "ground_truth_known": true,
  "op_count": 4,
  "J0": [
    0.0,
    "inf"
  ],
  "Q0": [
    0.0,
    "inf",
    1.0
  ],
  "rows": [
    {
      "k": 1,
      "residual": "inf",
      "dist_J": 1.0,
      "dist_Q": 1.0,
      "upper_margin": 0.0,
      "lower_margin": 0.0,
      "q_lower_margin": 0.0,
      "policy": "0:0,1:1",
      "b_set": "S",
      "wall_time": 0.25,
      "extra": {
        "residual_Q": "inf",
        "J_snapshot": [
          0.0,
          1.0
        ],
        "Q_snapshot": [
          0.0,
          1.0,
          1.0
        ]
      }
    },
    {
      "k": 2,
      "residual": 0.0,
      "dist_J": 1.0,
      "dist_Q": 1.0,
      "upper_margin": 0.0,
      "lower_margin": 0.0,
      "q_lower_margin": 0.0,
      "policy": "0:0,1:0",
      "b_set": "S",
      "wall_time": 0.5,
      "extra": {
        "residual_Q": 0.0,
        "J_snapshot": [
          0.0,
          1.0
        ],
        "Q_snapshot": [
          0.0,
          1.0,
          1.0
        ]
      }
    }
  ]
}
'''


class TestParentTraces:
    def _expected(self):
        trace = IterationTrace(
            algorithm="mixed", regime="P", discount=1.0,
            config={"algorithm": "mixed", "nk": 2, "epsilon": 0.0, "bstrategy": "FullB",
                    "max_iter": 2, "tol": 1e-09, "masks": False, "clamped": False},
            J0=np.array([0.0, INF]), Q0=np.array([0.0, INF, 1.0]), dist0=INF,
            initial_dominance=True, ground_truth_known=True,
            model_hash="546414e7323ef7ca", op_count=4)
        for k, residual, res_Q, policy in ((1, INF, INF, "0:0,1:1"), (2, 0.0, 0.0, "0:0,1:0")):
            trace.append(TraceRow(
                k=k, residual=residual, dist_J=1.0, dist_Q=1.0, policy=policy, b_set="S",
                upper_margin=0.0, lower_margin=0.0, q_lower_margin=0.0, wall_time=0.25 * k,
                extra={"residual_Q": res_Q, "J_snapshot": np.array([0.0, 1.0]),
                       "Q_snapshot": np.array([0.0, 1.0, 1.0])}))
        return trace

    def test_parent_csv_reads_back(self):
        _assert_same_trace(self._expected(), trace_from_csv(PARENT_CSV))

    def test_parent_json_reads_back(self):
        _assert_same_trace(self._expected(), trace_from_json(PARENT_JSON))

    @pytest.mark.parametrize("read, text, old, new, where", [
        (trace_from_csv, PARENT_CSV, '""dist0"": ""inf""', '""dist0"": ""nan""',
         "trace header field 'dist0'"),
        (trace_from_csv, PARENT_CSV, "1,inf,1.0", "1,nan,1.0", "line 3 field 'residual'"),
        (trace_from_csv, PARENT_CSV, '""residual_Q"": ""inf""', '""residual_Q"": NaN',
         "line 3 field 'extra'"),
        (trace_from_json, PARENT_JSON, '"dist0": "inf"', '"dist0": NaN',
         "trace header field 'dist0'"),
        (trace_from_json, PARENT_JSON, '"residual": "inf"', '"residual": "nan"',
         "row 0 field 'residual'"),
        (trace_from_json, PARENT_JSON, '"residual_Q": "inf"', '"residual_Q": NaN',
         "row 0 field 'extra'"),
        # rows that are not a list, a row that is not an object
        (trace_from_json, PARENT_JSON, '"rows": [', '"rows": 5, "x": [',
         "trace field 'rows': expected a list"),
        (trace_from_json, PARENT_JSON, '"rows": [', '"rows": [7, ', "row 0: expected an object"),
        # a k that does not increase
        (trace_from_csv, PARENT_CSV, "\n2,0.0,", "\n1,0.0,", "line 4: k=1 does not follow k=1"),
        (trace_from_json, PARENT_JSON, '"k": 2,', '"k": 0,', "row 1: k=0 does not follow k=1"),
        # invalid JSON, in a JSON trace and in the CSV header cell
        (trace_from_json, PARENT_JSON, '"rows": [', '"rows": [,', r"not valid JSON.*\(line 30, "),
        (trace_from_csv, PARENT_CSV, '""dist0"": ""inf""', '""dist0"": inf',
         "line 1: the header is not valid JSON"),
        # an extra that is not an object, a row without its k
        (trace_from_csv, PARENT_CSV, '"{""residual_Q"": ""inf"", ""J_snapshot"": [0.0, 1.0], '
         '""Q_snapshot"": [0.0, 1.0, 1.0]}"', "[1]", "line 3 field 'extra': expected an object"),
        (trace_from_json, PARENT_JSON, '"k": 2,', '', "row 1 field 'k'"),
    ])
    def test_a_malformed_trace_file_is_rejected(self, read, text, old, new, where):
        assert old in text
        with pytest.raises(ModelFileError, match=where):
            read(text.replace(old, new, 1))


def _self_loop_model(costs) -> TotalCostModel:
    """One absorbing state per cost, each with one control: n states and
    n pairs, so that a Jstar and a Qstar of n values both fit it."""
    eye = np.eye(len(costs))
    return TotalCostModel(
        regime="P", discount=1.0, state_names=tuple(f"s{i}" for i in range(len(costs))),
        controls=tuple((AtomicControl("u0", float(c), eye[i]),)
                       for i, c in enumerate(costs)))


EXTENDED_REALS = st.lists(st.floats(allow_nan=False) | st.sampled_from([INF, -INF, -0.0]),
                          min_size=1, max_size=8)


class TestCodec:
    @given(EXTENDED_REALS)
    def test_extended_reals_round_trip_bit_exactly(self, values):
        values = np.array(values, dtype=float)
        model, gt = parse_model(render_model(_self_loop_model(values), (values, values)))
        costs = np.array([cs[0].cost for cs in model.controls])
        for back in (costs, gt[0], gt[1]):
            assert _same(values, back)
        trace = IterationTrace(algorithm="vi", regime="P", discount=1.0, config={},
                               J0=values, Q0=values, dist0=float(values[0]))
        for k, v in enumerate(values, start=1):
            trace.append(TraceRow(k=k, residual=float(v), upper_margin=float(v),
                                  extra={"v": float(v), "all": values.tolist()}))
        for write, read in FORMATS.values():
            _assert_same_trace(trace, read(write(trace)))

    @given(st.sampled_from(["nan", "NaN", " -nan", "one", "", "1,5", "inf inf", "0x10"])
           | st.text(alphabet="abcxyz!?", min_size=1))
    def test_nan_and_non_numeric_strings_are_rejected(self, text):
        with pytest.raises(ModelFileError):
            decode_xreal(text)
        model_text = render_model(fixture("FX-P2").model)
        with pytest.raises(ModelFileError):
            parse_model(model_text.replace('"cost": 1.0', f'"cost": "{text}"'))

    @pytest.mark.parametrize("old, new", [
        ('"cost": 1.0', '"cost": NaN'),
        ('"prob": 1.0', '"prob": "nan"'),
        ('"discount": 1.0', '"discount": NaN'),
    ])
    def test_nan_in_a_model_file_is_rejected(self, old, new):
        text = render_model(fixture("FX-P2").model)
        assert old in text
        with pytest.raises(ModelFileError):
            parse_model(text.replace(old, new, 1))

    @pytest.mark.parametrize("old, new", [
        ('"lo": 0.0', '"lo": NaN'),
        ('"cost": [\n            0.0', '"cost": [\n            "nan"'),
        ('"p1": 1.0', '"p1": "nan"'),
    ])
    def test_nan_in_a_family_is_rejected(self, old, new):
        text = render_model(fixture("FX-P3a").model)
        assert old in text
        with pytest.raises(ModelFileError):
            parse_model(text.replace(old, new, 1))

    def test_the_parent_literals_decode(self):
        for text, value in (("inf", INF), ("+inf", INF), ("Infinity", INF),
                            ("-inf", -INF), ("−inf", -INF), ("-Infinity", -INF),
                            ("1.5", 1.5), (" 2 ", 2.0), (3, 3.0), (-0.0, -0.0)):
            assert _same(decode_xreal(text), value)
        for bad in (True, None, [1.0], {"v": 1}):
            with pytest.raises(ModelFileError):
                decode_xreal(bad)


# ---------------------------------------------------------------------------
# The one-pass reader and the column-wise writer against their oracles


def _parsed(parse, text: str, strict: bool):
    """What a parser makes of a model file: the model's pair arrays,
    names, families and hash (or the ValueError rendering refuses), and
    the declared optimum, or the exact text of its ModelFileError; with
    the messages of the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model, gt = parse(text, strict=strict)
        except ModelFileError as err:
            return "error", str(err), [str(w.message) for w in caught]
    try:
        digest = model_hash(model)
    except ValueError as err:  # an infinite transition probability
        digest = repr(err)
    families = [(f.name, f.lo, f.hi, f.lo_closed, f.hi_closed, f.c0, f.c1,
                 f.p0.tobytes(), f.p1.tobytes()) for fs in model.families for f in fs]
    stars = None if gt is None else [None if v is None else v.tobytes() for v in gt]
    return (model.regime, model.discount, model.cost_bound, model.pair_counts().tobytes(),
            model.pair_costs.tobytes(), model.pair_probs.tobytes(), model.control_names,
            model.state_names, families, digest, stars, [str(w.message) for w in caught])


# Values a probability or a cost may be written as, good and bad.
_LITERALS = [True, False, None, float("nan"), "inf", "-inf", "1.5", "nan", "x", 1, 0, -0.0,
             [0.5], 10 ** 400]


@st.composite
def model_documents(draw):
    """A model file: a valid document, or one with a few drawn faults.
    States are named "s0", "s1", ... or "0", "1", ...  (then referenced
    as strings or as numbers).  A fault is an unknown, numeric or
    repeated successor; a missing "state", "prob" or "cost"; a literal
    of `_LITERALS` as a probability or a cost; an entry or a transition
    list that is not one; an unknown field; a family's missing bound.
    State entries may come in any order; some states carry an affine
    family and some documents a ground truth."""
    n = draw(st.integers(0, 5))
    digits = draw(st.booleans())
    names = [str(i) if digits else f"s{i}" for i in range(n)]

    def ref(y):
        return int(names[y]) if digits and draw(st.booleans()) else names[y]

    prob = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 1, 0.25])
    cost = st.floats(-3.0, 3.0) | st.sampled_from([INF, -INF, 0.0, -0.0, 2])
    controls, lists = [], []
    for x in range(n):
        entry = {"state": ref(x), "atomic": []}
        for i in range(draw(st.integers(0, 3))):
            succ = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            trans = [{"state": ref(y), "prob": draw(prob)} for y in succ]
            control = {"cost": draw(cost), "transitions": trans}
            if draw(st.booleans()):
                control["id"] = draw(st.sampled_from([f"u{i}", 7, "é"]))
            entry["atomic"].append(control)
            lists.append((control, trans))
        if draw(st.integers(0, 5)) == 0:
            entry["affine_families"] = [{
                "id": "f", "lo": 0.0, "hi": 1.0, "lo_closed": True, "hi_closed": False,
                "cost": [1.0, draw(cost)],
                "transitions": [{"state": ref(y), "p0": draw(prob), "p1": draw(cost)}
                                for y in draw(st.lists(st.integers(0, n - 1), unique=True,
                                                       max_size=n))]}]
        controls.append(entry)
    controls = draw(st.permutations(controls))
    doc = {"format_version": 1, "regime": draw(st.sampled_from(["P", "D", "N"])),
           "discount": draw(st.sampled_from([1.0, 0.9])), "states": names,
           "controls": controls}
    if draw(st.booleans()):
        doc["cost_bound"] = 3.0
    if draw(st.booleans()):
        pairs = sum(len(c["atomic"]) for c in controls)
        doc["ground_truth"] = {"Jstar": [draw(cost) for _ in range(n)]}
        if draw(st.booleans()):
            doc["ground_truth"]["Qstar"] = [1.0] * draw(st.sampled_from([pairs, pairs + 1]))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["unknown", "numeric", "twice", "no-state", "no-prob", "no-cost", "literal",
             "literal", "literal", "cost-literal", "cost-literal", "not-an-object",
             "not-a-list", "unknown-field", "state-field", "family"]))
        if kind == "unknown-field":
            place = draw(st.sampled_from([doc] + [control for control, _ in lists]))
            place[draw(st.sampled_from(["wat", "zz"]))] = 1
            continue
        if kind == "state-field" and controls:
            draw(st.sampled_from(controls))["wat"] = 1
            continue
        if kind == "family":
            fams = [e["affine_families"][0] for e in controls if "affine_families" in e]
            if fams:
                draw(st.sampled_from(fams)).pop(draw(st.sampled_from(["lo", "cost"])))
            continue
        if not lists:
            continue
        control, trans = draw(st.sampled_from(lists))
        if kind == "no-cost":
            control.pop("cost", None)
        elif kind == "cost-literal":
            control["cost"] = draw(st.sampled_from(_LITERALS))
        elif kind == "not-a-list":
            control["transitions"] = draw(st.sampled_from([{"s0": 1.0}, 1.0, None]))
        elif not trans:  # no entry to spoil: an unknown field instead
            control[draw(st.sampled_from(["wat", "zz"]))] = 1
        else:
            e = draw(st.sampled_from(trans))
            if kind == "unknown":
                e["state"] = draw(st.sampled_from(["nowhere", 99, 1.0, ["s0"]]))
            elif kind == "numeric":
                e["state"] = draw(st.integers(0, n))
            elif kind == "twice":
                trans.append(dict(e))
            elif kind == "no-state":
                e.pop("state", None)
            elif kind == "no-prob":
                e.pop("prob", None)
            elif kind == "literal":
                e["prob"] = draw(st.sampled_from(_LITERALS))
            else:
                trans[trans.index(e)] = draw(st.sampled_from([1.0, "s0", [1]]))
    return json.dumps(doc)


class TestReaderAgainstOracle:
    """`parse_model` decodes the transition lists in one flat pass; on
    every document it gives the per-entry reader's model, hash, warnings
    and optimum, or its exact error."""

    @settings(max_examples=500)
    @given(model_documents(), st.booleans())
    def test_same_model_or_same_error(self, text, strict):
        assert _parsed(parse_model, text, strict) == _parsed(ref.parse_model, text, strict)

    @pytest.mark.parametrize("name", sorted(fixture_names()))
    def test_fixture_files(self, name):
        fx = fixture(name)
        text = render_model(fx.model, (fx.Jstar, fx.Qstar))
        assert _parsed(parse_model, text, True) == _parsed(ref.parse_model, text, True)

    @pytest.mark.parametrize("field", ["prob", "cost"])
    @pytest.mark.parametrize("literal", _LITERALS, ids=repr)
    def test_every_literal(self, literal, field):
        doc = json.loads(render_model(fixture("FX-P2").model))
        control = _control(doc, 1, 1)
        (control["transitions"][0] if field == "prob" else control)[field] = literal
        text = json.dumps(doc)
        assert _parsed(parse_model, text, True) == _parsed(ref.parse_model, text, True)


def _two_state_file(bad_transition, cost_in_state_1, unknown_fields=()) -> str:
    """FX-P2's file with a bad transition in state 0 (if given), state 1's
    control "stay" without its cost (if not ``cost_in_state_1``) and an
    unknown field "wat" at each place named in ``unknown_fields``."""
    doc = json.loads(render_model(fixture("FX-P2").model))
    state0, state1 = doc["controls"]
    if bad_transition is not None:
        state0["atomic"][0]["transitions"][0] = bad_transition
    if not cost_in_state_1:
        state1["atomic"][0].pop("cost")
    places = {"top": doc, "state 0": state0, "control 0": state0["atomic"][0],
              "state 1": state1, "control 1": state1["atomic"][1]}
    for place in unknown_fields:
        places[place]["wat"] = 1
    return json.dumps(doc)


class TestErrorOrder:
    """The first malformed place in the document is the one reported,
    whichever pass of the reader meets it."""

    @pytest.mark.parametrize("bad, words", [
        ({"state": "0", "prob": "x"}, "state '0' control 'loop' prob: bad numeric literal 'x'"),
        ({"state": "9", "prob": 1.0}, "state '0' control 'loop': unknown state '9'"),
        ({"prob": 1.0}, "state '0' control 'loop' transition: missing field 'state'"),
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_bad_transition_in_state_0_before_missing_cost_in_state_1(self, bad, words,
                                                                      strict):
        text = _two_state_file(bad, cost_in_state_1=False)
        with pytest.raises(ModelFileError) as err:
            parse_model(text, strict=strict)
        assert str(err.value) == words
        with pytest.raises(ModelFileError) as err:
            parse_model(_two_state_file(None, cost_in_state_1=False), strict=strict)
        assert str(err.value) == "state '1' control 'stay': missing field 'cost'"

    def test_lenient_mode_warns_for_the_fields_before_the_error(self):
        text = _two_state_file({"state": "9", "prob": 1.0}, cost_in_state_1=False,
                               unknown_fields=("top", "control 0", "control 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ModelFileError, match="unknown state '9'"):
                parse_model(text, strict=False)
        assert [str(w.message) for w in caught] == [
            "top level: unknown field(s) ['wat']",
            "state '0' atomic control: unknown field(s) ['wat']"]
        with pytest.raises(ModelFileError, match="top level: unknown field"):
            parse_model(text)

    def test_lenient_mode_warns_once_per_unknown_field(self):
        places = ("top", "state 0", "control 0", "state 1", "control 1")
        text = _two_state_file(None, cost_in_state_1=True, unknown_fields=places)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model, _ = parse_model(text, strict=False)
        assert [str(w.message) for w in caught] == [
            "top level: unknown field(s) ['wat']",
            "state entry '0': unknown field(s) ['wat']",
            "state '0' atomic control: unknown field(s) ['wat']",
            "state entry '1': unknown field(s) ['wat']",
            "state '1' atomic control: unknown field(s) ['wat']"]
        assert model_hash(model) == model_hash(fixture("FX-P2").model)


def _solver_traces() -> list[IterationTrace]:
    """One trace of each algorithm on FX-P2 from 1.5 J* (mixed from J0 =
    (0, inf) too), ground truth given, so that every column is filled,
    and one of vi without it, whose trace leaves out the ground-truth,
    policy, B and envelope columns."""
    fx = fixture("FX-P2")
    J0 = 1.5 * fx.Jstar
    traces = []
    for algorithm in ("vi", "pi", "mpi", "mixed", "lp"):
        cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(fx.model, J0),
                           initial_policy=Policy.deterministic(fx.model, [0, 0]),
                           tol=1e-10, max_iter=50, ground_truth=fx.ground_truth())
        traces.append(run(fx.model, cfg).trace)
    J0 = np.array([0.0, INF])
    traces.append(mixed_vpi(fx.model, SolverConfig(
        algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=2,
        ground_truth=fx.ground_truth())).trace)
    traces.append(value_iteration(fx.model, 1.5 * fx.Jstar, SolverConfig(algorithm="vi")).trace)
    return traces


TRACES = _solver_traces()
_FLOAT_FIELDS = [f.name for f in dataclasses.fields(TraceRow)
                 if f.type in ("float", "float | None")]
_SPECIALS = st.sampled_from([INF, -INF, -0.0, 0.0, np.float64(-0.0), np.float64(INF),
                             np.float64(2.5), 3])
_CELL = st.floats(allow_nan=False) | _SPECIALS
_EXTRA_VALUE = st.recursive(
    _CELL | st.none() | st.sampled_from(["x", True, np.int64(4), np.float32(0.5)])
    | st.lists(st.floats(allow_nan=False), max_size=3).map(np.array),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "b"]), inner, max_size=2), max_leaves=6)


@st.composite
def drawn_traces(draw):
    """A solver trace whose float columns are each kept, all None, all
    finite, or mixed with None, +-inf and -0.0, with some rows' extra
    replaced by a drawn dict; now and then a NaN or a None in a column
    that may not hold one.  The rows are appended to a fresh trace."""
    trace = draw(st.sampled_from(TRACES))
    rows = [dataclasses.replace(row, extra=dict(row.extra)) for row in trace.rows]
    trace = dataclasses.replace(trace, columns=TraceColumns())
    for name in _FLOAT_FIELDS:
        mode = draw(st.sampled_from(["keep", "none", "finite", "mixed"]))
        optional = name not in ("residual", "wall_time")
        for row in rows:
            if mode == "none" and optional:
                setattr(row, name, None)
            elif mode == "finite":
                setattr(row, name, draw(st.floats(-1e300, 1e300) | st.just(-0.0)))
            elif mode == "mixed":
                setattr(row, name, draw(_CELL | st.none()) if optional else draw(_CELL))
    for row in rows:
        if draw(st.integers(0, 3)) == 0:
            row.extra = draw(st.dictionaries(st.sampled_from(["v", "residual_Q", "divergent"]),
                                             _EXTRA_VALUE, max_size=3))
    if rows and draw(st.integers(0, 9)) == 0:
        row = draw(st.sampled_from(rows))
        setattr(row, draw(st.sampled_from(_FLOAT_FIELDS)), draw(st.sampled_from(
            [float("nan"), None])))
    for row in rows:
        trace.append(row)
    return trace


def _written(write, trace):
    try:
        return write(trace)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


class TestWriterAgainstOracle:
    """`trace_to_csv` encodes whole columns; its text is the per-value
    writer's, and so is its error."""

    @settings(max_examples=300)
    @given(drawn_traces())
    def test_same_text_or_same_error(self, trace):
        assert _written(trace_to_csv, trace) == _written(ref.trace_to_csv, trace)

    @pytest.mark.parametrize("k", range(len(TRACES)))
    def test_solver_traces(self, k):
        assert trace_to_csv(TRACES[k]) == ref.trace_to_csv(TRACES[k])

    def test_equal_extras_of_opposite_zeros_keep_their_signs(self):
        trace = IterationTrace(algorithm="vi", regime="P", discount=1.0, config={})
        for k, v in enumerate((0.0, -0.0, 0.0), start=1):
            trace.append(TraceRow(k=k, residual=v, extra={"v": v}))
        text = trace_to_csv(trace)
        assert text == ref.trace_to_csv(trace)
        assert [row.extra["v"] for row in trace_from_csv(text).rows] == [0.0, -0.0, 0.0]
        assert '""v"": -0.0' in text
