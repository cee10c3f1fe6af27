import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from totaldp.extreal import INF
from totaldp.solvers import (
    FullB,
    IterationTrace,
    SolverConfig,
    TraceRow,
    mixed_vpi,
    value_iteration,
)
from totaldp.model import AtomicControl, TotalCostModel
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
    for f in dataclasses.fields(IterationTrace):
        if f.name != "rows":
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

    def test_rows_strictly_increasing(self):
        trace = _sample_trace()
        from totaldp.solvers import TraceRow
        with pytest.raises(ValueError):
            trace.append(TraceRow(k=trace.rows[-1].k, residual=0.0))

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
                   "J_snapshot": [INF, -INF, 0.1], "nested": {"gap": INF, "name": "x"}}))
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
                extra={"residual_Q": res_Q, "J_snapshot": [0.0, 1.0],
                       "Q_snapshot": [0.0, 1.0, 1.0]}))
        return trace

    def test_parent_csv_reads_back(self):
        _assert_same_trace(self._expected(), trace_from_csv(PARENT_CSV))

    def test_parent_json_reads_back(self):
        _assert_same_trace(self._expected(), trace_from_json(PARENT_JSON))

    @pytest.mark.parametrize("read, text, old, new", [
        (trace_from_csv, PARENT_CSV, '""dist0"": ""inf""', '""dist0"": ""nan""'),
        (trace_from_csv, PARENT_CSV, "1,inf,1.0", "1,nan,1.0"),
        (trace_from_csv, PARENT_CSV, '""residual_Q"": ""inf""', '""residual_Q"": NaN'),
        (trace_from_json, PARENT_JSON, '"dist0": "inf"', '"dist0": NaN'),
        (trace_from_json, PARENT_JSON, '"residual": "inf"', '"residual": "nan"'),
        (trace_from_json, PARENT_JSON, '"residual_Q": "inf"', '"residual_Q": NaN'),
    ])
    def test_nan_in_a_trace_file_is_rejected(self, read, text, old, new):
        assert old in text
        with pytest.raises(ModelFileError):
            read(text.replace(old, new, 1))


def _one_state_model(costs) -> TotalCostModel:
    return TotalCostModel(
        regime="P", discount=1.0, state_names=("s",), families=((),),
        controls=(tuple(AtomicControl(f"u{i}", float(c), np.array([1.0]))
                        for i, c in enumerate(costs)),))


EXTENDED_REALS = st.lists(st.floats(allow_nan=True) | st.sampled_from([INF, -INF, -0.0]),
                          min_size=1, max_size=8).map(
    lambda vs: [v for v in vs if v == v])


class TestCodec:
    @given(EXTENDED_REALS)
    def test_extended_reals_round_trip_bit_exactly(self, values):
        values = np.array(values, dtype=float)
        model, gt = parse_model(render_model(_one_state_model(values), (values, values)))
        costs = np.array([c.cost for c in model.controls[0]])
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
