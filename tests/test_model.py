import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_ops as ref

from totaldp.model import (
    REGIMES,
    AffineFamily,
    AtomicControl,
    AtomicMix,
    FamilyChoice,
    Policy,
    TotalCostModel,
    induced_complement,
    induced_kernel,
    validate_model,
    validate_policy,
)
from totaldp.fixtures import fixture
from totaldp.modelio import model_hash
from totaldp.operators import h_backup
from totaldp.ftheta import Theta
from totaldp.stopping import lp_upper_bound


def test_fixtures_validate_clean():
    for name in ("FX-N2", "FX-P2", "FX-P3a", "FX-P3b", "FX-P4", "FX-D"):
        assert validate_model(fixture(name).model) == []


def test_sign_rule_violation_names_regime():
    fx = fixture("FX-P2")
    bad = TotalCostModel(
        regime="P", discount=1.0,
        controls=(
            fx.model.controls[0],
            (AtomicControl("stay", 0.0, np.array([0.0, 1.0])),
             AtomicControl("go", -1.0, np.array([1.0, 0.0]))),
        ),
    )
    problems = validate_model(bad)
    assert any("regime P requires g >= 0" in p for p in problems)


def test_distribution_sum_violation():
    bad = TotalCostModel(
        regime="P", discount=1.0,
        controls=((AtomicControl("u", 0.0, np.array([0.9, 0.0])),
                   ),
                  (AtomicControl("u", 0.0, np.array([0.0, 1.0])),)),
    )
    problems = validate_model(bad)
    assert any("distribution sum" in p for p in problems)


def test_state_without_controls_is_flagged():
    bad = TotalCostModel(regime="P", discount=1.0,
                         controls=((), (AtomicControl("u", 0.0, np.array([1.0, 0.0])),)))
    assert any("no atomic control" in p for p in validate_model(bad))


def test_uniform_policy_names_a_state_without_atomic_controls():
    # State 1's only control is a closed affine family: the model is
    # valid, but there is no atomic control to mix at state 1.
    fam = AffineFamily(lo=0.0, hi=1.0, lo_closed=True, hi_closed=True,
                       c0=1.0, c1=0.0,
                       p0=np.array([1.0, 0.0]), p1=np.array([-1.0, 1.0]))
    model = TotalCostModel(regime="P", discount=1.0,
                           controls=((AtomicControl("rest", 0.0, np.array([1.0, 0.0])),), ()),
                           families=((), (fam,)), state_names=("home", "away"))
    assert validate_model(model) == []
    with pytest.raises(ValueError, match="state away has no atomic control"):
        Policy.uniform(model)
    fx = fixture("FX-P2")
    assert Policy.uniform(fx.model).descriptor() == "0:0,1:mix"


def test_a_family_choice_is_described_by_its_parameter():
    fx = fixture("FX-P3b")
    policy = Policy([AtomicMix(np.array([1.0])), FamilyChoice(0, 0.25),
                     AtomicMix(np.array([1.0]))])
    assert validate_policy(fx.model, policy) == []
    assert policy.descriptor() == "0:0,1:t=0.25,2:0"


def test_family_coefficient_rules():
    fam = AffineFamily(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False,
                       c0=0.0, c1=0.0,
                       p0=np.array([1.0, 0.0]), p1=np.array([0.5, 0.0]))
    bad = TotalCostModel(regime="P", discount=1.0,
                         controls=((), (AtomicControl("u", 0.0, np.array([1.0, 0.0])),)),
                         families=((fam,), ()))
    problems = validate_model(bad)
    assert any("p1 sums to" in p for p in problems)


@pytest.mark.parametrize("regime", ["D", "N", "P"])
def test_nan_is_flagged_in_every_regime(regime):
    nan = float("nan")
    discount = 0.9 if regime == "D" else 1.0
    good_fam = dict(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False, c0=0.0, c1=0.0,
                    p0=np.array([1.0, 0.0]), p1=np.array([0.0, 0.0]))

    def model(cost=0.0, probs=(1.0, 0.0), **fam):
        return TotalCostModel(
            regime=regime, discount=discount,
            controls=((AtomicControl("u", cost, np.array(probs)),),
                      (AtomicControl("u", 0.0, np.array([0.0, 1.0])),)),
            families=((AffineFamily(**{**good_fam, **fam}),), ()))

    assert validate_model(model()) == []
    cases = [dict(cost=nan), dict(probs=(nan, 1.0)), dict(probs=(1.0, nan))]
    cases += [{key: nan} for key in ("lo", "hi", "c0", "c1")]
    cases += [dict(p0=np.array([1.0, nan])), dict(p1=np.array([nan, 0.0]))]
    for kwargs in cases:
        problems = validate_model(model(**kwargs))
        assert problems and any("nan" in p.lower() for p in problems), kwargs


def test_discounted_regime_checks():
    fx = fixture("FX-D")
    assert validate_model(fx.model) == []
    wrong = TotalCostModel(regime="D", discount=1.0, controls=fx.model.controls,
                           cost_bound=2.0)
    assert any("discount" in p for p in validate_model(wrong))


def test_policy_validation():
    fx = fixture("FX-P2")
    ok = Policy.deterministic(fx.model, [0, 1])
    assert validate_policy(fx.model, ok) == []
    bad = Policy((AtomicMix(np.array([0.5, 0.5])), AtomicMix(np.array([1.0, 0.0]))))
    assert validate_policy(fx.model, bad)  # state 0 has one control
    fam_fx = fixture("FX-P3b")
    edge = Policy((AtomicMix(np.array([1.0])), FamilyChoice(0, 0.0),
                   AtomicMix(np.array([1.0]))))
    assert any("outside family interval" in p
               for p in validate_policy(fam_fx.model, edge))


def test_near_deterministic_mix_is_a_mix():
    # 5e-6 of mass off the top control is far above PROB_TOL: the policy is
    # randomized, renders as a mix, and the deterministic-only bound refuses it.
    fx = fixture("FX-P2")
    near = Policy((AtomicMix(np.array([1.0])), AtomicMix(np.array([1 - 5e-6, 5e-6]))))
    assert not near.is_deterministic()
    assert near.descriptor() == "0:0,1:mix"
    with pytest.raises(ValueError, match="deterministic"):
        lp_upper_bound(fx.model, Theta(near, frozenset({0, 1})), fx.Jstar)


def test_deterministic_policy_keeps_its_choices():
    fx = fixture("FX-P2")
    pol = Policy.deterministic(fx.model, [0, 1])
    same = Policy((AtomicMix(np.array([1.0])), AtomicMix(np.array([0.0, 1.0]))))
    assert pol.descriptor() == same.descriptor() == "0:0,1:1"
    assert pol.action_index(1) == same.action_index(1) == 1
    assert np.array_equal(pol.pair_weights, same.pair_weights)
    assert np.array_equal(pol.actions[1].weights, [0.0, 1.0])
    with pytest.raises(ValueError):
        Policy.deterministic(fx.model, [0, 2])
    with pytest.raises(ValueError):
        Policy.deterministic(fx.model, [0])


def test_non_integer_choices_are_refused():
    model = fixture("FX-D").model
    for choices in ([0.5, 1.9, 1.2], [0, 1, np.nan], [0, 1, np.inf]):
        with pytest.raises(ValueError, match="not an integer control index"):
            Policy.deterministic(model, choices)
    assert Policy.deterministic(model, [0.0, 1.0, 1.0]).descriptor() == "0:0,1:1,2:1"


def test_boolean_choices_are_refused():
    # True and False would be read as controls 1 and 0, as SolverConfig
    # would read them as counts, which it refuses too.
    model = fixture("FX-D").model
    for choices in ([True, False, False], np.array([True, True, True]), [0, True, 1],
                    (1.0, 0, np.True_)):
        with pytest.raises(ValueError, match="not an integer control index"):
            Policy.deterministic(model, choices)


def test_wrong_length_row_is_refused_at_construction():
    with pytest.raises(ValueError, match=r"^state 1 control 'u': transition row has "
                                         r"shape \(1,\), want \(2,\)$"):
        TotalCostModel("P", 1.0, ((AtomicControl("a", 0.0, np.array([1.0, 0.0])),),
                                  (AtomicControl("u", 0.0, np.array([1.0])),)))


@pytest.mark.parametrize("field, value", [("state_names", ("a",)), ("families", ((),)),
                                          ("state_names", ("a", "b", "c"))])
def test_per_state_tuples_need_one_entry_per_state(field, value):
    fx = fixture("FX-P2")
    with pytest.raises(ValueError, match=f"^{field} has length {len(value)}, want one "
                                         "entry per state: 2$"):
        TotalCostModel("P", 1.0, fx.model.controls, **{field: value})


def test_a_state_name_listed_twice_is_flagged():
    fx = fixture("FX-P2")
    model = TotalCostModel("P", 1.0, fx.model.controls, state_names=("a", "a"))
    assert validate_model(model) == ["state name 'a' is listed 2 times"]
    assert validate_model(model) == ref.validate_model_per_row(model)


def test_model_arrays_are_frozen():
    fx = fixture("FX-P2")
    with pytest.raises(ValueError):
        fx.model.controls[0][0].probs[0] = 0.5
    with pytest.raises(ValueError):
        fx.model.pair_probs[0, 0] = 0.5
    with pytest.raises(AttributeError, match="immutable"):
        fx.model.regime = "N"


def test_induced_kernel_mixes_controls():
    fx = fixture("FX-N2")
    half = Policy((AtomicMix(np.array([1.0])), AtomicMix(np.array([0.5, 0.5]))))
    P, g = induced_kernel(fx.model, half)
    assert np.allclose(P[1], [0.5, 0.5])
    assert g[1] == -0.5


def test_induced_complement_matches_kernel():
    fx = fixture("FX-D")
    pol = Policy.deterministic(fx.model, [0, 1, 0])
    P, g = induced_kernel(fx.model, pol)
    A, g2 = induced_complement(fx.model, pol)
    assert np.allclose(A, np.eye(3) - P)
    assert np.array_equal(g, g2)


def _row(rng, n: int) -> np.ndarray:
    """A distribution on n states: dense, or on a few successors."""
    if rng.random() < 0.5:
        return rng.dirichlet(np.ones(n))
    row = np.zeros(n)
    support = rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False)
    row[support] = rng.dirichlet(np.ones(support.size))
    return row


@st.composite
def drawn_models(draw):
    """A model with 0-3 atomic controls per state and some affine
    families, in any regime.  Some rows and costs break an invariant:
    a negative entry (with the sum off 1 or not), a sum off 1, NaN, an
    infinite or wrong-signed cost, or a cost past the bound."""
    n = draw(st.integers(1, 12))
    regime = draw(st.sampled_from(REGIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    faults = draw(st.sampled_from([0.0, 0.1, 0.4]))
    sign = -1.0 if regime == "N" else 1.0
    controls, families = [], []
    for x in range(n):
        cs = []
        for i in range(int(rng.integers(0, 4))):
            probs, cost = _row(rng, n), sign * float(rng.random() * 2.0)
            if rng.random() < faults:
                kind = rng.integers(0, 7)
                if kind == 0:
                    probs[rng.integers(n)] -= 0.5
                elif kind == 6:  # one entry negative, the sum still 1
                    probs[0] -= 0.5
                    probs[-1] += 0.5
                elif kind == 1:
                    probs = probs * (1.0 + rng.choice([1e-13, 1e-11, -1e-6]))
                elif kind == 2:
                    probs[rng.integers(n)] = np.nan
                elif kind == 3:
                    cost = float(rng.choice([np.nan, np.inf, -np.inf]))
                elif kind == 4:
                    cost = -cost
                else:
                    cost = 5.0 * sign
            cs.append(AtomicControl(f"u{i}", cost, probs))
        controls.append(tuple(cs))
        fams = []
        if rng.random() < 0.15:
            p0 = _row(rng, n)
            p1 = np.zeros(n) if rng.random() < 0.5 else rng.normal(size=n)
            fams.append(AffineFamily(lo=0.0, hi=float(rng.choice([0.5, 1.0, 1.5])),
                                     lo_closed=True, hi_closed=False, c0=sign, c1=0.0,
                                     p0=p0, p1=p1))
        families.append(tuple(fams))
    discount = float(rng.choice([0.9, 1.0])) if regime == "D" else 1.0
    bound = 3.0 if regime == "D" and rng.random() < 0.5 else None
    return TotalCostModel(regime=regime, discount=discount, controls=tuple(controls),
                          families=tuple(families), cost_bound=bound)


class TestValidateInOnePass:
    """`validate_model` reads the atomic rows from the pair arrays and
    says what the control-by-control check said, in the same order."""

    @given(drawn_models())
    def test_same_messages_as_control_by_control(self, model):
        assert validate_model(model) == ref.validate_model_per_row(model)

    @given(st.integers(1, 300), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_row_sums_of_the_pair_matrix_are_each_rows_own(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        first = tuple(AtomicControl(f"u{i}", 0.0, _row(rng, n)) for i in range(rows))
        model = TotalCostModel(regime="P", discount=1.0,
                               controls=(first,) + ((),) * (n - 1))
        sums = model.pair_probs.sum(axis=1)
        own = [c.probs.sum() for cs in model.controls for c in cs]
        assert sums.tobytes() == np.array(own).tobytes()


def _hash_or_error(model: TotalCostModel) -> str:
    try:
        return model_hash(model)
    except ValueError as err:  # a NaN cost or a NaN or infinite transition entry
        return repr(err)


class TestStoredForm:
    """A model stores its pair arrays; `controls` is a view rebuilt from
    them, and a model built from that view is the same model."""

    @given(drawn_models())
    def test_rebuilt_from_its_controls_view(self, model):
        twin = TotalCostModel(model.regime, model.discount, model.controls,
                              model.families, model.state_names, model.cost_bound)
        assert twin.pair_costs.tobytes() == model.pair_costs.tobytes()
        assert twin.pair_probs.tobytes() == model.pair_probs.tobytes()
        assert twin.control_names == model.control_names
        assert twin.state_names == model.state_names
        assert _hash_or_error(twin) == _hash_or_error(model)

    def test_controls_are_not_kept(self):
        def holds_control(v) -> bool:
            return isinstance(v, AtomicControl) or (
                isinstance(v, tuple) and any(map(holds_control, v)))

        model = fixture("FX-D").model
        assert model.controls is not model.controls
        assert not any(map(holds_control, vars(model).values()))

    def test_a_model_pickles_with_its_backup_map(self):
        # The model keeps the map its backups apply (`model._g_plus`),
        # which must not stop it from being pickled, as for a process pool.
        model = fixture("FX-D").model
        J = np.array([1.0, -2.0, 0.5])
        H = h_backup(model, J)
        twin = pickle.loads(pickle.dumps(model))
        assert h_backup(twin, J).tobytes() == H.tobytes()


class TestArrayPacker:
    """`TotalCostModel.from_arrays` is the one packer; the constructor
    hands it the arrays of its controls."""

    @given(drawn_models())
    def test_constructor_and_packer_build_the_same_model(self, model):
        twin = TotalCostModel.from_arrays(
            model.regime, model.discount, model.pair_counts(), model.pair_costs,
            model.pair_probs, model.control_names, model.families, model.state_names,
            model.cost_bound)
        for name in ("regime", "discount", "cost_bound", "families", "state_names",
                     "control_names"):
            assert getattr(twin, name) == getattr(model, name)
        for name in ("pair_costs", "pair_probs"):
            a, b = getattr(twin, name), getattr(model, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert twin.pair_counts().tobytes() == model.pair_counts().tobytes()
        assert _hash_or_error(twin) == _hash_or_error(model)

    def test_arrays_are_copied_and_frozen(self):
        g, P = np.array([0.0, 1.0]), np.eye(2)
        model = TotalCostModel.from_arrays("P", 1.0, [1, 1], g, P, ["a", 7],
                                           state_names=["x", 0])
        g[0], P[0, 0] = 5.0, 0.5
        assert model.pair_costs.tolist() == [0.0, 1.0]
        assert model.pair_probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert (model.control_names, model.state_names) == (("a", "7"), ("x", "0"))
        with pytest.raises(ValueError):
            model.pair_probs[0, 0] = 0.5
        assert validate_model(model) == []

    @pytest.mark.parametrize("counts, costs, names, probs", [
        ([1, 1], [0.0], ["a", "b"], np.eye(2)),
        ([1, 1], [0.0, 1.0], ["a"], np.eye(2)),
        ([1, 1], [0.0, 1.0], ["a", "b"], np.eye(2)[:1]),
        ([2, 0], [0.0, 1.0], ["a", "b"], np.eye(3)[:2]),
        ([3, -1], [0.0, 1.0], ["a", "b"], np.eye(2)),
        ([[1, 1]], [0.0, 1.0], ["a", "b"], np.eye(2)),
    ], ids=["costs", "names", "rows", "columns", "negative-count", "counts-2d"])
    def test_arrays_that_do_not_fit_are_refused(self, counts, costs, names, probs):
        with pytest.raises(ValueError, match="pair arrays do not fit the counts"):
            TotalCostModel.from_arrays("P", 1.0, counts, costs, probs, names)

    def test_per_state_tuples_need_one_entry_per_state(self):
        with pytest.raises(ValueError, match="^families has length 1, want one entry "
                                             "per state: 2$"):
            TotalCostModel.from_arrays("P", 1.0, [1, 1], [0.0, 1.0], np.eye(2), ["a", "b"],
                                       families=((),))
