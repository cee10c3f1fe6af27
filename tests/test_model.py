import numpy as np
import pytest

from totaldp.model import (
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


def test_model_arrays_are_frozen():
    fx = fixture("FX-P2")
    with pytest.raises(ValueError):
        fx.model.controls[0][0].probs[0] = 0.5
    with pytest.raises(ValueError):
        fx.model.pair_probs[0, 0] = 0.5


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
