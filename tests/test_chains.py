import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from totaldp.extreal import INF, sup_dist
from totaldp.model import AtomicMix, FamilyChoice, Policy
from totaldp.chains import (
    evaluate_policy,
    occupation_measure,
    state_marginal,
)
from totaldp.model import AtomicControl, TotalCostModel, induced_kernel
from totaldp.operators import bellman_T_mu
from totaldp.fixtures import fixture, random_model, random_policy


class TestEvaluatePolicy:
    def test_paying_policy_exact(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        out = evaluate_policy(fx.model, go)
        assert np.array_equal(out.J, np.array([0.0, 1.0]))

    def test_interval_policy_grid(self):
        fx = fixture("FX-P3b")
        for u in (0.1, 0.4, 0.9):
            pol = Policy((AtomicMix(np.array([1.0])), FamilyChoice(0, u),
                          AtomicMix(np.array([1.0]))))
            out = evaluate_policy(fx.model, pol)
            assert np.array_equal(out.J, np.array([0.0, 1.0, 2.0]))

    def test_divergent_state_reported_infinite(self):
        fx = fixture("FX-P3a")
        pol = Policy((AtomicMix(np.array([1.0])), AtomicMix(np.array([1.0])),
                      FamilyChoice(0, 0.5)))
        out = evaluate_policy(fx.model, pol)
        assert out.J[1] == INF
        assert out.J[0] == 0.0
        # half the mass reaches the unit-cost trap: expected cost diverges
        assert out.J[2] == INF

    def test_discounted_solve_matches_iteration(self):
        model, _ = random_model(23, regime="D")
        mu = random_policy(5, model)
        out = evaluate_policy(model, mu)
        J = np.zeros(model.num_states)
        for _ in range(3000):
            J = bellman_T_mu(model, mu, J)
        assert sup_dist(out.J, J) <= 1e-10

    def test_nonnegative_iterates_increase(self):
        model, _ = random_model(29, regime="P")
        mu = random_policy(6, model)
        # iterates grow toward the value from below for nonnegative costs
        J = np.zeros(model.num_states)
        for _ in range(50):
            nxt = bellman_T_mu(model, mu, J)
            assert np.all(nxt >= J - 1e-12)
            J = nxt

    def test_nonpositive_iterates_decrease(self):
        model, _ = random_model(37, regime="N")
        mu = random_policy(8, model)
        J = np.zeros(model.num_states)
        for _ in range(50):
            nxt = bellman_T_mu(model, mu, J)
            assert np.all(nxt <= J + 1e-12)
            J = nxt

    def test_nonpositive_divergence(self):
        fx = fixture("FX-N2")
        # make state 1 loop forever on a negative-cost control
        from totaldp.model import AtomicControl, TotalCostModel
        model = TotalCostModel(
            regime="N", discount=1.0,
            controls=(fx.model.controls[0],
                      (AtomicControl("spin", -1.0, np.array([0.0, 1.0])),)),
        )
        mu = Policy.deterministic(model, [0, 0])
        out = evaluate_policy(model, mu)
        assert out.J[1] == -INF and out.J[0] == 0.0


class TestMarginalsAndOccupation:
    def test_zero_steps_is_initial(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        init = np.array([0.25, 0.75])
        assert np.array_equal(state_marginal(fx.model, go, init, 0), init)

    def test_deterministic_transition(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        d1 = state_marginal(fx.model, go, np.array([0.0, 1.0]), 1)
        assert np.array_equal(d1, np.array([1.0, 0.0]))

    def test_expected_optimum_vanishes_on_the_move(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        for n in (1, 2, 5):
            dist = state_marginal(fx.model, go, np.array([0.0, 1.0]), n)
            assert float(dist @ fx.Jstar) == 0.0

    def test_occupation_identity_when_absorbing(self):
        fx = fixture("FX-P2")
        stay = Policy.deterministic(fx.model, [0, 0])
        rho = np.array([0.3, 0.7])
        p = occupation_measure(fx.model, stay, rho, 0.5)
        assert np.allclose(p, rho)

    def test_occupation_geometric_split(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        p = occupation_measure(fx.model, go, np.array([0.0, 1.0]), 0.5)
        assert np.allclose(p, np.array([0.5, 0.5]))

    def test_occupation_normalizes(self):
        for seed in range(5):
            model, _ = random_model(seed, regime="P")
            mu = random_policy(seed, model)
            rho = np.full(model.num_states, 1.0 / model.num_states)
            p = occupation_measure(model, mu, rho, 0.7)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert (p >= -1e-15).all()


def test_divergence_classifier_on_mixed_chain():
    fx = fixture("FX-P4")
    mu = Policy.deterministic(fx.model, [0, 0, 0])
    assert evaluate_policy(fx.model, mu).divergent == frozenset()


def _slow_exit(p):
    """State 1 pays 1 per step and exits to the free state 0 with probability p."""
    return TotalCostModel(regime="P", discount=1.0, controls=(
        (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
        (AtomicControl("go", 1.0, np.array([p, 1.0 - p])),),
    ))


@pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4])
def test_slow_exit_is_finite(p):
    model = _slow_exit(p)
    out = evaluate_policy(model, Policy.deterministic(model, [0, 0]))
    assert out.divergent == frozenset()
    assert out.J[0] == 0.0
    assert abs(out.J[1] - 1.0 / p) <= 1e-9 / p


# One-stage costs, times the regime's sign (in D each control draws
# one); 0 twice so that free states are common.
COSTS = (0.0, 0.0, 0.5, 1.0, INF)


@st.composite
def random_chains(draw):
    """Sparse random D/N/P chains, 1-2 controls per state, with traps,
    zero-cost cycles and transient states and infinite costs, under a
    deterministic or a uniform-mix policy.  The infinities are those the
    stop-rule engine hands `chains._price`: +inf in P, either one in D
    and N.  Each state pays one of them, so that a mix never adds +inf
    to -inf."""
    regime = draw(st.sampled_from(["D", "N", "P"]))
    discount = draw(st.sampled_from([0.5, 0.9])) if regime == "D" else 1.0
    n = draw(st.integers(1, 8))
    controls = []
    for x in range(n):
        infinity = INF if regime == "P" else draw(st.sampled_from([-INF, INF]))
        row = []
        for i in range(draw(st.integers(1, 2))):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=min(n, 3), unique=True))
            weights = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                    max_size=len(support)))
            probs = np.zeros(n)
            probs[support] = weights
            sign = {"D": draw(st.sampled_from([1.0, -1.0])), "N": -1.0, "P": 1.0}[regime]
            cost = draw(st.sampled_from(COSTS))
            row.append(AtomicControl(f"u{i}", infinity if cost == INF else sign * cost,
                                     probs / probs.sum()))
        controls.append(tuple(row))
    model = TotalCostModel(regime=regime, discount=discount, controls=tuple(controls))
    if draw(st.booleans()):
        policy = Policy.uniform(model)
    else:
        policy = Policy.deterministic(
            model, [draw(st.integers(0, len(c) - 1)) for c in controls])
    return model, policy


@st.composite
def family_chains(draw):
    """FX-P3a and FX-P3b under a family choice at their interval state."""
    name = draw(st.sampled_from(["FX-P3a", "FX-P3b"]))
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    one = AtomicMix(np.array([1.0]))
    if name == "FX-P3a":
        last = draw(st.sampled_from([one, FamilyChoice(0, t)]))
        return fixture(name).model, Policy((one, one, last))
    return fixture(name).model, Policy((one, FamilyChoice(0, t), one))


# Three times hypothesis's default examples: the chains span three
# regimes, and these draw D and N chains where a +inf and a -inf state
# stay apart.
@settings(max_examples=300)
@given(case=st.one_of(random_chains(), family_chains()))
def test_reachability_matches_recurrent_class_reference(case):
    model, policy = case
    out = evaluate_policy(model, policy)
    want = ref.evaluate_policy(model, policy)
    P, g = induced_kernel(model, policy)
    assert out.divergent == want.divergent
    # The reference also solves for the transient states that never pay
    # again, whose exact cost 0 it can miss by round-off (-1e-16 on one
    # generated 8-state chain); the reachability rule sets them to 0.
    for x in np.flatnonzero(out.J != want.J):
        assert out.J[x] == 0.0 and abs(want.J[x]) <= 1e-12
        assert all(g[y] == 0.0 for y in ref.reachable_from(P, {int(x)}))
