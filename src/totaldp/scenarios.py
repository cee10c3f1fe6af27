"""Scripted reproduction scenarios.

Each scenario exercises one headline behavior of the solver family on
the fixture models or on the seeded random suites, checks computed
values against their expected ones, and returns a report of pass/fail
lines.  The CLI ``reproduce`` command prints these reports; the
acceptance test suite asserts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .extreal import INF, sup_dist
from .model import AtomicMix, FamilyChoice, Policy, TotalCostModel
from .operators import bellman_T, bellman_T_mu, greedy_select, h_backup
from .chains import evaluate_policy, state_marginal
from .ftheta import Theta, f_theta_apply, q_fixed_point
from .stopping import build_stopping, lp_upper_bound, reconstruct_q, solve_stopping
from .solvers import (
    FullB,
    SolverCapError,
    SolverConfig,
    lp_variant_vpi,
    mixed_vpi,
    modified_policy_iteration,
    policy_iteration,
    value_iteration,
    verify_certificates,
)
from .fixtures import (
    TailConstantVector,
    example51_T,
    example51_transfinite_level,
    fixture,
    random_model,
    random_policy,
    random_subset,
)


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.label}" + (f" ({c.detail})" if c.detail else ""))
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared random suites (seeded, cached per process)

D_SEEDS = tuple(range(50))
N_SEEDS = tuple(range(100, 150))
P_SEEDS = tuple(range(200, 250))


@lru_cache(maxsize=None)
def d_suite() -> tuple[tuple[TotalCostModel, np.ndarray], ...]:
    out = []
    for i, seed in enumerate(D_SEEDS):
        alpha = 0.5 + 0.1 * (i % 5)
        out.append(random_model(seed, num_states=4, controls_per_state=2,
                                regime="D", discount=alpha))
    return tuple(out)


@lru_cache(maxsize=None)
def n_suite() -> tuple[tuple[TotalCostModel, np.ndarray], ...]:
    return tuple(random_model(seed, num_states=5, controls_per_state=2, regime="N")
                 for seed in N_SEEDS)


@lru_cache(maxsize=None)
def p_suite() -> tuple[tuple[TotalCostModel, np.ndarray], ...]:
    return tuple(random_model(seed, num_states=5, controls_per_state=2, regime="P",
                              cost_range=(0.05, 2.0))
                 for seed in P_SEEDS)


def _gt(model: TotalCostModel, Jstar: np.ndarray):
    return (Jstar, h_backup(model, Jstar))


# ---------------------------------------------------------------------------


def footnote8() -> Report:
    """Nonpositive-cost trap: greedy at the optimum yet worthless."""
    rep = Report("footnote8")
    fx = fixture("FX-N2")
    res = value_iteration(fx.model, np.zeros(2),
                          SolverConfig(algorithm="vi", tol=1e-15, max_iter=3,
                                       stop_on_tol=False))
    rep.add("value iteration from 0 ends at (0, -1) exactly",
            np.array_equal(res.J, np.array([0.0, -1.0])), f"J={res.J.tolist()}")
    rep.add("declared optimum is (0, -1) exactly",
            np.array_equal(fx.Jstar, np.array([0.0, -1.0])))
    stay = Policy.deterministic(fx.model, [0, 0])
    t_mu = bellman_T_mu(fx.model, stay, fx.Jstar)
    t_opt = bellman_T(fx.model, fx.Jstar)
    rep.add("stay policy attains the optimal backup at the optimum",
            np.array_equal(t_mu, t_opt), f"T_mu={t_mu.tolist()} T={t_opt.tolist()}")
    J_stay = evaluate_policy(fx.model, stay).J
    rep.add("yet the stay policy collects nothing: J_mu = (0, 0) exactly",
            np.array_equal(J_stay, np.zeros(2)), f"J_mu={J_stay.tolist()}")
    return rep


def footnote9() -> Report:
    """Policy iteration stalls; the mixed method does not."""
    rep = Report("footnote9")
    fx = fixture("FX-P2")
    go = Policy.deterministic(fx.model, [0, 1])
    pi = policy_iteration(fx.model, go,
                          SolverConfig(algorithm="pi", ground_truth=fx.ground_truth()))
    rep.add("policy iteration from the paying policy terminates stuck",
            pi.termination == "stuck", f"termination={pi.termination}")
    rep.add("stuck value is (0, 1) exactly",
            np.array_equal(pi.values[-1], np.array([0.0, 1.0])),
            f"J_mu={pi.values[-1].tolist()}")
    rep.add("optimum is (0, 0)", np.array_equal(fx.Jstar, np.zeros(2)))
    J0 = np.zeros(2)
    cfg = SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0),
                       nk=5, bstrategy=FullB(), initial_policy=go,
                       tol=1e-12, max_iter=5,
                       ground_truth=fx.ground_truth())
    out = mixed_vpi(fx.model, cfg)
    rep.add("mixed iteration converges within 5 iterations to residual < 1e-10",
            out.converged and out.trace.final_residual < 1e-10,
            f"k={len(out.trace.rows)} residual={out.trace.final_residual:g}")
    rep.add("mixed limit matches (Jstar, Qstar)",
            sup_dist(out.J, fx.Jstar) < 1e-10 and sup_dist(out.Q, fx.Qstar) < 1e-10,
            f"J={out.J.tolist()} Q={out.Q.tolist()}")
    return rep


def cor51_gap() -> Report:
    """Interval controls make the value-iteration limit undershoot."""
    rep = Report("cor51-gap")
    fx = fixture("FX-P3a")
    res = value_iteration(fx.model, np.zeros(3),
                          SolverConfig(algorithm="vi", tol=1e-12, max_iter=400))
    rep.add("value iteration from 0 converges with limit 0 at the mixing state",
            res.J[2] == 0.0, f"J_inf={res.J.tolist()}")
    rep.add("trap state is classified divergent", 1 in res.divergent)
    fixed = bellman_T(fx.model, fx.Jstar)
    rep.add("the backup fixes (0, inf, 1) exactly",
            np.array_equal(fixed, fx.Jstar), f"T(Jstar)={fixed.tolist()}")
    rep.add("gap between optimum and limit at the mixing state is exactly 1",
            fx.Jstar[2] - res.J[2] == 1.0)
    J0 = np.array([0.0, INF, 2.0])  # twice the optimum
    res2 = value_iteration(fx.model, J0,
                           SolverConfig(algorithm="vi", tol=1e-15, max_iter=5,
                                        stop_on_tol=False))
    rep.add("value iteration from twice the optimum descends to it exactly",
            np.array_equal(res2.J, fx.Jstar), f"J={res2.J.tolist()}")
    return rep


def prop51_fixedpoints() -> Report:
    """Every stationary value is a fixed point while none is optimal."""
    rep = Report("prop51-fixedpoints")
    fx = fixture("FX-P3b")
    expected = np.array([0.0, 1.0, 2.0])
    all_ok = True
    for u in [round(0.1 * i, 1) for i in range(1, 10)]:
        pol = Policy((AtomicMix(np.array([1.0])), FamilyChoice(0, u),
                      AtomicMix(np.array([1.0]))))
        J = evaluate_policy(fx.model, pol).J
        fixed = bellman_T(fx.model, J)
        if not (np.array_equal(J, expected) and np.array_equal(fixed, J)):
            all_ok = False
            rep.add(f"stationary value at parameter {u}", False,
                    f"J={J.tolist()} T(J)={fixed.tolist()}")
    rep.add("every grid parameter yields J_mu = (0, 1, 2) fixed under the backup",
            all_ok)
    rep.add("optimum is (0, 0, 1)", np.array_equal(fx.Jstar, np.array([0.0, 0.0, 1.0])))
    J1 = bellman_T(fx.model, np.zeros(3))
    rep.add("one backup from zero already reaches the optimum exactly",
            np.array_equal(J1, fx.Jstar), f"T(0)={J1.tolist()}")
    rep.add("the optimum stays fixed",
            np.array_equal(bellman_T(fx.model, fx.Jstar), fx.Jstar))
    return rep


def _run_rate_check(model, Jstar, nk, rep: Report, label: str) -> bool:
    Qstar = h_backup(model, Jstar)
    cfg = SolverConfig(algorithm="mixed", J0=np.zeros(model.num_states),
                       Q0=np.zeros(model.num_pairs()), nk=nk,
                       bstrategy=FullB(), tol=1e-13, max_iter=100,
                       ground_truth=(Jstar, Qstar))
    try:
        out = mixed_vpi(model, cfg)
    except SolverCapError as err:  # the rate check reads a capped run too
        out = err.result
    report = verify_certificates(model, out.trace, (Jstar, Qstar))
    geo = [c for c in report.checks if c.name == "geometric-rate"]
    ok = bool(geo and geo[0].passed)
    if not ok:
        rep.add(label, False, geo[0].detail if geo else "no rate check emitted")
    return ok


def theorem41_rate() -> Report:
    """Discounted runs contract at the discount rate in both update rules."""
    rep = Report("theorem41-rate")
    fx = fixture("FX-D")
    ok_power = _run_rate_check(fx.model, fx.Jstar, 5, rep, "FX-D power rule")
    ok_exact = _run_rate_check(fx.model, fx.Jstar, "exact", rep, "FX-D exact rule")
    rep.add("FX-D satisfies the geometric bound under both update rules",
            ok_power and ok_exact)
    bad = 0
    for i, (model, Jstar) in enumerate(d_suite()):
        if not _run_rate_check(model, Jstar, 5, rep, f"suite model {i} power"):
            bad += 1
        if not _run_rate_check(model, Jstar, "exact", rep, f"suite model {i} exact"):
            bad += 1
    rep.add(f"all {len(d_suite())} random discounted models satisfy the "
            "geometric bound under both rules", bad == 0, f"failures={bad}")
    return rep


def theorem42() -> Report:
    """Nonpositive-cost convergence from the zero pair with the sandwich."""
    rep = Report("theorem42")
    fx = fixture("FX-N2")
    worst_env = -INF
    worst_dom = -INF

    def run(model, Jstar, nk):
        nonlocal worst_env, worst_dom
        Qstar = h_backup(model, Jstar)
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(model.num_states),
                           Q0=np.zeros(model.num_pairs()), nk=nk,
                           bstrategy=FullB(), tol=1e-11, max_iter=3000,
                           ground_truth=(Jstar, Qstar))
        out = mixed_vpi(model, cfg)
        for row in out.trace.rows:
            worst_env = max(worst_env, row.upper_margin)
            worst_dom = max(worst_dom, row.lower_margin, row.q_lower_margin)
        dist = max(sup_dist(out.J, Jstar), sup_dist(out.Q, Qstar))
        return dist

    dist_fx = run(fx.model, fx.Jstar, 5)
    rep.add("FX-N2 converges to its optimum within 1e-9", dist_fx <= 1e-9,
            f"dist={dist_fx:g}")
    worst_dist = 0.0
    for i, (model, Jstar) in enumerate(n_suite()):
        nk = 5 if i % 2 == 0 else "exact"
        worst_dist = max(worst_dist, run(model, Jstar, nk))
    rep.add("random nonpositive suite converges within 1e-9",
            worst_dist <= 1e-9, f"worst dist={worst_dist:g}")
    rep.add("upper sandwich J_k <= T^k(0) holds at every iteration",
            worst_env <= 5e-12, f"worst margin={worst_env:g}")
    rep.add("lower sandwich Jstar <= J_k, Qstar <= Q_k holds at every iteration",
            worst_dom <= 5e-12, f"worst margin={worst_dom:g}")
    return rep


def theorem51() -> Report:
    """Downward value iteration from a multiple of the optimum, cone checks."""
    rep = Report("theorem51")
    worst_mono = -INF
    worst_dist = 0.0
    worst_alt = 0.0
    rng = np.random.default_rng(12345)
    cases = [(fixture("FX-P4").model, fixture("FX-P4").Jstar)] + list(p_suite())
    for model, Jstar in cases:
        J = 1.5 * Jstar
        prev = J.copy()
        for _ in range(400):
            nxt = bellman_T(model, prev)
            worst_mono = max(worst_mono, float(np.max(nxt - prev)))
            if sup_dist(nxt, prev) <= 1e-13:
                prev = nxt
                break
            prev = nxt
        worst_dist = max(worst_dist, sup_dist(prev, Jstar))
        mid = rng.uniform(0.0, 1.5, size=model.num_states) * Jstar
        res = value_iteration(model, mid, SolverConfig(algorithm="vi", tol=1e-13,
                                                       max_iter=2000))
        worst_alt = max(worst_alt, sup_dist(res.J, Jstar))
    rep.add("iterates from 1.5x the optimum are monotone nonincreasing",
            worst_mono <= 1e-12, f"worst increase={worst_mono:g}")
    rep.add("they reach the optimum within 1e-9", worst_dist <= 1e-9,
            f"worst dist={worst_dist:g}")
    rep.add("value iteration from any start between 0 and 1.5x the optimum "
            "reaches the same limit", worst_alt <= 1e-9, f"worst dist={worst_alt:g}")

    fx = fixture("FX-P2")
    flagged = True
    for tval in (0.25, 0.5, 0.75, 1.0):
        J0 = np.array([0.0, tval])
        fixed = bellman_T(fx.model, J0)
        if not np.array_equal(fixed, J0):
            flagged = False
            rep.add(f"(0, {tval}) should be a fixed point", False)
            continue
        res = value_iteration(fx.model, J0, SolverConfig(
            algorithm="vi", tol=1e-12, max_iter=5, ground_truth=fx.ground_truth()))
        report = verify_certificates(fx.model, res.trace, fx.ground_truth())
        cone = [c for c in report.checks if c.name == "cone-membership"]
        if not cone or cone[0].passed:
            flagged = False
            rep.add(f"cone check at t={tval} should fail", False)
    rep.add("every spurious fixed point (0, t), t > 0, is flagged outside "
            "the convergence cone", flagged)
    return rep


def cor51_vi() -> Report:
    """Convergence from any start vanishing on the optimum's zero set."""
    rep = Report("cor51-vi")
    rng = np.random.default_rng(54321)
    worst = 0.0
    for model, Jstar in p_suite():
        J0 = np.where(Jstar > 0.0, rng.uniform(0.0, 5.0, size=model.num_states), 0.0)
        res = value_iteration(model, J0, SolverConfig(algorithm="vi", tol=1e-13,
                                                      max_iter=3000))
        worst = max(worst, sup_dist(res.J, Jstar))
    rep.add("value iteration converges within 1e-8 from random starts that "
            "vanish on the zero set of the optimum", worst <= 1e-8,
            f"worst dist={worst:g}")
    return rep


def theorem52() -> Report:
    """Mixed iteration from 1.5x the optimum on nonnegative-cost models."""
    rep = Report("theorem52")
    worst = 0.0
    worst_relaxed = 0.0
    for i, (model, Jstar) in enumerate(p_suite()):
        J0 = 1.5 * Jstar
        Q0 = h_backup(model, J0)
        nk = 5 if i % 2 == 0 else "exact"
        cfg = SolverConfig(algorithm="mixed", J0=J0, Q0=Q0, nk=nk,
                           bstrategy=FullB(), tol=1e-11, max_iter=4000,
                           ground_truth=_gt(model, Jstar))
        out = mixed_vpi(model, cfg)
        worst = max(worst, sup_dist(out.J, Jstar),
                    sup_dist(out.Q, h_backup(model, Jstar)))
        if i % 5 == 0:
            # Relaxed start: below the optimum but inside the cone.
            J0r = 0.7 * Jstar
            cfg_r = SolverConfig(algorithm="mixed", J0=J0r,
                                 Q0=h_backup(model, J0r), nk=5,
                                 bstrategy=FullB(), tol=1e-11, max_iter=4000,
                                 ground_truth=_gt(model, Jstar))
            out_r = mixed_vpi(model, cfg_r)
            worst_relaxed = max(worst_relaxed, sup_dist(out_r.J, Jstar))
    rep.add("mixed iteration converges within 1e-8 from 1.5x the optimum "
            "under both update rules", worst <= 1e-8, f"worst dist={worst:g}")
    rep.add("the relaxed start below the optimum also converges",
            worst_relaxed <= 1e-8, f"worst dist={worst_relaxed:g}")
    return rep


def theorem53() -> Report:
    """Constraint-program variant: convergence plus per-iteration bounds."""
    rep = Report("theorem53")
    worst_dist = 0.0
    worst_lower = -INF
    worst_upper = INF
    worst_cone = -INF
    for model, Jstar in p_suite():
        J0 = 1.5 * Jstar
        Q0 = h_backup(model, J0)
        cfg = SolverConfig(algorithm="lp", J0=J0, Q0=Q0,
                           bstrategy=FullB(), tol=1e-11, max_iter=4000,
                           ground_truth=_gt(model, Jstar))
        out = lp_variant_vpi(model, cfg)
        worst_dist = max(worst_dist, sup_dist(out.J, Jstar),
                         sup_dist(out.Q, h_backup(model, Jstar)))
        for row in out.trace.rows:
            worst_lower = max(worst_lower, row.extra["ineq_lower_margin"])
            worst_upper = min(worst_upper, row.extra["ineq_upper_margin"])
            if row.extra["cone_margin"] is not None:
                worst_cone = max(worst_cone, row.extra["cone_margin"])
    rep.add("constraint-program iteration converges within 1e-8",
            worst_dist <= 1e-8, f"worst dist={worst_dist:g}")
    rep.add("upper-bound inequality Q_{k+1} >= Q_fixed holds within 1e-10",
            worst_lower <= 1e-10, f"worst margin={worst_lower:g}")
    rep.add("self-consistency inequality Q_{k+1} <= F(Q_{k+1}; J_k) holds "
            "within 1e-10", worst_upper >= -1e-10, f"worst margin={worst_upper:g}")
    rep.add("iterates stay below 1.5x the optimum", worst_cone <= 5e-12,
            f"worst margin={worst_cone:g}")
    return rep


def _f_theta_limit(model, theta: Theta, J: np.ndarray,
                   tol: float = 1e-12) -> np.ndarray | None:
    """The paper's definition of the fixed point: F_theta(.; J) applied
    from the zero Q-vector until one application moves it by at most
    tol, with nothing sent to infinity on the way; None if that takes
    more than 100 000 applications."""
    Q = np.zeros(model.num_pairs())
    for _ in range(100_000):
        nxt = f_theta_apply(model, theta, Q, J)
        if sup_dist(nxt, Q) <= tol:
            return nxt
        Q = nxt
    return None


def lemma_a1_oracle() -> Report:
    """The exact fixed point, by the stopping route and by q_fixed_point,
    agrees with F_theta iterated from zero."""
    rep = Report("lemmaA1-oracle")
    worst = {"D": 0.0, "N": 0.0, "P": 0.0}
    worst_opt = 0.0
    for regime in ("D", "N", "P"):
        for i in range(100):
            seed = 1000 + i
            model, Jstar = _oracle_model(regime, seed)
            rng = np.random.default_rng(seed + 17)
            policy = random_policy(seed + 31, model)
            B = random_subset(seed + 53, model)
            theta = Theta(policy, B)
            if regime == "D":
                J = rng.uniform(-3.0, 3.0, size=model.num_states)
            elif regime == "N":
                J = -rng.uniform(0.0, 3.0, size=model.num_states)
            else:
                J = rng.uniform(0.0, 3.0, size=model.num_states)
            swept = _f_theta_limit(model, theta, J)
            prob = build_stopping(model, theta, J)
            via_stop = reconstruct_q(prob, solve_stopping(prob).V)
            direct, _ = q_fixed_point(model, theta, J)
            worst[regime] = max(worst[regime], INF if swept is None else
                                max(sup_dist(swept, via_stop), sup_dist(swept, direct)))
            if i % 10 == 0:
                direct_s, _ = q_fixed_point(model, theta, Jstar)
                prob_s = build_stopping(model, theta, Jstar)
                via_s = reconstruct_q(prob_s, solve_stopping(prob_s).V)
                Qstar = h_backup(model, Jstar)
                worst_opt = max(worst_opt, sup_dist(direct_s, Qstar),
                                sup_dist(via_s, Qstar))
    for regime in ("D", "N", "P"):
        rep.add(f"regime {regime}: the stopping route and q_fixed_point match "
                "F_theta iterated from zero within 1e-9 over 100 triples",
                worst[regime] <= 1e-9, f"worst gap={worst[regime]:g}")
    rep.add("at the optimum both routes return the optimal Q within 1e-9",
            worst_opt <= 1e-9, f"worst gap={worst_opt:g}")
    return rep


@lru_cache(maxsize=None)
def _oracle_model(regime: str, seed: int):
    return random_model(seed, num_states=4, controls_per_state=2, regime=regime,
                        discount=0.85 if regime == "D" else 0.9)


def lemma_a2_bound() -> Report:
    """The program's solution sandwiches the fixed point from above."""
    rep = Report("lemmaA2-bound")
    worst_lower = -INF
    worst_upper = INF
    for i in range(100):
        seed = 3000 + i
        model, _ = _oracle_model("P", seed)
        rng = np.random.default_rng(seed + 7)
        policy = random_policy(seed + 11, model, deterministic=True)
        B = random_subset(seed + 13, model)
        theta = Theta(policy, B)
        J = rng.uniform(0.0, 3.0, size=model.num_states)
        out = lp_upper_bound(model, theta, J)
        Qfix, _ = q_fixed_point(model, theta, J)
        F_Qbar = f_theta_apply(model, theta, out.Qbar, J)
        worst_lower = max(worst_lower, float(np.max(Qfix - out.Qbar)))
        worst_upper = min(worst_upper, float(np.min(F_Qbar - out.Qbar)))
    rep.add("Qbar >= Q_fixed elementwise within 1e-10 on 100 seeded triples",
            worst_lower <= 1e-10, f"worst margin={worst_lower:g}")
    rep.add("Qbar <= F(Qbar; J) elementwise within 1e-10",
            worst_upper >= -1e-10, f"worst margin={worst_upper:g}")
    return rep


def footnote5_equiv() -> Report:
    """With trusted-everywhere policies and unbounded stopping costs the
    mixed method replays optimistic policy iteration exactly."""
    rep = Report("footnote5-equiv")
    fx = fixture("FX-D")
    model = fx.model
    C = 20.0  # superharmonic constant start: max cost / (1 - alpha)
    m = 4
    iters = 30
    Q0 = np.full(model.num_pairs(), C)
    mu0 = greedy_select(model, Q0, epsilon=0.0)
    mixed_cfg = SolverConfig(
        algorithm="mixed", J0=np.full(model.num_states, INF), Q0=Q0,
        nk=tuple([m + 1] + [m] * (iters - 1)), bstrategy=FullB(),
        tol=1e-15, max_iter=iters, stop_on_tol=False,
        initial_policy=mu0)
    mixed = mixed_vpi(model, mixed_cfg)
    mpi_cfg = SolverConfig(algorithm="mpi", nk=m, tol=1e-15, max_iter=iters,
                           stop_on_tol=False)
    mpi = modified_policy_iteration(model, mu0, np.full(model.num_states, C), mpi_cfg)
    worst = 0.0
    for rmix, rmpi in zip(mixed.trace.rows, mpi.trace.rows):
        Jmix = np.array(rmix.extra["J_snapshot"])
        Jmpi = np.array(rmpi.extra["J_greedy"])
        worst = max(worst, sup_dist(Jmix, Jmpi))
    rep.add(f"the two value sequences coincide within 1e-12 over {iters} "
            "iterations", worst <= 1e-12, f"worst gap={worst:g}")
    return rep


def example51_patterns() -> Report:
    """Countable-state demonstrator: exact finite-front patterns and the
    nested-limit ladder."""
    rep = Report("example51")
    J = TailConstantVector.constant(0)
    ok = True
    for k in range(1, 9):
        J = example51_T(J)
        want = TailConstantVector.of((0,) + (1,) * k, 0)
        if J != want:
            ok = False
            rep.add(f"pattern at step {k}", False,
                    f"got prefix={J.prefix} tail={J.tail}")
    rep.add("the first eight backups from zero carry exactly k ones", ok)
    levels = [example51_transfinite_level(mm) for mm in range(12)]
    ladder = all(levels[mm + 1] == levels[mm].plus(1) for mm in range(11))
    rep.add("each nested-limit level is the previous plus one, exactly", ladder)
    shapes = all(levels[mm] == TailConstantVector.of((mm,), mm + 1)
                 for mm in range(12))
    rep.add("level m is (m, m+1, m+1, ...)", shapes)
    return rep


def lemma_e1() -> Report:
    """Expected optimal cost at the time-n state vanishes under any
    policy of finite cost."""
    rep = Report("lemmaE1")
    worst = 0.0
    cases = [(fixture("FX-P4").model, fixture("FX-P4").Jstar)] + list(p_suite())
    for model, Jstar in cases:
        policy = greedy_select(model, h_backup(model, Jstar), epsilon=0.0)
        finite = np.isfinite(Jstar)
        start = np.where(finite, 1.0, 0.0)
        start = start / start.sum()
        dist = state_marginal(model, policy, start, 600)
        tail = float(dist @ np.where(finite, Jstar, 0.0))
        worst = max(worst, tail)
    rep.add("E[Jstar(x_n)] < 1e-6 past the absorption horizon (n = 600)",
            worst < 1e-6, f"worst={worst:g}")
    return rep


SCENARIOS = {
    "footnote8": footnote8,
    "footnote9": footnote9,
    "cor51-gap": cor51_gap,
    "prop51-fixedpoints": prop51_fixedpoints,
    "theorem41-rate": theorem41_rate,
    "theorem42": theorem42,
    "theorem51": theorem51,
    "cor51-vi": cor51_vi,
    "theorem52": theorem52,
    "theorem53": theorem53,
    "lemmaA1-oracle": lemma_a1_oracle,
    "lemmaA2-bound": lemma_a2_bound,
    "footnote5-equiv": footnote5_equiv,
    "example51": example51_patterns,
    "lemmaE1": lemma_e1,
}


def run_scenario(name: str) -> Report:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name]()
