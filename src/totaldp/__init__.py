"""Total-cost dynamic programming for finite MDPs.

Solver library and CLI for discounted (D), nonpositive-cost (N), and
nonnegative-cost (P) total-cost problems: classical value and policy
iteration, mixed value-and-policy iteration built on parametrized
evaluation operators, their exact solution as an optimal stopping
problem, constraint-program evaluation bounds, convergence certificates,
and a fixture library with known ground truth.
"""

from .extreal import INF, expect, sup_dist, xadd, xmul
from .model import (
    AffineFamily,
    AtomicControl,
    AtomicMix,
    FamilyChoice,
    Policy,
    TotalCostModel,
    induced_kernel,
    validate_model,
    validate_policy,
)
from .operators import (
    affine_infimum,
    bellman_T,
    bellman_T_mu,
    greedy_select,
    h_backup,
    m_minimize,
)
from .chains import (
    evaluate_policy,
    occupation_measure,
    state_marginal,
)
from .ftheta import (
    Theta,
    f_theta_apply,
    f_theta_power,
    masked_update,
    q_fixed_point,
)
from .stopping import (
    AssumptionError,
    StoppingProblem,
    build_stopping,
    lp_upper_bound,
    reconstruct_q,
    solve_stopping,
)
from .solvers import (
    CustomB,
    FullB,
    IterationTrace,
    OccupationSupportB,
    SolveResult,
    SolverCapError,
    SolverConfig,
    cone_multiplier,
    extract_policy_discounted,
    lp_variant_vpi,
    mixed_vpi,
    modified_policy_iteration,
    policy_iteration,
    run,
    value_iteration,
    verify_certificates,
)
from .fixtures import (
    Fixture,
    TailConstantVector,
    example51_T,
    example51_limit,
    example51_transfinite_level,
    fixture,
    fixture_names,
    random_model,
    random_policy,
)

__version__ = "0.1.0"
