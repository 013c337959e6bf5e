"""Prediction-correction splitting solvers for separable convex
programs with linear equality or inequality constraints.

The library couples cheap Gauss-Seidel prediction sweeps with an even
cheaper aggregate correction step, in two update orders (primal blocks
first or multiplier first), uniformly over any number of blocks.  A
verification layer builds the certificate matrices behind the
convergence guarantee and machine-checks them, and benchmark generators
with independent oracles make the contraction property directly
testable.
"""

from .corrector import correct_dp, correct_pd
from .matrices import (
    ClosedFormMismatchError,
    FrameworkReport,
    build_g,
    build_h,
    build_m,
    build_p,
    build_q,
    check_skew,
    kron_form,
    split_stacked,
    stack_blocks,
    verify_framework,
    vi_operator,
    xi_from_aggregates,
)
from .model import (
    EQ,
    GE,
    BlockSpec,
    Box,
    Custom,
    Free,
    IterateState,
    NonNeg,
    PredictorState,
    Quadratic,
    SeparableProblem,
    SolverConfig,
    WeightedL1,
    Zero,
    feasibility_residual,
    lagrangian_value,
    objective_value,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from .predictor import compile_blocks, predict_dp, predict_pd
from .problems import (
    ReferenceSolution,
    active_set_oracle,
    gen_eq_qp,
    gen_ineq_qp,
    gen_lasso,
    gen_toy_svm,
    kkt_oracle,
)
from .prox import (
    NonConvergenceError,
    NonConvexError,
    SingularSystemError,
    SubproblemError,
    SubproblemRequest,
    compile_block,
    project_set,
    prox_shrink,
    solve_block_subproblem,
    solve_lambda_subproblem,
)
from .solver import (
    CONVERGED,
    MAX_ITERS,
    NON_FINITE,
    SUBPROBLEM_FAILURE,
    MissingReferenceError,
    RunLog,
    RunResult,
    StopReason,
    contraction_check,
    run,
)

__version__ = "0.1.0"
