"""Main iteration driver: alternate prediction and correction, with
stopping logic, per-iteration diagnostics, and a contraction audit.

Each iteration predicts a full primal-dual point by one Gauss-Seidel
sweep, logs residuals, then applies the cheap aggregate correction.
The reported solution is always the latest *predictor*: it is exactly
set-feasible by construction, whereas the corrected aggregates need not
correspond to any primal point.

Convergence is declared when primal feasibility, complementarity, and
the prediction gap ||xi - xi~|| (measured in scaled-aggregate
coordinates) all fall below the tolerance.  The prediction gap is the
quantity whose decay drives the convergence theory, and it is also what
the contraction audit consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .corrector import correct_dp, correct_pd
from .matrices import build_g, build_h, h_norm, xi_from_aggregates
from .model import (
    IterateState,
    PredictorState,
    SeparableProblem,
    SolverConfig,
    feasibility_residual,
    objective_value,
    validate_problem,
)
from .predictor import predict_dp, predict_pd
from .prox import NonConvergenceError, SingularSystemError

__all__ = [
    "CONVERGED",
    "MAX_ITERS",
    "SUBPROBLEM_FAILURE",
    "StopReason",
    "RunLog",
    "RunResult",
    "MissingReferenceError",
    "run",
    "contraction_check",
]

CONVERGED = "converged"
MAX_ITERS = "max_iters"
SUBPROBLEM_FAILURE = "subproblem_failure"

CSV_COLUMNS = ["iter", "primal_res", "compl_res", "pred_gap", "dist_H", "objective"]


class MissingReferenceError(ValueError):
    """Contraction audit asked for without a reference solution or
    without recorded snapshots."""


@dataclass(frozen=True)
class StopReason:
    kind: str
    detail: str = ""

    def __str__(self):
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


@dataclass
class RunLog:
    """Per-iteration history of a solver run.

    ``dist_h`` entries are None when no reference solution was
    supplied.  ``xi_states``/``xi_preds`` hold scaled-aggregate
    snapshots when recording was enabled; ``xi_states`` then has one
    extra trailing entry for the post-correction state.
    """

    iters: list = field(default_factory=list)
    primal_res: list = field(default_factory=list)
    compl_res: list = field(default_factory=list)
    pred_gap: list = field(default_factory=list)
    dist_h: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    xi_states: list = field(default_factory=list)
    xi_preds: list = field(default_factory=list)

    def append(self, k, primal, compl, gap, dist, obj):
        self.iters.append(int(k))
        self.primal_res.append(float(primal))
        self.compl_res.append(float(compl))
        self.pred_gap.append(float(gap))
        self.dist_h.append(None if dist is None else float(dist))
        self.objective.append(float(obj))

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path):
        """Write the log with the fixed column order; dist_H cells are
        empty when no reference was supplied."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i in range(len(self.iters)):
                d = self.dist_h[i]
                writer.writerow(
                    [
                        self.iters[i],
                        repr(self.primal_res[i]),
                        repr(self.compl_res[i]),
                        repr(self.pred_gap[i]),
                        "" if d is None else repr(d),
                        repr(self.objective[i]),
                    ]
                )


class RunResult(NamedTuple):
    solution: Optional[PredictorState]
    state: IterateState
    log: RunLog
    reason: StopReason


def _reference_pair(reference):
    if hasattr(reference, "a") and hasattr(reference, "lam"):
        reference = reference.a, reference.lam
    a_ref, lam_ref = reference
    return np.asarray(a_ref, dtype=float), np.asarray(lam_ref, dtype=float)


def _initial_state(problem, init):
    if init is None:
        return IterateState(np.zeros((problem.p, problem.m)), np.zeros(problem.m))
    x0, lam0 = init
    return IterateState([blk.A @ np.asarray(xi, dtype=float) for blk, xi in zip(problem.blocks, x0)], lam0)


def run(
    problem: SeparableProblem,
    config: SolverConfig = SolverConfig(),
    init=None,
    reference=None,
) -> RunResult:
    """Drive the predict/correct iteration to convergence.

    Parameters
    ----------
    problem : SeparableProblem
        The model to solve; it must pass :func:`validate_problem`.
    config : SolverConfig
        Variant, penalty, correction factor, tolerances.
    init : (x0_blocks, lam0), optional
        Initial primal blocks and multiplier; zeros by default.  The
        primal blocks are only used once, to form the aggregates.
    reference : (a_star, lam_star) or object with .a/.lam, optional
        Known solution aggregates; enables the dist_H column and the
        contraction audit.

    Returns
    -------
    RunResult
        ``solution`` is the final predictor (set-feasible), ``state``
        the post-correction aggregates, ``log`` the history, and
        ``reason`` why the loop stopped.  Subproblem failures abort
        with the partial log instead of raising.
    """
    violations = validate_problem(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))

    predict = predict_pd if config.variant == "pd" else predict_dp
    correct = correct_pd if config.variant == "pd" else correct_dp
    beta, nu = config.beta, config.nu

    state = _initial_state(problem, init)
    log = RunLog()

    if reference is not None:
        a_ref, lam_ref = _reference_pair(reference)

    pred = None
    warm = None
    reason = StopReason(MAX_ITERS, f"no convergence in {config.max_iters} iterations")
    for k in range(config.max_iters):
        xi_k = xi_from_aggregates(state.a, state.lam, beta)
        try:
            new_pred = predict(problem, state, beta, config.inner_tol, warm_start=warm)
        except (SingularSystemError, NonConvergenceError) as e:
            reason = StopReason(SUBPROBLEM_FAILURE, str(e))
            break
        pred = new_pred
        warm = pred.x_tilde
        xi_t = xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, beta)

        gap = float(np.linalg.norm(xi_k - xi_t))
        primal, compl = feasibility_residual(problem, pred.a_tilde, pred.lambda_tilde)
        obj = objective_value(problem, pred.x_tilde)
        dist = None
        if reference is not None:
            dist = h_norm(config.variant, nu, beta, state.a - a_ref, state.lam - lam_ref)
        log.append(k, primal, compl, gap, dist, obj)
        if config.record_xi:
            log.xi_states.append(xi_k)
            log.xi_preds.append(xi_t)

        state = correct(state, pred, nu, beta)
        if max(primal, compl, gap) <= config.tol:
            reason = StopReason(CONVERGED)
            break

    if config.record_xi:
        log.xi_states.append(xi_from_aggregates(state.a, state.lam, beta))
    return RunResult(pred, state, log, reason)


def contraction_check(log: RunLog, problem: SeparableProblem, config: SolverConfig, reference) -> list:
    """Audit the per-iteration contraction inequality.

    For every recorded iteration k, checks

        ||xi^{k+1} - xi*||_H^2  <=  ||xi^k - xi*||_H^2 - ||xi^k - xi~^k||_G^2

    up to a slack of 1e-8 relative to the squared distance plus a
    budget proportional to the inner tolerance (inexact block solves
    perturb the inequality).  Returns the list of iteration indices
    that violate it; an empty list certifies the run.
    """
    if reference is None:
        raise MissingReferenceError("contraction audit needs a reference solution")
    if len(log.xi_preds) == 0 or len(log.xi_states) < len(log.xi_preds) + 1:
        raise MissingReferenceError("log has no xi snapshots; run with record_xi=True")
    a_ref, lam_ref = _reference_pair(reference)
    H = build_h(config.variant, problem.p, problem.m, config.nu)
    G = build_g(config.variant, problem.p, problem.m, config.nu)
    xi_ref = xi_from_aggregates(a_ref, lam_ref, config.beta)

    violations = []
    for k in range(len(log.xi_preds)):
        dk = log.xi_states[k] - xi_ref
        dk1 = log.xi_states[k + 1] - xi_ref
        gk = log.xi_states[k] - log.xi_preds[k]
        lhs = float(dk1 @ H @ dk1)
        dist_sq = float(dk @ H @ dk)
        rhs = dist_sq - float(gk @ G @ gk)
        slack = 1e-8 * (1.0 + dist_sq) + 100.0 * config.inner_tol
        if lhs > rhs + slack:
            violations.append(k)
    return violations
