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
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .corrector import correct_dp, correct_pd
from .matrices import build_g, build_h, kron_form, xi_from_aggregates
from .model import (
    IterateState,
    PredictorState,
    SeparableProblem,
    SolverConfig,
    _finite,
    _norm,
    feasibility_residual,
    objective_value,
    validate_problem,
)
from .predictor import compile_blocks, predict_dp, predict_pd
from .prox import SubproblemError

__all__ = [
    "CONVERGED",
    "MAX_ITERS",
    "NON_FINITE",
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
NON_FINITE = "non_finite"
SUBPROBLEM_FAILURE = "subproblem_failure"

# The CSV log's columns in file order: (header, RunLog list) pairs.
_COLUMNS = (
    ("iter", "iters"), ("primal_res", "primal_res"), ("compl_res", "compl_res"),
    ("pred_gap", "pred_gap"), ("dist_H", "dist_h"), ("objective", "objective"),
)
CSV_COLUMNS = [header for header, _ in _COLUMNS]

# The most bytes of snapshots contraction_check stacks at once.
_AUDIT_BYTES = 64 * 1024


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
        columns = [getattr(self, name) for _, name in _COLUMNS]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in zip(*columns, strict=True):
                writer.writerow(["" if v is None else repr(v) for v in row])


class RunResult(NamedTuple):
    solution: Optional[PredictorState]
    state: IterateState
    log: RunLog
    reason: StopReason


def _reference_pair(reference, problem):
    """The reference as (p, m) aggregates and an (m,) multiplier."""
    if hasattr(reference, "a") and hasattr(reference, "lam"):
        reference = reference.a, reference.lam
    a_ref, lam_ref = (np.asarray(v, dtype=float) for v in reference)
    p, m = problem.p, problem.m
    if a_ref.shape != (p, m) or lam_ref.shape != (m,):
        raise ValueError(
            f"reference aggregates have shape {a_ref.shape} and multiplier {lam_ref.shape}, "
            f"expected {(p, m)} and {(m,)}"
        )
    if not (_finite(a_ref) and _finite(lam_ref)):
        raise ValueError("reference aggregates and multiplier must be finite")
    return a_ref, lam_ref


def _initial_state(problem, init):
    if init is None:
        return IterateState(np.zeros((problem.p, problem.m)), np.zeros(problem.m))
    x0, lam0 = init
    x0 = [np.asarray(xi, dtype=float) for xi in x0]
    lam0 = np.asarray(lam0, dtype=float)
    shapes = [(blk.n,) for blk in problem.blocks]
    if [xi.shape for xi in x0] != shapes or lam0.shape != (problem.m,):
        raise ValueError(
            f"init blocks have shapes {[xi.shape for xi in x0]} and multiplier {lam0.shape}, "
            f"expected {shapes} and {(problem.m,)}"
        )
    return IterateState([blk.A @ xi for blk, xi in zip(problem.blocks, x0)], lam0)


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
        Known solution aggregates, finite; enables the dist_H column
        and the contraction audit.

    Returns
    -------
    RunResult
        ``solution`` is the final predictor (set-feasible), ``state``
        the post-correction aggregates, ``log`` the history, and
        ``reason`` why the loop stopped.  Subproblem failures abort
        with the partial log instead of raising, and a non-finite
        residual or gap stops the run after its row is logged.

    Each block's solve is compiled once (:func:`compile_blocks`), after
    validation; a block that cannot be set up, such as an exact block
    with a singular or non-finite normal matrix, stops the run before
    its first iteration.
    """
    violations = validate_problem(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))

    predict, correct = (predict_pd, correct_pd) if config.variant == "pd" else (predict_dp, correct_dp)
    beta, nu = config.beta, config.nu

    state = _initial_state(problem, init)
    log = RunLog()

    if reference is not None:
        H = build_h(config.variant, problem.p, 1, nu)
        xi_ref = xi_from_aggregates(*_reference_pair(reference, problem), beta)

    pred = None
    warm = None
    reason = StopReason(MAX_ITERS, f"no convergence in {config.max_iters} iterations")
    iterations = range(config.max_iters)
    # Overflowing data ends the run as non_finite, from its logged row,
    # or as subproblem_failure from the compile, not with a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            plans = compile_blocks(problem, beta)
        except SubproblemError as e:
            reason, iterations = StopReason(SUBPROBLEM_FAILURE, str(e)), ()
        for k in iterations:
            xi_k = xi_from_aggregates(state.a, state.lam, beta)
            try:
                pred = predict(problem, state, beta, config.inner_tol, warm_start=warm, plans=plans)
            except SubproblemError as e:
                reason = StopReason(SUBPROBLEM_FAILURE, str(e))
                break
            warm = pred.x_tilde
            xi_t = xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, beta)

            gap = _norm(xi_k - xi_t)
            primal, compl = feasibility_residual(problem, pred.a_tilde, pred.lambda_tilde)
            obj = objective_value(problem, pred.x_tilde, pred.theta_tilde)
            dist = None
            if reference is not None:
                q = kron_form(H, (xi_k - xi_ref).reshape(problem.p + 1, problem.m))
                dist = math.sqrt(q) if not q < 0.0 else 0.0  # a NaN form logs NaN
            log.append(k, primal, compl, gap, dist, obj)
            if config.record_xi:
                log.xi_states.append(xi_k)
                log.xi_preds.append(xi_t)
            if not all(map(math.isfinite, (primal, compl, gap))):
                reason = StopReason(NON_FINITE, f"iteration {k}: primal_res={primal}, compl_res={compl}, pred_gap={gap}")
                break

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
    where it is not shown to hold, so a non-finite term counts as a
    violation, and an empty list means no recorded iteration violates
    it.  ``reference`` must be finite.

    The K + 1 states and K predictions are stacked in consecutive
    blocks of at most max(1, 64 KiB // (8 (p+1) m)) snapshots each.
    Beside the log, the audit holds at most about three blocks' bytes
    (a block's two stacks, and either numpy's buffer for the broadcast
    reference subtraction or the next block's first stack) plus O(K)
    floats, not a second copy of the log.
    """
    if reference is None:
        raise MissingReferenceError("contraction audit needs a reference solution")
    p, m, K = problem.p, problem.m, len(log.xi_preds)
    if len(log.xi_states) < K + 1:
        raise MissingReferenceError(
            f"log has {len(log.xi_states)} xi states and {K} predictions, expected {K + 1} states "
            "(a run records them with record_xi=True)"
        )
    states, preds = log.xi_states[: K + 1], log.xi_preds
    lengths = sorted({np.size(xi) for xi in states + preds} - {(p + 1) * m})
    if lengths:
        raise ValueError(f"xi snapshot has length {lengths[0]}, expected (p+1)m = {(p + 1) * m}")
    H = build_h(config.variant, p, 1, config.nu)
    G = build_g(config.variant, p, 1, config.nu)
    xi_ref = xi_from_aggregates(*_reference_pair(reference, problem), config.beta)

    size = max(1, _AUDIT_BYTES // (8 * (p + 1) * m))
    h_forms, g_forms = [], []
    # Overflowed snapshots give inf or NaN forms, and NaN compares False:
    # an iteration passes only when `<=` holds, so that test is negated.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, K + 1, size):
            # A log that fits in one block is stacked from its lists, not from copies.
            d = np.array(states if size > K else states[lo : lo + size], dtype=float).reshape(-1, p + 1, m)
            g = np.array(preds if size > K else preds[lo : lo + size], dtype=float).reshape(-1, p + 1, m)
            np.subtract(d[: len(g)], g, out=g)
            d -= xi_ref.reshape(p + 1, m)
            h_forms.append(kron_form(H, d))
            g_forms.append(kron_form(G, g))
        dist_sq, g_sq = np.concatenate(h_forms), np.concatenate(g_forms)
        rhs = dist_sq[:K] - g_sq
        slack = 1e-8 * (1.0 + dist_sq[:K]) + 100.0 * config.inner_tol
        return np.flatnonzero(~(dist_sq[1:] <= rhs + slack)).tolist()
