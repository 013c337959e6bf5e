"""Solvers for the canonical block subproblem

    min_{x in X}  theta(x) + (beta/2) ||Ax - v||^2.

Every minimization in a prediction sweep reduces to this form after
completing the square, so this module is the only place that actually
solves anything.  Three routes are dispatched on the block structure:
an exact symmetric solve for quadratic objectives without set
constraints, closed-form shrinkage/projection when A'A is a scaled
identity, and a projected-gradient inner loop otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Box, Custom, Free, GE, NonNeg, Quadratic, WeightedL1, Zero

__all__ = [
    "SubproblemRequest",
    "SingularSystemError",
    "NonConvergenceError",
    "prox_shrink",
    "project_set",
    "solve_block_subproblem",
    "solve_lambda_subproblem",
]

# Iteration cap for the projected-gradient inner loop.
MAX_INNER_ITERS = 200_000


class SingularSystemError(np.linalg.LinAlgError):
    """Quadratic subproblem has a singular normal matrix and no set
    constraint to regularize it."""


class NonConvergenceError(RuntimeError):
    """Projected-gradient inner loop exhausted its iteration cap."""


@dataclass(frozen=True)
class SubproblemRequest:
    """One block minimization: min over ``set`` of theta(x) + (beta/2)||Ax - v||^2.

    ``v`` already carries the Gauss-Seidel drift of the earlier blocks
    and the multiplier term, so the request is self-contained.
    ``ortho_scaled`` mirrors the block flag declaring A'A = c*I.
    """

    theta: object
    set: object
    A: np.ndarray
    beta: float
    v: np.ndarray
    ortho_scaled: bool = False


def prox_shrink(v, tau):
    """Componentwise soft threshold: sign(v) * max(|v| - tau, 0)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_set(v, set_spec):
    """Euclidean projection of v onto a block set."""
    v = np.asarray(v, dtype=float)
    if isinstance(set_spec, Free):
        return v
    if isinstance(set_spec, NonNeg):
        return np.maximum(v, 0.0)
    if isinstance(set_spec, Box):
        return np.clip(v, set_spec.lo, set_spec.hi)
    raise TypeError(f"unknown set {type(set_spec).__name__}")


def _is_linear_quadratic(theta):
    return isinstance(theta, Quadratic) and not theta.H.any()


def solve_block_subproblem(req: SubproblemRequest, inner_tol: float, x0=None):
    """Solve one block subproblem; returns ``(x, A @ x)``.

    Dispatch, in this order:

    * custom atoms delegate to their own solver;
    * soft-threshold / projection closed forms when ``ortho_scaled``
      and the objective is an l1 atom, zero, or purely linear;
    * quadratic objective, free set: exact solve of the normal
      equations ``(H + beta A'A) x = beta A'v - c`` (raises
      :class:`SingularSystemError` when the matrix is not positive
      definite);
    * anything else runs a projected-gradient loop from ``x0`` until
      the gradient-map norm is safely below ``inner_tol``.

    The returned point is exactly feasible for nonneg/box sets.
    """
    if inner_tol <= 0:
        raise ValueError("inner_tol must be positive")
    theta, beta, A, v = req.theta, float(req.beta), req.A, np.asarray(req.v, dtype=float)

    if isinstance(theta, Custom):
        x = np.asarray(theta.solve(req, inner_tol, x0), dtype=float)
        return x, A @ x

    if req.ortho_scaled and (isinstance(theta, (WeightedL1, Zero)) or _is_linear_quadratic(theta)):
        # A'A = scale * I, so the subproblem separates componentwise in
        # u = A'v / scale and the constrained scalar minimizer is the
        # clamp of the unconstrained one.
        scale = float(A[:, 0] @ A[:, 0])
        u = (A.T @ v) / scale
        if isinstance(theta, WeightedL1):
            z = prox_shrink(u, theta.tau / (beta * scale))
        elif isinstance(theta, Zero):
            z = u
        else:
            z = u - theta.c / (beta * scale)
        x = project_set(z, req.set)
        return x, A @ x

    if isinstance(theta, Quadratic) and isinstance(req.set, Free):
        S = theta.H + beta * (A.T @ A)
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise SingularSystemError("normal matrix H + beta*A'A is singular") from None
        x = np.linalg.solve(S, beta * (A.T @ v) - theta.c)
        return x, A @ x

    x = _projected_gradient(req, inner_tol, x0)
    return x, A @ x


def _projected_gradient(req, inner_tol, x0):
    """Proximal/projected gradient on the split objective.

    Smooth part: (beta/2)||Ax - v||^2 plus any quadratic atom.
    Nonsmooth part: the l1 atom (if any) and the set indicator, whose
    joint prox is shrink-then-project because both act componentwise.
    """
    A, beta, v = req.A, float(req.beta), np.asarray(req.v, dtype=float)
    n = A.shape[1]
    if isinstance(req.theta, Quadratic):
        H, c = req.theta.H, req.theta.c
    else:
        H, c = np.zeros((n, n)), np.zeros(n)
    tau = req.theta.tau if isinstance(req.theta, WeightedL1) else 0.0

    S = H + beta * (A.T @ A)
    lip = float(np.linalg.eigvalsh(S)[-1])
    if lip <= 0.0:
        return project_set(np.zeros(n) if x0 is None else np.asarray(x0, dtype=float), req.set)
    step = 1.0 / lip

    x = project_set(np.zeros(n) if x0 is None else x0, req.set)
    # The gradient-map threshold keeps a margin below inner_tol so the
    # optimality defect stays under inner_tol even for probe points a
    # moderate distance away.
    gtol = 0.04 * inner_tol
    for _ in range(MAX_INNER_ITERS):
        grad = H @ x + c + beta * (A.T @ (A @ x - v))
        x_next = project_set(prox_shrink(x - step * grad, step * tau), req.set)
        gap = float(np.linalg.norm(x - x_next)) * lip
        x = x_next
        if gap <= gtol:
            return x
    raise NonConvergenceError(
        f"projected gradient did not reach tolerance {inner_tol:g} in {MAX_INNER_ITERS} iterations"
    )


def solve_lambda_subproblem(lambda_ref, residual, beta, sense):
    """Multiplier update: lambda_ref - beta*residual, projected onto the
    nonnegative orthant for the inequality sense.

    The caller supplies ``residual = sum_i A_i x_i - b`` evaluated at
    whichever point the variant prescribes (predicted blocks for the
    primal-first order, current aggregates for the multiplier-first
    order).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    lam = np.asarray(lambda_ref, dtype=float) - beta * np.asarray(residual, dtype=float)
    if sense == GE:
        return np.maximum(lam, 0.0)
    return lam
