"""Gauss-Seidel prediction sweeps.

One sweep visits the blocks in their given order; block i's target
vector folds in the fresh updates of blocks 1..i-1, so the sweep is
inherently sequential.  Both variants run the same core,
``_predict(variant, ...)``, and differ only in when the multiplier
moves, and so in which multiplier the block solves see:

* ``predict_pd``: blocks first using the current multiplier, then the
  multiplier from the predicted aggregates;
* ``predict_dp``: multiplier first from the current aggregates, then
  the blocks using the fresh multiplier.
"""

from __future__ import annotations

import numpy as np

from .model import IterateState, PredictorState, SeparableProblem, _trusted
from .prox import (
    SubproblemError,
    SubproblemRequest,
    compile_block,
    solve_block_subproblem,
    solve_lambda_subproblem,
)

__all__ = ["compile_blocks", "predict_pd", "predict_dp"]


def compile_blocks(problem, beta):
    """One :func:`~pcadmm.prox.compile_block` plan per block, for the
    ``plans`` argument of the sweeps; an error names its block."""
    plans = []
    for i, blk in enumerate(problem.blocks):
        try:
            plans.append(compile_block(blk, beta))
        except SubproblemError as e:
            raise type(e)(f"block {i}: {e}") from e
    return plans


def _predict(variant, problem, state, beta, inner_tol, warm_start, plans):
    """One prediction sweep of ``variant``.

    For ``"dp"`` the multiplier moves first, from the current
    aggregates.  Block i then minimizes theta_i(x) + (beta/2)||A_i x - v_i||^2
    with v_i = a_i - sum_{j<i}(a~_j - a_j) + lam/beta, which only needs
    the aggregates, never the raw primal blocks, and its plan's
    ``value`` gives theta_i at the point found.  For ``"pd"`` the
    multiplier moves last, from the predicted aggregates.
    """
    a, lam = state.a, state.lam
    if a.shape != (problem.p, problem.m) or lam.shape != (problem.m,):
        raise ValueError(f"state shapes {a.shape}, {lam.shape} do not fit p={problem.p}, m={problem.m}")
    if warm_start is not None and len(warm_start) != problem.p:
        raise ValueError(f"warm_start has {len(warm_start)} blocks, expected p={problem.p}")
    if variant == "dp":
        lam = solve_lambda_subproblem(lam, a.sum(axis=0) - problem.b, beta, problem.sense)
    if plans is None:
        plans = compile_blocks(problem, beta)
    x_tilde, theta_tilde, a_tilde = [], [], np.empty_like(a)
    drift = np.zeros(problem.m)
    shift = lam / beta
    for i, blk in enumerate(problem.blocks):
        plan, v = plans[i], a[i] - drift + shift
        req = SubproblemRequest(blk.theta, blk.set, blk.A, beta, v, blk.ortho_scaled, plan)
        x0 = warm_start[i] if warm_start is not None else None
        try:
            xi, ai = solve_block_subproblem(req, inner_tol, x0=x0)
        except SubproblemError as e:
            raise type(e)(f"block {i}: {e}") from e
        x_tilde.append(xi)
        theta_tilde.append(plan.value(xi, v, ai))
        a_tilde[i] = ai
        drift += ai - a[i]
    if variant == "pd":
        lam = solve_lambda_subproblem(lam, a_tilde.sum(axis=0) - problem.b, beta, problem.sense)
    theta_tilde = np.array(theta_tilde, dtype=float)
    return _trusted(PredictorState, x_tilde=tuple(x_tilde), a_tilde=a_tilde, lambda_tilde=lam, theta_tilde=theta_tilde)


def predict_pd(
    problem: SeparableProblem,
    state: IterateState,
    beta: float,
    inner_tol: float,
    warm_start=None,
    plans=None,
) -> PredictorState:
    """Primal-first prediction sweep: blocks 1..p with the incoming
    multiplier, then the multiplier from the predicted aggregates.
    ``plans`` are the blocks' :func:`compile_blocks` plans for this
    ``beta``; without them the sweep calls :func:`compile_blocks` itself,
    on each call, so a caller that loops should pass
    ``plans=compile_blocks(problem, beta)``, built once.  The result's
    ``theta_tilde`` holds each block's theta at its point, from its
    plan's ``value``: on the exact route from the normal equations, so
    it agrees with ``theta.value`` to roundoff."""
    return _predict("pd", problem, state, beta, inner_tol, warm_start, plans)


def predict_dp(
    problem: SeparableProblem,
    state: IterateState,
    beta: float,
    inner_tol: float,
    warm_start=None,
    plans=None,
) -> PredictorState:
    """Multiplier-first prediction sweep: the multiplier from the
    current aggregates, then blocks 1..p with the fresh multiplier.
    ``plans`` are as for :func:`predict_pd`."""
    return _predict("dp", problem, state, beta, inner_tol, warm_start, plans)
