"""Gauss-Seidel prediction sweeps.

One sweep visits the blocks in their given order; block i's target
vector folds in the fresh updates of blocks 1..i-1, so the sweep is
inherently sequential.  The two variants differ only in which
multiplier the block solves see:

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


def _sweep_blocks(problem, state, lam, beta, inner_tol, warm_start, plans):
    """Sequential block solves sharing the multiplier vector ``lam``.

    Block i minimizes theta_i(x) + (beta/2)||A_i x - v_i||^2 with
    v_i = a_i - sum_{j<i}(a~_j - a_j) + lam/beta, which only needs the
    aggregates, never the raw primal blocks.
    """
    x_tilde, a_tilde = [], np.empty_like(state.a)
    drift = np.zeros(problem.m)
    shift = lam / beta
    for i, blk in enumerate(problem.blocks):
        v = state.a[i] - drift + shift
        req = SubproblemRequest(blk.theta, blk.set, blk.A, beta, v, blk.ortho_scaled, plans[i])
        x0 = warm_start[i] if warm_start is not None else None
        try:
            xi, ai = solve_block_subproblem(req, inner_tol, x0=x0)
        except SubproblemError as e:
            raise type(e)(f"block {i}: {e}") from e
        x_tilde.append(xi)
        a_tilde[i] = ai
        drift += ai - state.a[i]
    return tuple(x_tilde), a_tilde


def _check_state(problem, state):
    if state.a.shape != (problem.p, problem.m) or state.lam.shape != (problem.m,):
        raise ValueError(f"state shapes {state.a.shape}, {state.lam.shape} do not fit p={problem.p}, m={problem.m}")


def predict_pd(
    problem: SeparableProblem,
    state: IterateState,
    beta: float,
    inner_tol: float,
    warm_start=None,
    plans=None,
) -> PredictorState:
    """Primal-first prediction sweep: blocks 1..p, then the multiplier.

    Every block solve uses the incoming multiplier; the multiplier
    update then uses the freshly predicted aggregates.  ``plans`` are
    the blocks' :func:`compile_blocks` plans for this ``beta``; without
    them the blocks are compiled for this call, so a caller that loops
    should pass ``plans=compile_blocks(problem, beta)``, built once.
    """
    _check_state(problem, state)
    if plans is None:
        plans = compile_blocks(problem, beta)
    x_tilde, a_tilde = _sweep_blocks(problem, state, state.lam, beta, inner_tol, warm_start, plans)
    residual = a_tilde.sum(axis=0) - problem.b
    lam_tilde = solve_lambda_subproblem(state.lam, residual, beta, problem.sense)
    return _trusted(PredictorState, x_tilde=x_tilde, a_tilde=a_tilde, lambda_tilde=lam_tilde)


def predict_dp(
    problem: SeparableProblem,
    state: IterateState,
    beta: float,
    inner_tol: float,
    warm_start=None,
    plans=None,
) -> PredictorState:
    """Multiplier-first prediction sweep.

    The multiplier is updated from the *current* aggregates before any
    block moves, and every block solve then sees the fresh multiplier.
    ``plans`` are as for :func:`predict_pd`: a caller that loops should
    pass ``plans=compile_blocks(problem, beta)``, built once.
    """
    _check_state(problem, state)
    residual = state.a.sum(axis=0) - problem.b
    lam_tilde = solve_lambda_subproblem(state.lam, residual, beta, problem.sense)
    if plans is None:
        plans = compile_blocks(problem, beta)
    x_tilde, a_tilde = _sweep_blocks(problem, state, lam_tilde, beta, inner_tol, warm_start, plans)
    return _trusted(PredictorState, x_tilde=x_tilde, a_tilde=a_tilde, lambda_tilde=lam_tilde)
