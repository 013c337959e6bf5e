"""Correction step applied to the aggregates after each prediction.

The update is written out componentwise instead of materializing the
correction matrix: with d_i = a_i - a~_i and d_lam = lam - lam~,

    a_i'  = a_i - nu*d_i + nu*d_{i+1}          (last block: no d_{i+1})
    lam'  = lam + nu*beta*d_1 - d_lam          primal-first variant
    lam'  = lam + beta*sum_i d_i - d_lam       multiplier-first variant

so one correction costs only a handful of vector additions on the
(p, m) aggregate array.  The inputs are validated states, so the
corrected state is built from the resulting float arrays as they are.
The matrix form lives in :mod:`pcadmm.matrices` for verification.
"""

from __future__ import annotations

from .model import IterateState, PredictorState, _trusted

__all__ = ["correct_pd", "correct_dp"]


def _correct_aggregates(state, pred, nu):
    """The directions d = a - a~ and d_lam = lam - lam~, and the
    corrected aggregates."""
    if state.a.shape != pred.a_tilde.shape or state.lam.shape != pred.lambda_tilde.shape:
        raise ValueError(
            f"state shapes {state.a.shape}, {state.lam.shape} differ from "
            f"predictor shapes {pred.a_tilde.shape}, {pred.lambda_tilde.shape}"
        )
    d = state.a - pred.a_tilde
    a_new = state.a - nu * d
    a_new[:-1] += nu * d[1:]
    return d, state.lam - pred.lambda_tilde, a_new


def correct_pd(state: IterateState, pred: PredictorState, nu: float, beta: float) -> IterateState:
    """Correction for the primal-first variant; the multiplier row
    couples only to the first block's direction, scaled by nu*beta."""
    d, d_lam, a_new = _correct_aggregates(state, pred, nu)
    return _trusted(IterateState, a=a_new, lam=state.lam + nu * beta * d[0] - d_lam)


def correct_dp(state: IterateState, pred: PredictorState, nu: float, beta: float) -> IterateState:
    """Correction for the multiplier-first variant; the multiplier row
    sums the directions of all blocks with coefficient beta (not
    nu*beta)."""
    d, d_lam, a_new = _correct_aggregates(state, pred, nu)
    return _trusted(IterateState, a=a_new, lam=state.lam + beta * d.sum(axis=0) - d_lam)
