"""Correction step applied to the aggregates after each prediction.

The correction is the certificate's own: the m = 1 template T of
:func:`pcadmm.matrices.build_m`, moved from scaled-aggregate
coordinates (sqrt(beta) a, lam/sqrt(beta)) into (a, lam) coordinates,
applied as U <- U - T (U - U~) to U = (a; lam) stacked as a (p+1, m)
array.  The inputs are validated states, so the corrected state is
built from the resulting float arrays as they are.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matrices import build_m
from .model import IterateState, PredictorState, _check_beta, _trusted

__all__ = ["correct_pd", "correct_dp"]


@lru_cache(maxsize=64)
def _template(variant, p, nu, beta):
    """D^-1 T D with D = diag(sqrt(beta) 1_p, 1/sqrt(beta)); read-only, as it is shared.
    Only T[p, :p] scales: T[:p, p] is zero in both variants."""
    _check_beta(beta)
    T = build_m(variant, p, 1, nu)
    T[p, :p] *= beta
    T.flags.writeable = False
    return T


def _correct(variant, state, pred, nu, beta):
    if state.a.shape != pred.a_tilde.shape or state.lam.shape != pred.lambda_tilde.shape:
        shapes = state.a.shape, state.lam.shape, pred.a_tilde.shape, pred.lambda_tilde.shape
        raise ValueError("state shapes {}, {} differ from predictor shapes {}, {}".format(*shapes))
    U = np.concatenate((state.a, state.lam[None]))
    # U - U~ in the buffer of the stacked prediction
    D = np.concatenate((pred.a_tilde, pred.lambda_tilde[None]))
    np.subtract(U, D, out=D)
    U -= _template(variant, len(state.a), nu, beta).dot(D)
    return _trusted(IterateState, a=U[:-1], lam=U[-1])


def correct_pd(state: IterateState, pred: PredictorState, nu: float, beta: float) -> IterateState:
    """Correction for the primal-first variant."""
    return _correct("pd", state, pred, nu, beta)


def correct_dp(state: IterateState, pred: PredictorState, nu: float, beta: float) -> IterateState:
    """Correction for the multiplier-first variant."""
    return _correct("dp", state, pred, nu, beta)
