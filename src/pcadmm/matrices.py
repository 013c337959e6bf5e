"""Block-matrix factories and machine verification of the convergence
conditions.

The solver's convergence certificate rests on four dense
(p+1)m-square matrices per variant: the prediction weight Q, the
correction matrix M, a positive-definite metric H with H M = Q, and the
decrease matrix G = Q' + Q - M'HM, which must also be positive
definite.  Every factory assembles its matrix from exact block
templates (entries drawn from {0, +-1, +-nu, k/nu}), never by floating
accumulation, so H M = Q can be checked near machine exactness.

Each factory returns kron(T, I_m) of its own m = 1 build T, so
:func:`kron_form` evaluates the H- and G-forms from T alone; one
function writes the templates of M, H and G.  G is the closed form,
which :func:`verify_framework` checks against its definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SeparableProblem, _check_nu, _check_variant

__all__ = [
    "ClosedFormMismatchError", "FrameworkReport", "build_p", "build_q", "build_m", "build_h", "kron_form",
    "build_g", "verify_framework", "vi_operator", "check_skew", "xi_from_aggregates", "stack_blocks", "split_stacked",
]

HMQ_TOL = 1e-13


class ClosedFormMismatchError(AssertionError):
    """Definition-computed G disagrees with its closed form."""


@dataclass(frozen=True)
class FrameworkReport:
    """Numerical check of the convergence conditions for one case."""

    variant: str
    p: int
    m: int
    nu: float
    hm_eq_q_maxerr: float
    h_min_eig: float
    g_min_eig: float
    qtq_min_eig: float

    @property
    def passed(self) -> bool:
        return (
            self.hm_eq_q_maxerr <= HMQ_TOL
            and self.h_min_eig > 0.0
            and self.g_min_eig > 0.0
            and self.qtq_min_eig > 0.0
        )


def build_p(problem: SeparableProblem, beta: float) -> np.ndarray:
    """Block-diagonal scaling that maps a stacked point (x_1..x_p, lam)
    to the scaled aggregates (sqrt(beta) A_i x_i, lam/sqrt(beta))."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    m = problem.m
    sq = np.sqrt(beta)
    n_total = sum(blk.n for blk in problem.blocks)
    P = np.zeros(((problem.p + 1) * m, n_total + m))
    col = 0
    for i, blk in enumerate(problem.blocks):
        P[i * m : (i + 1) * m, col : col + blk.n] = sq * blk.A
        col += blk.n
    P[problem.p * m :, col:] = np.eye(m) / sq
    return P


def _check_size(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def _kron(T, m):
    _check_size("m", m)
    # kron(T, I_1) is T times 1.0 entry by entry: T's own bits
    return T.copy() if m == 1 else np.kron(T, np.eye(m))


def build_q(variant: str, p: int, m: int) -> np.ndarray:
    """Prediction weight matrix in scaled-aggregate coordinates; all
    entries are 0 or +-1.

    Primal-first: [[L, E'], [0, I_m]].  Multiplier-first:
    [[L, 0], [-E, I_m]].
    """
    _check_variant(variant)
    _check_size("p", p)
    T = np.eye(p + 1)
    T[:p, :p] = np.tril(np.ones((p, p)))
    if variant == "pd":
        T[:p, p] = 1.0
    else:
        T[p, :p] = -1.0
    return _kron(T, m)


def _templates(variant, p, nu):
    """The m = 1 templates (T_M, T_H, T_G) of :func:`build_m`,
    :func:`build_h` and :func:`build_g`, written entry by entry."""
    _check_variant(variant)
    _check_nu(nu)
    _check_size("p", p)
    T_M = np.eye(p + 1)
    T_M[:p, :p] = nu * (np.eye(p) - np.eye(p, k=1))
    # H and G share their multiplier part: [[E'E, E'], [E, 1]] (all
    # ones) for primal-first, [[0, 0], [0, 1]] for multiplier-first.
    if variant == "pd":
        T_M[p, 0] = -nu
        T_G = np.ones((p + 1, p + 1))
    else:
        T_M[p, :p] = -1.0
        T_G = np.zeros((p + 1, p + 1))
        T_G[p, p] = 1.0
    T_H = T_G.copy()
    idx = np.arange(1, p + 1)
    T_H[:p, :p] += np.minimum.outer(idx, idx) / nu
    T_G[:p, :p] += (1.0 - nu) * np.eye(p)
    return T_M, T_H, T_G


def build_m(variant: str, p: int, m: int, nu: float) -> np.ndarray:
    """Correction matrix in scaled-aggregate coordinates.

    Primal-first: [[nu L^{-T}, 0], [-nu E L^{-T}, I]] with
    E L^{-T} = [I, 0, ..., 0].  Multiplier-first:
    [[nu L^{-T}, 0], [-E, I]].  This is also the correction the solver
    runs: :mod:`pcadmm.corrector` applies the m = 1 build, rescaled to
    (a, lam) coordinates.
    """
    return _kron(_templates(variant, p, nu)[0], m)


def build_h(variant: str, p: int, m: int, nu: float) -> np.ndarray:
    """Positive-definite metric with H M = Q.

    Primal-first: [[(1/nu) LL' + E'E, E'], [E, I]].  Multiplier-first:
    [[(1/nu) LL', 0], [0, I]].  (LL')_ij = min(i, j) identity blocks.
    """
    return _kron(_templates(variant, p, nu)[1], m)


def kron_form(T, x):
    """sum_ij T_ij <x_i, x_j> over the last two axes of ``x``, which
    has shape (..., p+1, m): block rows first, multiplier row last.

    For T = build_h(variant, p, 1, nu) this is xi' H xi with
    x = xi.reshape(p + 1, m); leading axes evaluate a stack at once.
    A single (p+1, m) snapshot takes a 2-D path with the same bits.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.einsum("ij,ij->", x.dot(x.T), T)
    gram = x @ x.swapaxes(-1, -2)
    # einsum contracts without the (..., p+1, p+1) temporary of gram * T.
    return np.einsum("...ij,ij->...", gram, T)


def build_g(variant: str, p: int, m: int, nu: float) -> np.ndarray:
    """Decrease matrix G = Q' + Q - M'HM in its closed form, which
    :func:`verify_framework` checks against that definition.

    Primal-first: [[(1-nu)I + E'E, E'], [E, I]].  Multiplier-first:
    diag((1-nu)I_pm, I_m).
    """
    return _kron(_templates(variant, p, nu)[2], m)


def verify_framework(variant: str, p: int, m: int, nu: float) -> FrameworkReport:
    """Machine-check the convergence conditions for one case.

    Reports max|HM - Q| and the smallest eigenvalues of H, G, and
    Q' + Q; the case passes when the first is at most 1e-13 and the
    minima are strictly positive.

    G is double-entry bookkeeping: the closed form :func:`build_g`
    returns is cross-checked against Q' + Q - M'HM of the other three
    factories, and a disagreement beyond 1e-13 signals a factory bug
    and raises :class:`ClosedFormMismatchError`.
    """
    Q = build_q(variant, p, m)
    M, H, G = (_kron(T, m) for T in _templates(variant, p, nu))
    qtq = Q.T + Q
    # Associate as M'(HM): HM is exactly Q up to roundoff, which keeps
    # the intermediate entries O(1) and the final error tiny.
    HM = H @ M
    g_err = float(np.max(np.abs(qtq - M.T @ HM - G)))
    if g_err > HMQ_TOL:
        raise ClosedFormMismatchError(f"G mismatch {g_err:.3e} for variant={variant}, p={p}, m={m}, nu={nu}")
    # H and G are krons of symmetric templates and Q' + Q is a sum with
    # its transpose, so each is exactly symmetric as eigvalsh reads it.
    return FrameworkReport(
        variant, p, m, nu,
        hm_eq_q_maxerr=float(np.max(np.abs(HM - Q))),
        h_min_eig=float(np.linalg.eigvalsh(H)[0]),
        g_min_eig=float(np.linalg.eigvalsh(G)[0]),
        qtq_min_eig=float(np.linalg.eigvalsh(qtq)[0]),
    )


# ---------------------------------------------------------------------------
# Stacked-point utilities


def stack_blocks(x_blocks, lam) -> np.ndarray:
    """Concatenate block vectors and the multiplier into one point."""
    return np.concatenate([np.asarray(xi, dtype=float).ravel() for xi in x_blocks] + [np.asarray(lam, dtype=float).ravel()])


def split_stacked(problem: SeparableProblem, w):
    """Inverse of :func:`stack_blocks` for a given problem."""
    w = np.asarray(w, dtype=float)
    expected = sum(blk.n for blk in problem.blocks) + problem.m
    if w.size != expected:
        raise ValueError(f"stacked point has length {w.size}, expected {expected}")
    blocks, pos = [], 0
    for blk in problem.blocks:
        blocks.append(w[pos : pos + blk.n])
        pos += blk.n
    return blocks, w[pos:]


def vi_operator(problem: SeparableProblem, w) -> np.ndarray:
    """The first-order operator F(w) = (-A_i' lam ...; sum_i A_i x_i - b)
    on a stacked point."""
    x_blocks, lam = split_stacked(problem, w)
    parts = [-(blk.A.T @ lam) for blk in problem.blocks]
    parts.append(sum(blk.A @ xi for blk, xi in zip(problem.blocks, x_blocks)) - problem.b)
    return np.concatenate(parts)


def check_skew(problem: SeparableProblem, w1, w2) -> float:
    """(w1 - w2)'(F(w1) - F(w2)); identically zero in exact arithmetic
    because the linear part of F is skew-symmetric."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return float((w1 - w2) @ (vi_operator(problem, w1) - vi_operator(problem, w2)))


def xi_from_aggregates(a, lam, beta) -> np.ndarray:
    """Scaled-aggregate coordinates (sqrt(beta) a_1, ..., lam/sqrt(beta))
    built straight from the (p, m) aggregates."""
    sq = math.sqrt(beta)
    return np.concatenate((sq * np.asarray(a, dtype=float).ravel(), np.asarray(lam, dtype=float) / sq))
