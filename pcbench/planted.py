"""Seeded problem generators with planted optima.

Every generator draws the solution first -- the primal blocks ``x*``,
the multiplier ``lam*`` and the active sets -- and then derives the
linear terms ``c`` and the right-hand side ``b`` from the KKT
conditions, so the optimum is known exactly without running any
solver.  The problem itself is returned only as the plain-JSON dict
that ``pcadmm solve`` reads; this module uses numpy alone and never
imports ``pcadmm``.

Sign convention (the one ``pcadmm`` uses): the Lagrangian is
``sum_i theta_i(x_i) - lam'(sum_i A_i x_i - b)``, so block i is
stationary when ``A_i' lam - grad theta_i(x_i)`` lies in the normal
cone of its set (plus the l1 subdifferential for l1 atoms), and for the
``>=`` sense ``lam >= 0`` with ``lam_j (A x - b)_j = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Planted:
    """One generated instance: its JSON problem and its planted optimum."""

    name: str
    data: dict
    x: tuple
    lam: np.ndarray
    objective: float

    @property
    def a(self):
        """Planted aggregates A_i x_i*, the reference the contraction
        audit measures distances against."""
        return tuple(np.asarray(blk["A"]) @ xi for blk, xi in zip(self.data["blocks"], self.x))


def _rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _spd(rng, n):
    """Symmetric positive definite matrix with eigenvalues evenly spaced
    in [1, 3] and random eigenvectors.

    Fixing the spectrum, rather than drawing it, keeps the conditioning
    -- and so the iteration count -- nearly the same from seed to seed;
    with [1, 10] the iteration totals of a workload spread about twice
    as wide.
    """
    Q = _rotation(rng, n)
    H = (Q * np.linspace(1.0, 3.0, n)) @ Q.T
    return (H + H.T) / 2.0


def _coupling_matrix(rng, m, n):
    """m x n matrix with singular values evenly spaced in [0.5, 1.5] and
    random singular vectors (full rank m when m <= n)."""
    k = min(m, n)
    U = _rotation(rng, m)[:, :k]
    V = _rotation(rng, n)[:, :k]
    return (U * np.linspace(0.5, 1.5, k)) @ V.T


def objective(blocks, x):
    """sum_i theta_i(x_i) for blocks in the JSON problem schema."""
    total = 0.0
    for blk, xi in zip(blocks, x):
        th = blk["theta"]
        if th["type"] == "quadratic":
            H, c = np.asarray(th["H"]), np.asarray(th["c"])
            total += 0.5 * xi @ H @ xi + c @ xi
        elif th["type"] == "l1":
            total += th["tau"] * np.sum(np.abs(xi))
    return float(total)


def _coupling(rng, m, sense):
    """Multiplier and constraint slack for the coupling rows.

    Equality rows get a free multiplier and no slack.  For ``>=`` rows
    half are active (positive multiplier, zero slack) and the rest
    inactive (zero multiplier, positive slack), so strict
    complementarity holds.
    """
    if sense == "eq":
        return rng.standard_normal(m), np.zeros(m)
    active = rng.permutation(m) < max(1, m // 2)
    lam = np.where(active, rng.uniform(0.5, 1.5, m), 0.0)
    slack = np.where(active, 0.0, rng.uniform(0.5, 1.5, m))
    return lam, slack


def _instance(name, blocks, x, lam, slack, sense):
    b = sum(np.asarray(blk["A"]) @ xi for blk, xi in zip(blocks, x)) - slack
    data = {"m": int(lam.size), "sense": sense, "b": b.tolist(), "blocks": blocks}
    return Planted(name, data, tuple(x), lam, objective(blocks, x))


def quadratic_qp(rng, p, n, m, sense, set_type="free", name="qp"):
    """Strictly convex quadratic blocks with general coupling matrices.

    ``set_type`` is ``"free"`` (the exact-solve route) or ``"nonneg"``
    (the projected-gradient route).  On nonneg blocks half of the
    coordinates sit at zero with a positive set multiplier, the rest are
    positive with a zero one.
    """
    lam, slack = _coupling(rng, m, sense)
    blocks, xs = [], []
    for _ in range(p):
        H = _spd(rng, n)
        if set_type == "free":
            A = _coupling_matrix(rng, m, n)
            x = 0.5 * rng.standard_normal(n)
            mu = np.zeros(n)
        else:
            at_zero = rng.permutation(n) < n // 2
            x = np.where(at_zero, 0.0, rng.uniform(0.2, 1.0, n))
            mu = np.where(at_zero, rng.uniform(0.2, 1.0, n), 0.0)
            # The columns of the positive coordinates set the conditioning
            # at the optimum, so they get the controlled spectrum of
            # their own.
            A = np.empty((m, n))
            A[:, ~at_zero] = _coupling_matrix(rng, m, int(np.sum(~at_zero)))
            A[:, at_zero] = _coupling_matrix(rng, m, int(np.sum(at_zero)))
        # Stationarity: H x + c - A' lam - mu = 0.
        c = A.T @ lam + mu - H @ x
        blocks.append(
            {"n": n, "A": A.tolist(), "theta": {"type": "quadratic", "H": H.tolist(), "c": c.tolist()}, "set": {"type": set_type}}
        )
        xs.append(x)
    return _instance(name, blocks, xs, lam, slack, sense)


# Weight of the l1 term in the lasso split, and the cost C of a unit of
# slack in the SVM shape.
LASSO_TAU = 0.5
SVM_COST = 1.0


def lasso_split(rng, n, name="lasso"):
    """``min 0.5 x'Hx + c'x + tau||y||_1  s.t.  x - y = 0`` with
    ``tau = LASSO_TAU``.

    Both blocks are ortho-scaled (A = I and A = -I).  The planted point
    is sparse: on its support ``lam_k = -tau sign(y_k)``, off it
    ``|lam_k| < tau``.
    """
    H = _spd(rng, n)
    support = rng.permutation(n) < n // 2
    y = np.where(support, rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 1.0, n), 0.0)
    lam = np.where(support, -LASSO_TAU * np.sign(y), rng.uniform(-0.8, 0.8, n) * LASSO_TAU)
    c = lam - H @ y  # block 1: H x + c - lam = 0 with A_1 = I
    blocks = [
        {"n": n, "A": np.eye(n).tolist(), "theta": {"type": "quadratic", "H": H.tolist(), "c": c.tolist()}, "set": {"type": "free"}, "ortho_scaled": True},
        {"n": n, "A": (-np.eye(n)).tolist(), "theta": {"type": "l1", "tau": LASSO_TAU}, "set": {"type": "free"}, "ortho_scaled": True},
    ]
    return _instance(name, blocks, [y.copy(), y], lam, np.zeros(n), "eq")


def svm(rng, dim, k, name="svm"):
    """Soft-margin classifier shape: ``min 0.5||w||^2 + c'w + C sum s``
    s.t. ``y_j x_j'w + s_j >= b_j``, ``s >= 0``, with ``C = SVM_COST``.

    The rows ``y_j x_j'`` are drawn with a controlled spectrum, like
    every coupling matrix here.  They are split into
    margin violators (``s_j > 0``, ``lam_j = C``), points on the margin
    (``0 < lam_j < C``) and inactive points (``lam_j = 0`` with positive
    slack); ``c`` and ``b`` follow from the KKT conditions.
    """
    A1 = _coupling_matrix(rng, k, dim)  # rows y_j x_j'
    kind = rng.permutation(k) % 3  # 0 violator, 1 on margin, 2 inactive
    lam = np.select([kind == 0, kind == 1], [SVM_COST, rng.uniform(0.2, 0.8, k) * SVM_COST], 0.0)
    s = np.where(kind == 0, rng.uniform(0.2, 1.0, k), 0.0)
    slack = np.where(kind == 2, rng.uniform(0.5, 1.5, k), 0.0)
    w = rng.standard_normal(dim)
    c1 = A1.T @ lam - w  # block 1: w + c1 - A1' lam = 0
    blocks = [
        {"n": dim, "A": A1.tolist(), "theta": {"type": "quadratic", "H": np.eye(dim).tolist(), "c": c1.tolist()}, "set": {"type": "free"}},
        {
            "n": k,
            "A": np.eye(k).tolist(),
            "theta": {"type": "quadratic", "H": np.zeros((k, k)).tolist(), "c": np.full(k, SVM_COST).tolist()},
            "set": {"type": "nonneg"},
            "ortho_scaled": True,
        },
    ]
    return _instance(name, blocks, [w, s], lam, slack, "ge")


def _stratified_over(rng, pieces, m):
    """m values spread over the union of intervals ``pieces``: one
    uniform draw in each of m equal-length strata, in random order.

    Stratifying keeps the empirical distribution -- and so the worst
    coordinate of a separable problem -- nearly the same across seeds.
    """
    lengths = np.array([b - a for a, b in pieces])
    u = (rng.permutation(m) + rng.uniform(size=m)) / m * lengths.sum()
    ends = np.cumsum(lengths)
    k = np.minimum(np.searchsorted(ends, u), len(pieces) - 1)
    starts = np.array([a for a, _ in pieces])
    return starts[k] + u - (ends[k] - lengths[k])


def ortho_wide(rng, m, name="wide"):
    """Five blocks ``A_i = s_i I`` with l1, zero and linear atoms on boxes.

    The problem separates per coordinate.  Block 0 is a linear atom
    whose planted value lies strictly inside its box, which pins
    ``lam_k = c_0k / s_0``; every other block then sits where its
    closed-form minimizer puts it for that multiplier (a box bound or
    zero), and ``b`` closes the constraint.  ``lam`` is drawn away from
    every kink of the other blocks, so optimum and multiplier are exact
    and unique.
    """
    # Fixed scales: with random ones the iteration count spread twice as
    # wide from seed to seed.
    s = np.array([1.0, -0.8, 1.2, -0.9, 1.1])
    taus = (0.6, 1.1)
    # |lam| ranges over [0.2, 1.5] minus a 0.2-neighbourhood of each
    # kink: 0 for the zero atom, tau/|s| for the l1 atoms.
    pieces, start = [], 0.2
    for kink in sorted(tau / abs(si) for tau, si in zip(taus, s[1:3])):
        if kink - 0.2 > start:
            pieces.append((start, kink - 0.2))
        start = max(start, kink + 0.2)
    pieces.append((start, 1.5))
    lam = rng.choice([-1.0, 1.0], m) * _stratified_over(rng, pieces, m)
    lo, hi = -np.ones(m), np.ones(m)
    box = {"type": "box", "lo": lo.tolist(), "hi": hi.tolist()}
    c4 = s[4] * lam - rng.choice([-1.0, 1.0], m) * _stratified_over(rng, [(0.2, 0.8)], m)

    def linear(c):
        return {"type": "quadratic", "H": np.zeros((m, m)).tolist(), "c": c.tolist()}

    thetas = [linear(s[0] * lam), {"type": "l1", "tau": taus[0]}, {"type": "l1", "tau": taus[1]}, {"type": "zero"}, linear(c4)]
    g = s[:, None] * lam[None, :]  # A_i' lam per block and coordinate
    xs = [
        _stratified_over(rng, [(-0.6, 0.6)], m),  # pivot: interior, so its gradient c_0 equals g_0
        np.where(g[1] > taus[0], hi, np.where(g[1] < -taus[0], lo, 0.0)),
        np.where(g[2] > taus[1], hi, np.where(g[2] < -taus[1], lo, 0.0)),
        np.where(g[3] > 0, hi, lo),
        np.where(g[4] - c4 > 0, hi, lo),
    ]
    blocks = [
        {"n": m, "A": (si * np.eye(m)).tolist(), "theta": th, "set": box, "ortho_scaled": True}
        for si, th in zip(s, thetas)
    ]
    return _instance(name, blocks, xs, lam, np.zeros(m), "eq")
