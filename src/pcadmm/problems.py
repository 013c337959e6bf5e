"""Benchmark problem generators with independent solution oracles.

Each generator returns a reproducible random instance together with a
reference solution computed by a code path that never touches the
predictor or corrector: one active-set oracle for quadratic problems of
either sense (dense KKT solves, enumerating only the inequality rows),
and a proximal-gradient loop for the l1 benchmark.  Random data uses a
seeded generator with a fixed recipe (quadratic spectra in [1, 10],
unit-normal linear terms and right-hand sides), so instances are
bit-reproducible given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    EQ,
    GE,
    BlockSpec,
    Free,
    NonNeg,
    Quadratic,
    SeparableProblem,
    WeightedL1,
    objective_value,
)
from .prox import prox_shrink

__all__ = [
    "ReferenceSolution",
    "gen_eq_qp",
    "gen_ineq_qp",
    "gen_lasso",
    "gen_toy_svm",
    "active_set_oracle",
]

# The active-set oracle's enumeration limit (2^rows candidate sets) and
# tolerance on KKT residuals, multiplier signs and feasibility, and the
# gradient-map norm at which the lasso oracle's loop stops.
MAX_ACTIVE_SET_ROWS = 12
ACTIVE_SET_TOL = 1e-9
LASSO_ORACLE_TOL = 1e-13

# The spectrum range of random quadratic blocks, and the cost per unit
# of slack in the toy SVM.
SPD_SPECTRUM = (1.0, 10.0)
SVM_SLACK_COST = 1.0


@dataclass(frozen=True)
class ReferenceSolution:
    """Oracle output: primal blocks, their aggregates, the multiplier of
    the coupling constraints, and the objective value."""

    x: tuple
    a: tuple
    lam: np.ndarray
    objective: float


def _random_spd(rng, n):
    """Symmetric positive definite matrix with spectrum in SPD_SPECTRUM."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(*SPD_SPECTRUM, size=n)
    return (Q * eigs) @ Q.T


def _quadratic_blocks(rng, block_dims, m):
    blocks = []
    for n in block_dims:
        H = _random_spd(rng, n)
        c = rng.standard_normal(n)
        # Column scaling keeps the coupling matrices O(1) so a unit
        # penalty is a reasonable default for the benchmark suites.
        A = rng.standard_normal((m, n)) / np.sqrt(n)
        blocks.append(BlockSpec(theta=Quadratic(H, c), set=Free(), A=A))
    return blocks


def _full_qp_data(problem):
    """Stacked H, c and A; every block must be Quadratic on Free or NonNeg."""
    for i, blk in enumerate(problem.blocks):
        if not (isinstance(blk.theta, Quadratic) and isinstance(blk.set, (Free, NonNeg))):
            raise ValueError(f"block {i} is {type(blk.theta).__name__} on {type(blk.set).__name__}, outside the oracle's Quadratic on Free/NonNeg")
    H = [blk.theta.H for blk in problem.blocks]
    n_total = sum(blk.n for blk in problem.blocks)
    Hfull = np.zeros((n_total, n_total))
    pos = 0
    for Hi in H:
        k = Hi.shape[0]
        Hfull[pos : pos + k, pos : pos + k] = Hi
        pos += k
    c = np.concatenate([blk.theta.c for blk in problem.blocks])
    A = np.hstack([blk.A for blk in problem.blocks])
    return Hfull, c, A


def _reference_from_primal(problem, x, lam):
    x_blocks = np.split(x, np.cumsum([blk.n for blk in problem.blocks])[:-1])
    a = tuple(blk.A @ xi for blk, xi in zip(problem.blocks, x_blocks))
    return ReferenceSolution(x=tuple(x_blocks), a=a, lam=lam, objective=objective_value(problem, x_blocks))


def active_set_oracle(problem: SeparableProblem) -> ReferenceSolution:
    """Brute-force oracle for quadratic problems of either sense.

    The rows are the m coupling rows plus one row per nonnegative
    coordinate.  On an ``eq`` problem the coupling rows are always
    active; every other row is an inequality.  The oracle enumerates
    every active subset of the inequality rows, solves the
    equality-reduced KKT system for each, and keeps the candidates whose
    multipliers are nonnegative on active inequality rows and whose
    inactive rows are feasible.  The best (lowest objective) survivor is
    returned with the multipliers of the coupling rows only;
    set-constraint multipliers stay internal.  An ``eq`` problem on free
    blocks has nothing to enumerate: it is one direct KKT solve.
    """
    Hfull, c, A = _full_qp_data(problem)
    n, m = Hfull.shape[0], problem.m
    n_eq = m if problem.sense == EQ else 0
    nonneg = np.concatenate([np.full(blk.n, isinstance(blk.set, NonNeg)) for blk in problem.blocks])
    R = np.vstack([A, np.eye(n)[nonneg]])
    r = np.concatenate([problem.b, np.zeros(R.shape[0] - m)])
    total = R.shape[0] - n_eq
    if total > MAX_ACTIVE_SET_ROWS:
        raise ValueError(f"too many rows to enumerate ({total} > {MAX_ACTIVE_SET_ROWS})")

    best = None
    for mask in range(2**total):
        active = list(range(n_eq)) + [n_eq + i for i in range(total) if mask >> i & 1]
        k = len(active)
        Ra = R[active]
        K = np.block([[Hfull, -Ra.T], [Ra, np.zeros((k, k))]])
        rhs_k = np.concatenate([-c, r[active]])
        try:
            sol = np.linalg.solve(K, rhs_k)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(sol)):
            continue
        if float(np.linalg.norm(K @ sol - rhs_k)) > ACTIVE_SET_TOL * (1.0 + float(np.linalg.norm(rhs_k))):
            continue
        x, mu_active = sol[:n], sol[n:]
        if np.min(mu_active[n_eq:], initial=0.0) < -ACTIVE_SET_TOL:
            continue
        if np.min(R[n_eq:] @ x - r[n_eq:], initial=0.0) < -ACTIVE_SET_TOL:
            continue
        obj = 0.5 * x @ Hfull @ x + c @ x
        if best is None or obj < best[0] - 1e-12:
            mu = np.zeros(R.shape[0])
            mu[active] = mu_active
            mu[n_eq:] = np.maximum(mu[n_eq:], 0.0)
            best = (obj, x, mu)
    if best is None:
        raise ValueError("no valid active set: instance is infeasible or degenerate")
    _, x, mu = best
    return _reference_from_primal(problem, x, mu[:m])


def _draw_qp(block_dims, m, sense, seed_words):
    """The first of 20 seeded draws whose oracle accepts it."""
    if any(n < 1 for n in block_dims):
        raise ValueError("every block dimension must be at least 1")
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([*seed_words, attempt]))
        blocks = _quadratic_blocks(rng, block_dims, m)
        problem = SeparableProblem(blocks=tuple(blocks), b=rng.standard_normal(m), sense=sense)
        try:
            return problem, active_set_oracle(problem)
        except ValueError:
            continue
    raise RuntimeError("could not draw a solvable instance")


def gen_eq_qp(p, block_dims, m, seed):
    """Random equality-constrained QP with an oracle reference.

    Blocks are strictly convex quadratics over free sets, so the
    reference is one direct KKT solve.  Requires sum(block_dims) >= m so
    the constraints can be satisfied.
    """
    block_dims = list(block_dims)
    if len(block_dims) != p:
        raise ValueError("block_dims must have length p")
    if sum(block_dims) < m:
        raise ValueError("total dimension must be at least m")
    return _draw_qp(block_dims, m, EQ, [seed])


def gen_ineq_qp(p, block_dims, m, seed):
    """Random inequality-constrained QP with an active-set reference.

    m is capped so that enumerating all 2^m active sets stays cheap.
    """
    if m > 4:
        raise ValueError("inequality oracle is limited to m <= 4")
    block_dims = list(block_dims)
    if len(block_dims) != p:
        raise ValueError("block_dims must have length p")
    return _draw_qp(block_dims, m, GE, [seed, 7])


def gen_lasso(n, samples, tau, seed, data=None):
    """l1-regularized least squares split into two identity-coupled
    blocks, with a proximal-gradient reference.

        min 0.5||Dx - d||^2 + tau||y||_1   s.t.  x - y = 0.

    Block 1 carries the quadratic data fit (H = D'D, c = -D'd, A = I),
    block 2 the l1 atom with A = -I.  The oracle minimizes the
    composite objective in the single variable by proximal gradient,
    run until the gradient-map norm is below ``LASSO_ORACLE_TOL``,
    independently of the splitting iteration.  ``data``
    overrides the random draw with an explicit ``(D, d)`` pair.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if data is None:
        rng = np.random.default_rng(seed)
        D = rng.standard_normal((samples, n))
        d = rng.standard_normal(samples)
    else:
        D = np.asarray(data[0], dtype=float)
        d = np.asarray(data[1], dtype=float)
        samples, n = D.shape
    if not D.any():
        raise ValueError("the data matrix D (samples x n) must have a nonzero entry")
    H = D.T @ D
    c = -D.T @ d
    blocks = (
        BlockSpec(theta=Quadratic(H, c), set=Free(), A=np.eye(n)),
        BlockSpec(theta=WeightedL1(tau), set=Free(), A=-np.eye(n)),
    )
    problem = SeparableProblem(blocks=blocks, b=np.zeros(n), sense=EQ)

    lip = float(np.linalg.eigvalsh(H)[-1])
    step = 1.0 / lip
    x = np.zeros(n)
    for _ in range(500_000):
        grad = H @ x + c
        x_next = prox_shrink(x - step * grad, step * tau)
        if np.linalg.norm(x - x_next) * lip <= LASSO_ORACLE_TOL:
            x = x_next
            break
        x = x_next
    lam = H @ x + c  # = D'(Dx - d), the multiplier of x - y = 0
    return problem, _reference_from_primal(problem, np.concatenate([x, x]), lam)


def gen_toy_svm(points, seed=0):
    """Soft-margin linear classifier as an inequality-constrained QP.

        min 0.5||w||^2 + C sum_j s_j,   C = SVM_SLACK_COST,
        s.t. y_j (x_j'w) + s_j >= 1,   s >= 0.

    ``points`` is either an integer (that many random labeled samples
    are drawn, with both classes present) or an explicit sequence of
    (feature_vector, label) pairs with labels +-1.  A reference is
    available through :func:`active_set_oracle` whenever the total row
    count stays within the enumeration cap.
    """
    if isinstance(points, (int, np.integer)):
        if points < 2:
            raise ValueError("need at least 2 points")
        rng = np.random.default_rng(seed)
        data = []
        for j in range(points):
            label = 1 if j % 2 == 0 else -1
            center = np.array([1.0, 1.0]) if label == 1 else np.array([-1.0, -1.0])
            data.append((center + 0.5 * rng.standard_normal(2), label))
    else:
        try:
            data = [(np.asarray(x, dtype=float), int(y)) for x, y in points]
        except (TypeError, ValueError) as e:
            raise ValueError("points must be an integer or a sequence of (feature_vector, label) pairs") from e
        if len(data) < 2:
            raise ValueError("need at least 2 points")
    labels = {y for _, y in data}
    if labels != {-1, 1}:
        raise ValueError("need both classes (+1 and -1) present")
    if len({x.shape for x, _ in data}) != 1 or data[0][0].ndim != 1 or data[0][0].size < 1:
        raise ValueError("feature vectors must be nonempty, one-dimensional and of one length")

    k = len(data)
    dim = data[0][0].size
    A1 = np.array([y * x for x, y in data], dtype=float)  # rows y_j x_j'
    blocks = (
        BlockSpec(theta=Quadratic(np.eye(dim), np.zeros(dim)), set=Free(), A=A1),
        BlockSpec(theta=Quadratic(np.zeros((k, k)), SVM_SLACK_COST * np.ones(k)), set=NonNeg(), A=np.eye(k)),
    )
    return SeparableProblem(blocks=blocks, b=np.ones(k), sense=GE)
