"""Solvers for the canonical block subproblem

    min_{x in X}  theta(x) + (beta/2) ||Ax - v||^2.

Every minimization in a prediction sweep reduces to this form after
completing the square, so this module is the only place that actually
solves anything.  A built-in atom turns it into the normal form
min 0.5 x'Sx - r'x + tau||x||_1 over X, which a closed form, an exact
solve or a projected-gradient loop then minimizes.  The route and the
setup that does not depend on v are fixed once per block by
:func:`compile_block`, which also gives each block's theta at the points
its solve returns.  Every product a solve makes calls ``ndarray.dot``
on a contiguous operand (A, A', S, the exact route's K), not ``@``: the
bits are the same, the matmul ufunc's dispatch is not free at small n,
and ``dot`` would copy a strided operand on every call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .model import BlockSpec, Custom, Free, GE, NonNeg, _finite, _norm

__all__ = [
    "BlockPlan",
    "SubproblemRequest",
    "SubproblemError",
    "SingularSystemError",
    "NonConvergenceError",
    "NonConvexError",
    "compile_block",
    "prox_shrink",
    "project_set",
    "solve_block_subproblem",
    "solve_lambda_subproblem",
]

# Iteration cap for the projected-gradient inner loop.
MAX_INNER_ITERS = 200_000

# The gradient-map threshold, as a fraction of inner_tol, below which a
# pg-route point is accepted.  The margin keeps the optimality defect
# under inner_tol even for probe points a moderate distance away.
GAP_FRACTION = 0.04


class SubproblemError(Exception):
    """A block subproblem could not be set up or solved."""


class SingularSystemError(SubproblemError, np.linalg.LinAlgError):
    """Block subproblem has a singular normal matrix and no set
    constraint to regularize it, or a zero one and a linear term that
    is unbounded below on the set."""


class NonConvergenceError(SubproblemError, RuntimeError):
    """Projected-gradient inner loop exhausted its iteration cap."""


class NonConvexError(SubproblemError, ValueError):
    """Block subproblem has a normal matrix with a negative eigenvalue,
    so it is not convex and may be unbounded below."""


class SubproblemRequest(NamedTuple):
    """One block minimization: min over ``set`` of theta(x) + (beta/2)||Ax - v||^2.

    ``v`` already carries the Gauss-Seidel drift of the earlier blocks
    and the multiplier term, so the request is self-contained.
    ``ortho_scaled`` copies the block's derived flag for observers such
    as tracers; the solve never reads it, and its route comes from A.
    ``plan`` is the block's :func:`compile_block` plan, or None to
    compile one for this request.  It is a ``NamedTuple``, not a
    dataclass, because a sweep builds one per block solve.
    """

    theta: object
    set: object
    A: np.ndarray
    beta: float
    v: np.ndarray
    ortho_scaled: bool = False
    plan: object = None


class BlockPlan(NamedTuple):
    """A block's solve with its setup done once: ``solve(req,
    inner_tol, x0)`` returns ``(x, A x)`` for the target ``req.v``, and
    ``value(x, v, ax)`` returns theta(x) at such a point, given the v
    and A x of its solve.  The exact route computes it from the normal
    equations, which agrees with ``theta.value(x)`` to roundoff, not bit
    for bit; every other route returns ``theta.value(x)``."""

    route: str
    solve: Callable
    value: Callable


def prox_shrink(v, tau):
    """Componentwise soft threshold: sign(v) * max(|v| - tau, 0), up to
    the sign of an exact zero, as v minus v clipped to [-tau, tau]."""
    v = np.asarray(v, dtype=float)
    return v - np.minimum(np.maximum(v, -tau), tau)


def project_set(v, set_spec):
    """Euclidean projection of v onto a block set.

    No solve calls it: each route binds the set's ``project`` at
    compile.  It stays public because the benchmark's tracer wraps it
    (``pcbench/layers.py``, ``TARGETS``): without it a traced pass
    prints an ``absent:`` line, which fails CI's traced step, and
    ``test_traced_pass_survives_missing_names_and_restores_originals``
    pins the list of absent names.
    """
    project = getattr(set_spec, "project", None)
    if project is None:
        raise TypeError(f"unknown set {type(set_spec).__name__}")
    return project(np.asarray(v, dtype=float))


def compile_block(block, beta) -> BlockPlan:
    """Choose a :class:`~pcadmm.model.BlockSpec`'s route once, do its setup.

    Custom atoms delegate to their own solver, whose result must have
    shape ``(n,)``.  A built-in atom gives the normal form with
    S = H + beta A'A and r = beta A'v - c, and

    * ``block.ortho_scaled`` (A'A = cI) with H absent or zero
      (``Quadratic.linear``), so S = L*I, route ``closed``: x is the
      single prox step ``project_set(prox_shrink(r/L, tau/L), set)``;
    * quadratic atom, free set, route ``exact``: one Cholesky
      factorization of S (LAPACK potrf, in place) and one solve with it
      (potrs, in place) give K = S^-1 beta A' and x_c = -S^-1 c, so
      x = K v + x_c.  A failed factorization, or a pivot with
      U_jj^2 <= n eps S_jj (S singular to working precision, though
      potrf accepted it on roundoff), raises :class:`NonConvexError` by
      the pg route's test below on a rebuilt S, else
      :class:`SingularSystemError`.  Its ``value`` is theta(x) =
      beta/2 a'(v - a) + c'x/2 with a = A x, from H x = beta A'(v - a) - c:
      two dots of length m and n instead of a product with the n x n H;
    * anything else, route ``pg``: the spectrum w of S is computed once;
      an eigenvalue below -delta*max|w| (delta = 1e-12*n) raises
      :class:`NonConvexError`, and lip = w[-1] is kept.  On ``NonNeg``
      with w[0] > delta*lip (S positive definite) each solve first runs
      an active-set Newton method from ``x0``; when it returns no point,
      and on every other set, a projected-gradient loop runs from
      ``x0``.  Either way the point returned has a gradient-map norm
      safely below ``inner_tol``, or is all NaN when r is not finite.
      The plan keeps the free set of its last Newton step and that
      set's potrf Cholesky factor, so a warm-started step on the same
      free set copies and factors no sub-matrix of S, and solves with
      one potrs.

    ``scipy.linalg`` is imported at the first exact or Newton-route
    compile, not with the package.

    Every built-in route raises :class:`SubproblemError` when S (L on
    the closed route) is not finite, as from finite data whose products
    overflow.
    A finite returned point is exactly feasible for nonneg/box sets.

    Whether A is square and diagonal is decided once per compile; if
    so, every route applies A'v and Ax as ``d * v`` and ``d * x`` with
    d = diag(A), which on finite data gives the dense products' bits
    (up to the sign of an exact zero) in O(m) instead of O(m^2).  The
    set's ``project`` is bound here too, and r skips ``- c`` when c is
    the scalar 0, so a solve makes no call that its block does not need.
    """
    theta, set_spec, A, n = block.theta, block.set, block.A, block.n
    # x -> A x and v -> A'v, elementwise when only the diagonal is nonzero
    if A.shape[0] == n and np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
        image = adjoint = A.diagonal().copy().__mul__
    else:
        image, adjoint = A.dot, A.T.dot

    def value(x, v, ax):
        return theta.value(x)

    if isinstance(theta, Custom):

        def solve_custom(req, inner_tol, x0):
            x = np.asarray(theta.solve(req, inner_tol, x0), dtype=float)
            if x.shape != (n,):
                raise SubproblemError(f"custom solve returned shape {x.shape}, expected {(n,)}")
            return x, image(x)

        return BlockPlan("custom", solve_custom, value)

    parts = getattr(theta, "parts", None)
    if parts is None:
        raise TypeError(f"unknown objective atom {type(theta).__name__}")
    H, c, tau = parts()
    beta = float(beta)
    project = getattr(set_spec, "project", None)
    if project is None:
        raise TypeError(f"unknown set {type(set_spec).__name__}")

    subtract_c = not (isinstance(c, float) and c == 0.0)

    def target(v):
        r = beta * adjoint(np.asarray(v, dtype=float))
        return r - c if subtract_c else r

    if block.ortho_scaled and (H is None or theta.linear):
        L = beta * float(A[:, 0] @ A[:, 0])
        if not math.isfinite(L):
            raise SubproblemError("normal matrix H + beta*A'A is not finite")
        tau_L = tau / L

        def solve_closed(req, inner_tol, x0):
            z = target(req.v) / L
            x = project(prox_shrink(z, tau_L) if tau else z)
            return x, image(x)

        return BlockPlan("closed", solve_closed, value)

    S = _normal_matrix(A, beta, H)
    if not _finite(S):
        raise SubproblemError("normal matrix H + beta*A'A is not finite")
    if H is not None and isinstance(set_spec, Free):
        m = A.shape[0]
        lapack = _lapack()
        diag = S.diagonal().copy()
        # S is symmetric, so S.T is S in Fortran order: potrf factors it
        # in place, and potrs solves the Fortran-ordered rhs in place
        U, info = lapack.dpotrf(S.T, clean=0, overwrite_a=1)
        # a pivot with U_jj^2 <= n eps S_jj: S is singular to working
        # precision, though potrf accepted it on roundoff (Higham, 2002,
        # ch. 10)
        pivots = U.diagonal()
        if info or np.any(pivots * pivots <= n * np.finfo(float).eps * diag):
            # U overwrote S; an indefinite S is not convex, as on the pg route
            _spectrum(_normal_matrix(A, beta, H), n)
            raise SingularSystemError("normal matrix H + beta*A'A is singular")
        rhs = np.empty((n, m + 1), order="F")
        np.multiply(A.T, beta, out=rhs[:, :m])
        np.negative(c, out=rhs[:, m])
        lapack.dpotrs(U, rhs, overwrite_b=1)
        # C-ordered copies, made once S is freed, so the peak holds two
        # of S, rhs and K at most, and the plan keeps no rhs
        del S, U, pivots
        K, x_c = np.ascontiguousarray(rhs[:, :m]), rhs[:, m].copy()

        def solve_exact(req, inner_tol, x0):
            x = K.dot(np.asarray(req.v, dtype=float)) + x_c
            return x, image(x)

        def value_exact(x, v, ax):
            # S x = beta A'v - c gives H x = beta A'(v - A x) - c
            return float(0.5 * beta * ax.dot(v - ax) + 0.5 * c.dot(x))

        return BlockPlan("exact", solve_exact, value_exact)

    w, delta = _spectrum(S, n)
    lip = float(w[-1])
    newton = isinstance(set_spec, NonNeg) and w[0] > delta * lip
    cache = _FreeSetFactor() if newton else None

    def solve_pg(req, inner_tol, x0):
        r = target(req.v)
        x = None
        if newton:
            # tau ||x||_1 = tau 1'x on the orthant
            x = _active_set_newton(S, lip, r - tau if tau else r, project, inner_tol, x0, cache)
        if x is None and not np.isfinite(r).all():
            x = np.full(n, np.nan)  # no minimizer: let the run stop with non_finite
        elif x is None:
            x = _projected_gradient(S, lip, r, tau, project, inner_tol, x0)
        return x, image(x)

    return BlockPlan("pg", solve_pg, value)


def _lapack():
    """scipy's LAPACK wrappers, imported on first use: importing
    ``scipy.linalg`` takes about 0.2 s, which ``import pcadmm`` and a
    problem with no Cholesky solve never pay."""
    from scipy.linalg import lapack

    return lapack


def _normal_matrix(A, beta, H):
    """S = H + beta A'A, formed in place (H None means zero)."""
    S = A.T @ A
    S *= beta
    if H is not None:
        S += H
    return S


def _spectrum(S, n):
    """The eigenvalues w of S and the relative tolerance delta; raises
    :class:`NonConvexError` when w[0] < -delta*max|w|."""
    w = np.linalg.eigvalsh(S)
    delta = 1e-12 * n
    if w[0] < -delta * max(-w[0], w[-1]):
        raise NonConvexError(f"normal matrix H + beta*A'A is not convex: smallest eigenvalue {w[0]:.3g}")
    return w, delta


def solve_block_subproblem(req: SubproblemRequest, inner_tol: float, x0=None):
    """Solve one block subproblem with ``req.plan``, or with a plan
    compiled for this call from ``req``'s theta, set and A (see
    :func:`compile_block`); returns ``(x, A @ x)``."""
    if not 0.0 < inner_tol < math.inf:
        raise ValueError(f"inner_tol must be positive and finite, got {inner_tol!r}")
    plan = req.plan
    if plan is None:
        plan = compile_block(BlockSpec(theta=req.theta, set=req.set, A=req.A), req.beta)
    return plan.solve(req, inner_tol, x0)


def _prox_step(lip, grad, tau, project, x):
    """One proximal-gradient step from x with step 1/lip, given the
    gradient ``grad`` = S x - r there: the prox of tau ||.||_1 plus the
    set indicator (shrink-then-project with the set's ``project``, since
    both act componentwise) at x - grad/lip.  ``lip`` times the distance
    from x to this step is the gradient-map norm, zero exactly at the
    minimizer."""
    step = 1.0 / lip
    z = x - step * grad
    return project(prox_shrink(z, step * tau) if tau else z)


class _FreeSetFactor:
    """The free set F of a Newton solve's last step, as the key
    ``free.tobytes()``, and potrf's Cholesky factor of S_FF, in one
    tuple, ``last``, so a reader never pairs a key with another set's
    factor.  LAPACK's ``dpotrf`` and ``dpotrs`` are bound here, once per
    plan, not looked up on every solve."""

    __slots__ = ("potrf", "potrs", "last")

    def __init__(self):
        lapack = _lapack()
        self.potrf, self.potrs = lapack.dpotrf, lapack.dpotrs
        self.last = (None, None)


def _active_set_newton(S, lip, r, project, inner_tol, x0, cache=None):
    """Primal-dual active-set method (Hintermuller, Ito & Kunisch, 2002)
    for min 0.5 x'Sx - r'x over x >= 0 with S positive definite.

    With multiplier mu = S x - r, the active set is {j : mu_j > lip x_j};
    each step sets x = 0 on it and solves S_FF x_F = r_F on the rest.
    The clipped step is returned as soon as it passes the projected-
    gradient loop's own test; the test, not a repeated active set, ends
    the method, because roundoff can flip weakly active coordinates
    forever.  When the step has no negative coordinate, the clipped
    step is the step, and the test reuses its mu as the gradient.
    Returns None after 2n + 2 steps without a certified point, at the
    first step whose test is NaN (r not finite), or when potrf finds an
    S_FF that is not positive definite to working precision.

    Each new free set F is factored once by potrf, on the Fortran view
    of the copy S_FF, and each step solves with the factor by one potrs.
    ``cache`` is the calling plan's :class:`_FreeSetFactor`: a step on
    the free set of the one before, as from a warm start, reuses its
    factor.  A direct call without one starts from an empty cache, so
    it returns a plan's bits.
    """
    if cache is None:
        cache = _FreeSetFactor()
    potrf, potrs = cache.potrf, cache.potrs
    n = r.shape[0]
    x = project(np.zeros(n) if x0 is None else np.asarray(x0, dtype=float))
    active = S.dot(x) - r > lip * x
    gtol = GAP_FRACTION * inner_tol
    for _ in range(2 * n + 2):
        free = ~active
        key = free.tobytes()
        last_key, factor = cache.last
        if key != last_key:
            # S_FF is a symmetric copy: factor its Fortran view in place
            factor, info = potrf(S[free][:, free].T, clean=0, overwrite_a=1)
            if info:
                return None
            cache.last = (key, factor)
        y = np.zeros(n)
        if factor.size:  # potrs rejects an empty right-hand side
            # (lower=0, overwrite_b=1) by position: f2py parses keywords
            # in about 0.3 us, a fifth of the call at n = 24
            y[free] = potrs(factor, r[free], 0, 1)[0]
        mu = S.dot(y) - r
        active = mu > lip * y
        x = np.maximum(y, 0.0)
        grad = S.dot(x) - r if y.min() < 0.0 else mu
        gap = lip * _norm(x - _prox_step(lip, grad, 0.0, project, x))
        if gap <= gtol:
            return x
        if math.isnan(gap):
            return None
    return None


def _projected_gradient(S, lip, r, tau, project, inner_tol, x0):
    """Proximal/projected gradient on the normal form.

    Smooth part: 0.5 x'Sx - r'x, with gradient S x - r and Lipschitz
    constant ``lip``, the largest eigenvalue of S.  Nonsmooth part:
    tau ||x||_1 and the set indicator (see :func:`_prox_step`).
    """
    if lip <= 0.0:
        # S = 0 (compile_block's convexity test leaves no other S with
        # lip <= 0): min -r'x + tau||x||_1 separates by coordinate.  Where
        # |r_j| > tau the minimizer is the bound r_j pushes toward,
        # elsewhere the projection of 0.
        x = project(np.where(np.abs(r) > tau, np.copysign(np.inf, r), 0.0))
        if not np.isfinite(x).all():
            raise SingularSystemError("normal matrix H + beta*A'A is zero and the linear term is unbounded")
        return x
    x = project(np.zeros(r.shape[0]) if x0 is None else np.asarray(x0, dtype=float))
    gtol = GAP_FRACTION * inner_tol
    for _ in range(MAX_INNER_ITERS):
        x_next = _prox_step(lip, S.dot(x) - r, tau, project, x)
        gap = _norm(x - x_next) * lip
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
