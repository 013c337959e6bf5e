"""Problem and iterate data model shared by every solver variant.

A separable problem is

    min  sum_i theta_i(x_i)
    s.t. sum_i A_i x_i = b   (sense ``"eq"``)   or
         sum_i A_i x_i >= b  (sense ``"ge"``),
         x_i in X_i,

with closed proper convex block objectives ``theta_i`` and closed convex
sets ``X_i``.  For the equality sense the multiplier ranges over all of
R^m; for the inequality sense it is restricted to the nonnegative
orthant.

The solver recursion never needs the raw primal blocks after the start:
only the aggregates ``A_i x_i`` and the multiplier are carried from one
iteration to the next (:class:`IterateState`), while each prediction
sweep produces a full primal point (:class:`PredictorState`) that is the
reported solution.

The per-iteration products (``Quadratic.value``, the residual norms)
call ``ndarray.dot``, not ``@``: both reach the same BLAS routine and
give the same bits, but at the paper's small block sizes the matmul
ufunc's dispatch costs more than the arithmetic.  ``Quadratic.H`` and
``BlockSpec.A`` are kept C-contiguous, because ``dot`` copies a strided
operand on every call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EQ",
    "GE",
    "Quadratic",
    "WeightedL1",
    "Zero",
    "Custom",
    "Free",
    "NonNeg",
    "Box",
    "BlockSpec",
    "SeparableProblem",
    "IterateState",
    "PredictorState",
    "SolverConfig",
    "validate_problem",
    "objective_value",
    "feasibility_residual",
    "problem_to_json",
    "problem_from_json",
]

# Constraint senses.  "eq" couples the blocks through equalities and
# leaves the multiplier unconstrained; "ge" uses inequalities and keeps
# the multiplier in the nonnegative orthant.
EQ = "eq"
GE = "ge"
_SENSES = (EQ, GE)

# Update orders: "pd" moves the primal blocks first and the multiplier
# last, "dp" the multiplier first.
_VARIANTS = ("pd", "dp")

# A quadratic H is symmetric when max|H - H'| is at most _SYM_TOL, in
# absolute terms or relative to max|H| (roundoff grows with the scale).
_SYM_TOL = 1e-12


def _symmetric(H):
    """max|H - H'| <= _SYM_TOL, absolute or relative to max|H|.  Only a
    square H has a verdict; validate_problem reports the shape of any
    other, and a non-finite H, before it reads this one."""
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        return False
    if (H == H.T).all():  # the common case, at half the cost of max|H - H'|
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        asym = abs(H - H.T).max(initial=0.0)
        return not (asym > _SYM_TOL and asym > _SYM_TOL * abs(H).max())


def _as_vector(v, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _finite(x):
    # x.x is non-finite whenever an entry is, so a finite x.x settles it
    # cheaply; otherwise (a non-finite entry, or x.x overflowing) the
    # entrywise test decides.
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _ortho_scaled_holds(A):
    # A'A = cI with c = ||A e_1||^2 > 0, entrywise to within 1e-12 c;
    # rank(A) <= m rules out n > m.  If every nonzero of A lies on its
    # diagonal d, A'A = diag(d^2), seen in O(mn).  Otherwise the squared
    # column norms, the diagonal of A'A, must be equal (O(mn)) before A'A
    # is formed.  NaN, inf or overflow compare False.
    m, n = A.shape
    if n == 0 or n > m:
        return False
    with np.errstate(all="ignore"):
        d = A.diagonal()
        diagonal = np.count_nonzero(A) == np.count_nonzero(d)
        cols = d * d if diagonal else np.einsum("ij,ij->j", A, A)
        c = cols[0]
        equal = bool(c > 0 and abs(cols - c).max() <= 1e-12 * c)
        if diagonal or not equal:
            return equal
        return bool(abs(A.T @ A - c * np.eye(n)).max() <= 1e-12 * c)


def _check_variant(variant):
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _check_beta(beta):
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")


def _check_nu(nu):
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0,1)")


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields are
    already in the form its ``__post_init__`` gives them, built without
    running those conversions again: for states the library assembles
    from float arrays it allocated itself."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_aggregates(a, name):
    """The aggregates A_i x_i as one (p, m) array, row i for block i."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a (p, m) array, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Block objective atoms: value(x) = theta(x), and parts() = (H, c, tau)
# with theta = 0.5 x'Hx + c'x + tau ||x||_1 (H None if there is no x'Hx).


@dataclass(frozen=True)
class Quadratic:
    """theta(x) = 0.5 x'Hx + c'x with H symmetric positive semidefinite.
    ``linear``, derived from H, is True when every entry of H is zero (a
    NaN counts as nonzero), so theta(x) = c'x.  ``symmetric``, derived
    from H too, is :func:`validate_problem`'s verdict on H's symmetry.
    Both are set once, so H must not be changed in place afterwards."""

    H: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float, order="C")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", _as_vector(self.c, "c"))
        object.__setattr__(self, "linear", not np.count_nonzero(H))
        object.__setattr__(self, "symmetric", _symmetric(H))

    def value(self, x):
        if self.linear:
            return float(self.c.dot(x))
        return float((0.5 * x).dot(self.H).dot(x) + self.c.dot(x))

    def parts(self):
        return self.H, self.c, 0.0


@dataclass(frozen=True)
class WeightedL1:
    """theta(x) = tau * ||x||_1 with tau >= 0."""

    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))

    def value(self, x):
        return float(self.tau * np.abs(x).sum())

    def parts(self):
        return None, 0.0, self.tau


@dataclass(frozen=True)
class Zero:
    """theta(x) = 0."""

    def value(self, x):
        return 0.0

    def parts(self):
        return None, 0.0, 0.0


@dataclass(frozen=True)
class Custom:
    """User-supplied block objective.

    ``value(x)`` returns theta(x).  ``solve(request, inner_tol, x0)``
    must return the minimizer of ``theta(x) + (beta/2)||Ax - v||^2``
    over the block's set, as an array of shape ``(n,)``, where
    ``request`` is the :class:`~pcadmm.prox.SubproblemRequest` being
    dispatched; its ``ortho_scaled`` is the flag the block derived from A.
    """

    value: Callable[[np.ndarray], float]
    solve: Callable


# ---------------------------------------------------------------------------
# Block constraint sets: project(v) is the projection of v onto the set.


@dataclass(frozen=True)
class Free:
    """No set constraint."""

    def project(self, v):
        return v


@dataclass(frozen=True)
class NonNeg:
    """Componentwise x >= 0."""

    def project(self, v):
        return np.maximum(v, 0.0)


@dataclass(frozen=True)
class Box:
    """Componentwise lo <= x <= hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_vector(self.lo, "lo"))
        object.__setattr__(self, "hi", _as_vector(self.hi, "hi"))

    def project(self, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)


@dataclass(frozen=True)
class BlockSpec:
    """One objective block: its atom, set, and coupling matrix A (m x n).

    ``n`` and ``ortho_scaled`` are derived from A, not passed.
    ``ortho_scaled`` is True when A'A = cI with c = ||A e_1||^2 > 0,
    entrywise to within 1e-12 c; a block with no x'Hx term then solves
    in one closed-form prox step.
    """

    theta: object
    set: object = field(default_factory=Free)
    A: np.ndarray = None
    n: int = field(init=False)
    ortho_scaled: bool = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float, order="C")
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "n", A.shape[1])
        object.__setattr__(self, "ortho_scaled", _ortho_scaled_holds(A))


@dataclass(frozen=True)
class SeparableProblem:
    """p objective blocks coupled by m linear constraints.

    ``p = 1`` is the augmented-Lagrangian setting, ``p = 2`` the
    classical two-block splitting, ``p >= 3`` the multi-block one; all
    three run through the same code paths, parameterized by p.
    """

    blocks: tuple
    b: np.ndarray
    sense: str = EQ
    p: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "b", _as_vector(self.b, "b"))
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")
        if len(self.blocks) < 1:
            raise ValueError("problem needs at least one block")
        object.__setattr__(self, "p", len(self.blocks))
        object.__setattr__(self, "m", self.b.size)


@dataclass(frozen=True)
class IterateState:
    """Recursion state: the aggregates A_i x_i and the multiplier.

    ``a`` is a (p, m) array whose row i is A_i x_i.  This is the full
    state the correction step recurses on; primal points are not stored
    because the corrected aggregates need not be the image of any
    primal point.
    """

    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_aggregates(self.a, "a"))
        object.__setattr__(self, "lam", _as_vector(self.lam, "lam"))


@dataclass(frozen=True)
class PredictorState:
    """Output of one prediction sweep: primal blocks, their aggregates
    as a (p, m) array, and the predicted multiplier.  ``theta_tilde``
    is the (p,) array of theta_i(x~_i) as the sweep's plans computed
    them (on the exact route from the normal equations, equal to
    ``theta.value`` to roundoff), or None, as in a state built by hand."""

    x_tilde: tuple
    a_tilde: np.ndarray
    lambda_tilde: np.ndarray
    theta_tilde: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "x_tilde", tuple(np.asarray(x, dtype=float) for x in self.x_tilde))
        object.__setattr__(self, "a_tilde", _as_aggregates(self.a_tilde, "a_tilde"))
        object.__setattr__(self, "lambda_tilde", _as_vector(self.lambda_tilde, "lambda_tilde"))
        if self.theta_tilde is not None:
            object.__setattr__(self, "theta_tilde", _as_vector(self.theta_tilde, "theta_tilde"))


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``variant`` selects the update order: ``"pd"`` solves the primal
    blocks first and the multiplier last, ``"dp"`` updates the
    multiplier first.  The correction factor ``nu`` must lie strictly
    inside (0, 1); the contraction guarantee fails at nu = 1.
    ``record_xi`` stores per-iteration scaled-aggregate snapshots so a
    contraction audit can be run afterwards.
    """

    variant: str = "pd"
    beta: float = 1.0
    nu: float = 0.99
    max_iters: int = 10000
    tol: float = 1e-6
    inner_tol: float = 1e-10
    record_xi: bool = False

    def __post_init__(self):
        _check_variant(self.variant)
        _check_beta(self.beta)
        _check_nu(self.nu)
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol!r}")
        if not (math.isfinite(self.inner_tol) and self.inner_tol > 0):
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol!r}")


# ---------------------------------------------------------------------------
# Operations


def validate_problem(problem: SeparableProblem) -> list:
    """Collect every structural violation of a problem description.

    Returns a list of human-readable messages, one per violation; an
    empty list means the problem is well formed.  Nothing is raised, so
    callers can report all defects at once.  Every data entry must be
    finite, except that box bounds may be infinite (but not NaN).
    """
    out = []
    m = problem.m
    if not _finite(problem.b):
        out.append("b has non-finite entries")
    for i, blk in enumerate(problem.blocks):
        if blk.A.shape[0] != m:
            out.append(f"block {i}: A has wrong row count ({blk.A.shape[0]} != {m})")
        if blk.n < 1:
            out.append(f"block {i}: dimension must be at least 1")
        if not _finite(blk.A):
            out.append(f"block {i}: A has non-finite entries")
        th = blk.theta
        if isinstance(th, Quadratic):
            if th.H.shape != (blk.n, blk.n):
                out.append(f"block {i}: quadratic H has shape {th.H.shape}, expected {(blk.n, blk.n)}")
            elif not _finite(th.H):
                out.append(f"block {i}: quadratic H has non-finite entries")
            elif not th.symmetric:
                out.append(f"block {i}: quadratic H is not symmetric")
            if th.c.shape != (blk.n,):
                out.append(f"block {i}: quadratic c has length {th.c.size}, expected {blk.n}")
            elif not _finite(th.c):
                out.append(f"block {i}: quadratic c has non-finite entries")
        elif isinstance(th, WeightedL1):
            if not math.isfinite(th.tau):
                out.append(f"block {i}: l1 weight is not finite")
            elif th.tau < 0:
                out.append(f"block {i}: l1 weight must be nonnegative")
        elif isinstance(th, Custom):
            if not callable(th.value) or not callable(th.solve):
                out.append(f"block {i}: custom atom needs callable value and solve")
        elif not isinstance(th, Zero):
            out.append(f"block {i}: unknown objective atom {type(th).__name__}")
        st = blk.set
        if isinstance(st, Box):
            if st.lo.shape != (blk.n,) or st.hi.shape != (blk.n,):
                out.append(f"block {i}: box bounds do not match dimension {blk.n}")
            elif not (st.lo <= st.hi).all():
                out.append(f"block {i}: box has lo > hi or a NaN bound")
        elif not isinstance(st, (Free, NonNeg)):
            out.append(f"block {i}: unknown set {type(st).__name__}")
    return out


def objective_value(problem: SeparableProblem, x, values=None) -> float:
    """sum_i theta_i(x_i) for a list of block vectors.

    ``values``, when given, are the blocks' theta_i(x_i) as a sweep
    reported them (``PredictorState.theta_tilde``): they are summed in
    block order and x is not read, so exact blocks contribute their
    normal-equation values, equal to ``theta.value`` to roundoff.
    """
    if values is not None:
        values = _as_vector(values, "values")
        if values.size != problem.p:
            raise ValueError(f"expected {problem.p} block values, got {values.size}")
        return float(sum(values.tolist()))
    x = _block_vectors(problem, x)
    return float(sum([blk.theta.value(xi) for blk, xi in zip(problem.blocks, x)]))


def feasibility_residual(problem: SeparableProblem, a, lam):
    """Constraint and complementarity residuals from aggregates.

    ``a`` holds the aggregates A_i x_i as a (p, m) array.  For the
    equality sense the result is (||r||_2, 0) with r = sum_i a_i - b.
    For the inequality sense the primal residual measures only the
    violated part, min(r, 0), and the complementarity residual is the
    larger of |lam'r| and the norm of the negative part of lam.
    """
    a = _as_aggregates(a, "a")
    if a.shape != (problem.p, problem.m):
        raise ValueError(f"aggregates have shape {a.shape}, expected {(problem.p, problem.m)}")
    lam = _as_vector(lam, "lam")
    if lam.size != problem.m:
        raise ValueError(f"lam has length {lam.size}, expected {problem.m}")
    r = a.sum(axis=0) - problem.b
    if problem.sense == EQ:
        return _norm(r), 0.0
    primal = _norm(np.minimum(r, 0.0))
    compl = max(float(abs(lam.dot(r))), _norm(np.minimum(lam, 0.0)))
    return primal, compl


def _norm(v):
    # np.linalg.norm's own formula for a real vector, sqrt(v.v), without
    # its dispatch; math.sqrt rounds correctly too, so the two agree bit
    # for bit.
    return math.sqrt(v.dot(v))


def _block_vectors(problem, x):
    """The block vectors as float arrays, each checked against its block."""
    if len(x) != problem.p:
        raise ValueError(f"expected {problem.p} block vectors, got {len(x)}")
    x = [np.asarray(xi, dtype=float) for xi in x]
    for i, (blk, xi) in enumerate(zip(problem.blocks, x)):
        if xi.shape != (blk.n,):
            raise ValueError(f"block {i}: vector has shape {xi.shape}, expected ({blk.n},)")
    return x


# ---------------------------------------------------------------------------
# JSON problem schema
#
# {"m": int (optional, must equal len(b)), "sense": "eq"|"ge", "b": [...],
#  "blocks": [{"A": [[...]], "theta": spec, "set": spec (default free),
#              "n": int (optional, must equal A's column count)}, ...]}
#
# A spec is {"type": name, field: value, ...}: the name is the class's
# key in _JSON_TYPES, and its other keys are the dataclass fields.  Other
# keys are ignored, such as the "ortho_scaled" that BlockSpec derives.

_JSON_TYPES = {
    "theta": {"quadratic": Quadratic, "l1": WeightedL1, "zero": Zero},
    "set": {"free": Free, "nonneg": NonNeg, "box": Box},
}


def _spec_to_json(kind, obj):
    for name, cls in _JSON_TYPES[kind].items():
        if type(obj) is cls:
            spec = {"type": name}
            for key in cls.__dataclass_fields__:
                v = getattr(obj, key)
                spec[key] = v.tolist() if isinstance(v, np.ndarray) else v
            return spec
    raise ValueError(f"{kind} {type(obj).__name__} cannot be serialized")


def _spec_from_json(kind, spec):
    if not isinstance(spec, dict):
        raise ValueError(f"{kind} must be an object, got {spec!r}")
    cls = _JSON_TYPES[kind].get(spec.get("type"))
    if cls is None:
        raise ValueError(f"unknown {kind} type {spec.get('type')!r}")
    return cls(**{key: spec[key] for key in cls.__dataclass_fields__})


def problem_to_json(problem: SeparableProblem) -> dict:
    """Serialize a problem to the plain-JSON schema above."""
    blocks = []
    for blk in problem.blocks:
        d = {"n": blk.n, "A": blk.A.tolist()}
        d["theta"], d["set"] = _spec_to_json("theta", blk.theta), _spec_to_json("set", blk.set)
        blocks.append(d)
    return {"m": problem.m, "sense": problem.sense, "b": problem.b.tolist(), "blocks": blocks}


def _block_from_json(i, rb):
    try:
        if not isinstance(rb, dict):
            raise ValueError(f"must be an object, got {rb!r}")
        blk = BlockSpec(
            theta=_spec_from_json("theta", rb["theta"]),
            set=_spec_from_json("set", rb.get("set", {"type": "free"})),
            A=rb["A"],
        )
        if rb.get("n", blk.n) != blk.n:
            raise ValueError(f"key 'n' is {rb['n']!r} but A has {blk.n} columns")
        return blk
    except KeyError as e:
        raise ValueError(f"block {i}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"block {i}: {e}") from e


def problem_from_json(data: dict) -> SeparableProblem:
    """Build a problem from the JSON schema; malformed input of any kind
    raises ValueError naming the offending key or block."""
    if not isinstance(data, dict):
        raise ValueError(f"problem JSON must be an object, got {type(data).__name__}")
    try:
        sense, b, raw_blocks = data["sense"], data["b"], data["blocks"]
    except KeyError as e:
        raise ValueError(f"problem JSON is missing key {e}") from e
    if not isinstance(raw_blocks, list):
        raise ValueError("key 'blocks' must be a list")
    blocks = [_block_from_json(i, rb) for i, rb in enumerate(raw_blocks)]
    try:
        b = _as_vector(b, "b")
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"key 'b': {e}") from e
    problem = SeparableProblem(blocks=blocks, b=b, sense=sense)
    if data.get("m", problem.m) != problem.m:
        raise ValueError(f"key 'm' is {data['m']!r} but b has length {problem.m}")
    return problem
