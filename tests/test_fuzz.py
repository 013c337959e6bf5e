"""A seeded fuzz gate over atom x set x sense x p x variant.

Each draw is a small random problem that validates: p, m in 1..3 and
n_i in 1..4, with b the image of a point in the sets (less a slack on
``ge`` rows).  Both variants run on it.  Every run must end with a named
stop reason, raise nothing and emit no numpy RuntimeWarning.  A draw
inside an oracle's scope (SPD quadratics on free sets for ``eq``, on
free or nonneg sets for ``ge``) must also converge and, where the oracle
accepts it, match the oracle's objective.
"""

import numpy as np
import pytest

import pcadmm as pc

SEED, COUNT = 19, 40
SCOPED_SHARE = 0.4
MAX_ITERS, SCOPED_MAX_ITERS = 300, 3000
OBJECTIVE_RTOL = 1e-5
STOPS = {pc.CONVERGED, pc.MAX_ITERS, pc.NON_FINITE, pc.SUBPROBLEM_FAILURE}
ATOMS = ("spd", "psd", "zero-h", "l1", "zero")
SETS = ("free", "nonneg", "box")


def _atom(rng, kind, n):
    if kind == "l1":
        return pc.WeightedL1(rng.uniform(0.1, 1.0))
    if kind == "zero":
        return pc.Zero()
    if kind == "spd":
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * rng.uniform(1.0, 10.0, n)) @ Q.T
    elif kind == "psd":  # rank n - 1
        B = rng.standard_normal((n, n - 1))
        H = B @ B.T
    else:
        H = np.zeros((n, n))
    return pc.Quadratic((H + H.T) / 2, rng.standard_normal(n))


def _set_and_point(rng, kind, n):
    """The set and a point in it."""
    if kind == "free":
        return pc.Free(), rng.standard_normal(n)
    if kind == "nonneg":
        return pc.NonNeg(), np.abs(rng.standard_normal(n))
    lo, hi = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    return pc.Box(lo, hi), rng.uniform(lo, hi)


def _coupling(rng, m, n):
    """U diag(s) V' with s in [0.5, 2], so no draw is nearly rank
    deficient: the iteration bound then tests the solver, not the
    conditioning.  A third of the blocks that can be ortho-scaled (s all
    equal, n <= m) are, for the closed route."""
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = min(m, n)
    s = np.full(k, rng.uniform(0.5, 2.0)) if n <= m and rng.random() < 1 / 3 else rng.uniform(0.5, 2.0, k)
    return (U[:, :k] * s) @ V[:, :k].T


def _draw(k):
    """Problem k and whether it lies inside its sense's oracle scope."""
    rng = np.random.default_rng((SEED, k))
    p, m = rng.integers(1, 4, size=2)
    sense = str(rng.choice((pc.EQ, pc.GE)))
    scoped = rng.random() < SCOPED_SHARE
    scope_sets = ("free",) if sense == pc.EQ else ("free", "nonneg")
    blocks, image, in_scope = [], np.zeros(m), True
    for _ in range(p):
        n = int(rng.integers(1, 5))
        atom = "spd" if scoped else rng.choice(ATOMS)
        set_kind = rng.choice(scope_sets if scoped else SETS)
        in_scope &= atom == "spd" and set_kind in scope_sets
        st, x = _set_and_point(rng, set_kind, n)
        A = _coupling(rng, m, n)
        blocks.append(pc.BlockSpec(theta=_atom(rng, atom, n), set=st, A=A))
        image += A @ x
    if sense == pc.GE:
        image -= rng.uniform(0.0, 1.0, m)
    return pc.SeparableProblem(blocks=blocks, b=image, sense=sense), in_scope


def _oracle_objective(problem):
    """The oracle's objective, or None where the oracle declines."""
    oracle = pc.kkt_oracle if problem.sense == pc.EQ else pc.active_set_oracle
    try:
        return oracle(problem).objective
    except (ValueError, np.linalg.LinAlgError):
        return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", range(COUNT))
def test_fuzzed_problem_stops_by_name_and_matches_its_oracle(k):
    problem, in_scope = _draw(k)
    assert pc.validate_problem(problem) == []
    want = _oracle_objective(problem) if in_scope else None
    for variant in ("pd", "dp"):
        config = pc.SolverConfig(variant=variant, max_iters=SCOPED_MAX_ITERS if in_scope else MAX_ITERS)
        result = pc.run(problem, config)
        assert result.reason.kind in STOPS, result.reason
        if in_scope:
            assert result.reason.kind == pc.CONVERGED, (variant, result.reason)
        if want is not None:
            got = result.log.objective[-1]
            assert abs(got - want) <= OBJECTIVE_RTOL * max(1.0, abs(want)), (variant, got, want)
