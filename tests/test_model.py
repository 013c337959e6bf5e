import dataclasses
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import pcadmm as pc
from pcadmm import cli, model


def two_block_problem():
    return pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=pc.Free(), A=np.ones((1, 2))),
            pc.BlockSpec(theta=pc.WeightedL1(0.5), set=pc.NonNeg(), A=np.array([[1.0, -1.0]])),
        ),
        b=np.array([1.0]),
        sense=pc.EQ,
    )


def test_validate_well_formed():
    assert pc.validate_problem(two_block_problem()) == []
    # infinite box bounds are legal, and so are entries whose squares overflow
    infinite_box = pc.Box(lo=[-np.inf], hi=[np.inf])
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=pc.Zero(), set=infinite_box, A=[[1e200]]),), b=[1.0])
    assert pc.validate_problem(prob) == []


def test_validate_wrong_row_count():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=np.ones((2, 2))),
            pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=np.ones((1, 2))),
        ),
        b=np.zeros(2),
    )
    violations = pc.validate_problem(prob)
    assert len(violations) == 1
    assert "block 1" in violations[0] and "row count" in violations[0]


def test_validate_box_reversed():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(
                theta=pc.Zero(),
                set=pc.Box(lo=np.array([1.0]), hi=np.array([0.0])),
                A=np.ones((1, 1)),
            ),
        ),
        b=np.zeros(1),
    )
    violations = pc.validate_problem(prob)
    assert len(violations) == 1
    assert "block 0" in violations[0]


def test_validate_reports_all_violations_at_once():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.WeightedL1(-1.0), set=pc.Free(), A=np.ones((2, 2))),
            pc.BlockSpec(
                theta=pc.Quadratic(np.eye(3), np.zeros(2)),  # c has wrong length
                set=pc.Box(lo=np.ones(3), hi=np.zeros(3)),
                A=np.ones((1, 3)),
            ),
        ),
        b=np.zeros(2),
    )
    violations = pc.validate_problem(prob)
    assert len(violations) >= 3  # negative weight, row count, c length, box
    assert any("block 0" in v for v in violations)
    assert any("block 1" in v for v in violations)


def test_validate_nan_in_b_is_rejected():
    prob, _ = pc.gen_eq_qp(2, [10, 10], 5, 0)
    prob.b[0] = np.nan
    assert any("non-finite" in msg for msg in pc.validate_problem(prob))
    with pytest.raises(ValueError, match="non-finite"):
        pc.run(prob, pc.SolverConfig(max_iters=2000))


def test_validate_non_finite_data():
    A = np.array([[1.0, np.inf]])
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[1.0, 0.0], [0.0, np.nan]], [0.0, 0.0]), A=A),
            pc.BlockSpec(theta=pc.Quadratic(np.eye(1), [np.inf]), A=[[1.0]]),
            pc.BlockSpec(theta=pc.WeightedL1(np.nan), A=[[1.0]]),
            pc.BlockSpec(theta=pc.Zero(), set=pc.Box(lo=[np.nan], hi=[1.0]), A=[[1.0]]),
        ),
        b=[1.0],
    )
    errors = pc.validate_problem(prob)
    for expected in ("block 0: A", "block 0: quadratic H", "block 1: quadratic c", "block 2: l1", "block 3: box"):
        assert any(msg.startswith(expected) for msg in errors), (expected, errors)
    assert len(errors) == 5


def _claimed_ortho_problem(A, tau, b):
    # l1 on A, then 0.5||y||^2 + 1'y on I, with a file that claims A'A = cI
    n = A.shape[1]
    blocks = [
        {"A": A.tolist(), "theta": {"type": "l1", "tau": tau}, "ortho_scaled": True},
        {"A": np.eye(n).tolist(), "theta": {"type": "quadratic", "H": np.eye(n).tolist(), "c": np.ones(n).tolist()}},
    ]
    return pc.problem_from_json({"sense": "eq", "b": b, "blocks": blocks})


def _reduced_lasso_optimum(A, tau, b):
    # y = b - Ax leaves min tau||x||_1 + 0.5||b - Ax||^2 + 1'(b - Ax),
    # solved here by a plain proximal-gradient loop
    S, r = A.T @ A, A.T @ (np.asarray(b) + 1.0)
    lip = np.linalg.eigvalsh(S)[-1]
    x = np.zeros(A.shape[1])
    for _ in range(100_000):
        z = x - (S @ x - r) / lip
        x_next = np.sign(z) * np.maximum(np.abs(z) - tau / lip, 0.0)
        if np.abs(x_next - x).max() <= 1e-15:
            break
        x = x_next
    y = b - A @ x_next
    return tau * np.abs(x_next).sum() + 0.5 * y @ y + y.sum()


def _probe_null_gram(n, w):
    # I + E with E symmetric, zero on its diagonal, max|E_ij| = 0.3 and
    # Ez = 0 for z_j = 2 + cos(j): E's n(n - 1)/2 free entries meet n
    # equations, so for n >= 4 the weights w (length n(n - 3)/2) pick E
    # from a null space that a test of A'(Az) = cz on this z cannot see
    z = 2.0 + np.cos(np.arange(n))
    rows, cols = np.triu_indices(n, 1)
    basis = np.zeros((rows.size, n, n))
    basis[np.arange(rows.size), rows, cols] = basis[np.arange(rows.size), cols, rows] = 1.0
    E = np.tensordot(w @ np.linalg.svd((basis @ z).T)[2][n:], basis, 1)
    return np.eye(n) + 0.3 * E / abs(E).max()


# A'A = I + ww' with w = (0, 3, -2), and I + E with a zero-diagonal E and
# E(1, 2, 3, 4)' = 0, which a probe on z = (1, ..., n) cannot see; I + pp'
# with p_1 = 0 and p'z = 0 for z_j = 2 + cos(j), which only equal column
# norms rule out; and I + E with Ez = 0 for that z and equal column norms
W = np.array([0.0, 3.0, -2.0])
E = 0.05 * np.array([[0, 0, 8, -6], [0, 0, -4, 3], [8, -4, 0, 0], [-6, 3, 0, 0]])
Z = 2.0 + np.cos(np.arange(3))
P = np.array([0.0, -Z[2], Z[1]])
BLIND_SPOTS = {
    "rank-one": np.eye(3) + np.outer(W, W),
    "zero-diagonal": np.eye(4) + E,
    "probe-null": np.eye(3) + np.outer(P, P),
    "zero-diagonal-cos-probe": _probe_null_gram(4, np.ones(2)),
}


@pytest.mark.parametrize("gram", BLIND_SPOTS.values(), ids=BLIND_SPOTS.keys())
def test_a_claimed_ortho_scaled_flag_is_rederived(gram):
    A = np.linalg.cholesky(gram).T  # A'A = gram
    b = np.arange(1.0, A.shape[0] + 1)
    problem = _claimed_ortho_problem(A, 0.5, b)
    assert not problem.blocks[0].ortho_scaled
    assert pc.compile_block(problem.blocks[0], 1.0).route == "pg"
    assert pc.validate_problem(problem) == []
    result = pc.run(problem, pc.SolverConfig(tol=1e-9))
    assert result.reason.kind == "converged"
    assert result.log.objective[-1] == pytest.approx(_reduced_lasso_optimum(A, 0.5, b), rel=1e-6)


def _exactly_ortho_scaled(A):
    m, n = A.shape
    c = A[:, 0] @ A[:, 0]
    return 0 < n <= m and c > 0 and np.abs(A.T @ A - c * np.eye(n)).max() <= 1e-10 * c


def _ortho_corpus(rng):
    # (A, whether A'A = cI); n >= 2, since any one nonzero column passes
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(0, 5))
        s = rng.uniform(0.1, 10.0)
        Q = np.linalg.qr(rng.standard_normal((m, n)))[0]
        signed = np.zeros((m, n))
        signed[rng.permutation(m)[:n], np.arange(n)] = rng.choice([-1.0, 1.0], n)
        yield s * Q, True
        yield s * signed, True
        yield s * (Q + 1e-15 * rng.standard_normal((m, n))), True
        yield s * (Q + 1e-6 * rng.standard_normal((m, n))), False
        yield rng.standard_normal((m, n)), False
        yield rng.standard_normal((n, n + int(rng.integers(1, 4)))), False  # n > m
    for n in range(2, 9):
        # every nonzero on the diagonal: tall with equal |d|, square without
        yield rng.uniform(0.1, 10.0) * np.eye(n + 2, n) * rng.choice([-1.0, 1.0], n), True
        yield np.diag(rng.uniform(0.5, 2.0, n)), False
    for n in np.repeat(np.arange(4, 9), 20):
        gram = _probe_null_gram(n, rng.standard_normal(n * (n - 3) // 2))
        Q = np.linalg.qr(rng.standard_normal((n + int(rng.integers(0, 5)), n)))[0]
        yield rng.uniform(0.1, 10.0) * Q @ np.linalg.cholesky(gram).T, False


def test_ortho_scaled_is_derived_from_a():
    for A, expected in _ortho_corpus(np.random.default_rng(43)):
        assert _exactly_ortho_scaled(A) == expected
        assert pc.BlockSpec(theta=pc.Zero(), A=A).ortho_scaled == expected
    with pytest.raises(TypeError):
        pc.BlockSpec(theta=pc.Zero(), A=np.eye(2), ortho_scaled=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            assert not pc.BlockSpec(theta=pc.Zero(), A=np.diag([1.0, bad])).ortho_scaled
        for A in (np.zeros((2, 2)), np.zeros((2, 0)), [[1e200]]):
            assert not pc.BlockSpec(theta=pc.Zero(), A=A).ortho_scaled


@pytest.mark.parametrize("claim, A, route", [(True, np.diag([1.0, 3.0]), "pg"), (False, np.eye(2), "closed")])
def test_json_ortho_scaled_key_is_ignored(claim, A, route):
    block = {"A": A.tolist(), "theta": {"type": "l1", "tau": 0.5}, "ortho_scaled": claim}
    problem = pc.problem_from_json({"sense": "eq", "b": [0.0, 0.0], "blocks": [block]})
    assert problem.blocks[0].ortho_scaled == (route == "closed")
    assert pc.compile_block(problem.blocks[0], 1.0).route == route


def test_shipped_generators_derive_ortho_scaled():
    for seed in (0, 1):
        lasso = pc.gen_lasso(20, 40, 0.5, seed)[0]
        svm = pc.gen_toy_svm(3, seed=seed)
        assert pc.validate_problem(lasso) == [] and pc.validate_problem(svm) == []
        for blk in (lasso.blocks[1], svm.blocks[1]):
            assert blk.ortho_scaled
            assert pc.compile_block(blk, 1.0).route == "closed"


def test_validate_asymmetric_quadratic():
    H = np.array([[1.0, 0.5], [0.0, 1.0]])
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(H, np.zeros(2)), set=pc.Free(), A=np.ones((1, 2))),),
        b=np.zeros(1),
    )
    assert any("symmetric" in v for v in pc.validate_problem(prob))


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_validate_accepts_a_scaled_symmetric_quadratic(scale):
    # roundoff in a scaled H leaves max|H - H'| above 1e-12, which is
    # tiny against max|H|; a relative asymmetry is still rejected
    problem, _ = pc.gen_eq_qp(2, [50, 50], 10, 0)
    blocks = tuple(pc.BlockSpec(theta=pc.Quadratic(scale * blk.theta.H, scale * blk.theta.c), A=blk.A) for blk in problem.blocks)
    assert max(abs(blk.theta.H - blk.theta.H.T).max() for blk in blocks) > 1e-12
    scaled = pc.SeparableProblem(blocks=blocks, b=problem.b)
    assert pc.validate_problem(scaled) == []
    result = pc.run(scaled, pc.SolverConfig(beta=scale))
    assert result.reason.kind == pc.CONVERGED
    assert result.log.objective[-1] == pytest.approx(pc.active_set_oracle(scaled).objective, rel=1e-6)
    skew = pc.Quadratic(scale * np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=skew, A=np.ones((1, 2))),), b=np.zeros(1))
    assert any("symmetric" in v for v in pc.validate_problem(prob))


def _old_symmetry_verdict(H):
    # the verdict written out: max|H - H'| against 1e-12, absolute and relative
    asym = abs(H - H.T).max(initial=0.0)
    return not (asym > 1e-12 and asym > 1e-12 * abs(H).max())


def test_the_symmetry_verdict_is_derived_once_per_quadratic(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [np.zeros((0, 0)), np.eye(3), np.array([[2.0, 1e-13], [0.0, 1.0]]), np.array([[2.0, 1e-11], [0.0, 1.0]])]
    for scale in (1e-14, 1.0, 1e6):
        B = rng.standard_normal((6, 6))
        cases += [scale * (B + B.T), scale * B, scale * (B + B.T) + 1e-12 * scale * np.triu(B, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in cases:
            assert pc.Quadratic(H, np.zeros(len(H))).symmetric == _old_symmetry_verdict(H)
        # shape and finiteness are reported first; deriving gives no warning
        for H in (np.ones((2, 3)), np.array([[1.0, np.inf], [-np.inf, 1.0]]), np.full((2, 2), np.nan), np.ones(2)):
            pc.Quadratic(H, np.zeros(2))
    # validate_problem reads the verdict and does not recompute it
    theta = pc.Quadratic(np.eye(2), np.zeros(2))
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=theta, A=np.ones((1, 2))),), b=np.zeros(1))
    monkeypatch.setattr(model, "_symmetric", lambda H: pytest.fail("validate_problem recomputed the verdict"))
    assert pc.validate_problem(prob) == []
    object.__setattr__(theta, "symmetric", False)
    assert pc.validate_problem(prob) == ["block 0: quadratic H is not symmetric"]


def _violations(*blocks):
    return pc.validate_problem(pc.SeparableProblem(blocks=blocks, b=[0.0]))


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return [str(info.value)]


# Each case builds its own input when called, and gives the message list
# it must produce: validate_problem's violations, or the one ValueError.
MESSAGES = {
    "quadratic-H-shape": (
        lambda: _violations(pc.BlockSpec(theta=pc.Quadratic(np.eye(3), np.zeros(2)), A=np.ones((1, 2)))),
        "block 0: quadratic H has shape (3, 3), expected (2, 2)",
    ),
    "box-length": (
        lambda: _violations(pc.BlockSpec(theta=pc.Zero(), set=pc.Box(np.zeros(3), np.ones(3)), A=np.ones((1, 2)))),
        "block 0: box bounds do not match dimension 2",
    ),
    "custom-value": (
        lambda: _violations(pc.BlockSpec(theta=pc.Custom(value=0.0, solve=lambda *args: None), A=[[1.0]])),
        "block 0: custom atom needs callable value and solve",
    ),
    "custom-solve": (
        lambda: _violations(pc.BlockSpec(theta=pc.Custom(value=lambda x: 0.0, solve="qp"), A=[[1.0]])),
        "block 0: custom atom needs callable value and solve",
    ),
    "unknown-atom": (lambda: _violations(pc.BlockSpec(theta=object(), A=[[1.0]])), "block 0: unknown objective atom object"),
    "unknown-set": (lambda: _violations(pc.BlockSpec(theta=pc.Zero(), set=object(), A=[[1.0]])), "block 0: unknown set object"),
    "zero-columns": (lambda: _violations(pc.BlockSpec(theta=pc.Zero(), A=np.zeros((1, 0)))), "block 0: dimension must be at least 1"),
    "zero-columns-quadratic": (
        lambda: _violations(pc.BlockSpec(theta=pc.Quadratic(np.zeros((0, 0)), np.zeros(0)), A=np.zeros((1, 0)))),
        "block 0: dimension must be at least 1",
    ),
    "vector-A": (lambda: _error(pc.BlockSpec, pc.Zero(), pc.Free(), np.ones(2)), "A must be a matrix, got shape (2,)"),
    "no-blocks": (lambda: _error(pc.SeparableProblem, (), [0.0]), "problem needs at least one block"),
    "state-vector-a": (lambda: _error(pc.IterateState, np.zeros(2), np.zeros(1)), "a must be a (p, m) array, got shape (2,)"),
    "residual-aggregates": (
        lambda: _error(pc.feasibility_residual, two_block_problem(), np.zeros((1, 1)), np.zeros(1)),
        "aggregates have shape (1, 1), expected (2, 1)",
    ),
    "residual-lam": (
        lambda: _error(pc.feasibility_residual, two_block_problem(), np.zeros((2, 1)), np.zeros(2)),
        "lam has length 2, expected 1",
    ),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_shape_and_type_messages(name):
    messages, expected = MESSAGES[name]
    assert messages() == [expected]


def test_feasibility_residual_equality_at_feasible_point():
    prob = two_block_problem()
    a = [np.array([0.6]), np.array([0.4])]
    assert pc.feasibility_residual(prob, a, np.array([5.0])) == (0.0, 0.0)


def test_feasibility_residual_inactive_inequality():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=[[1.0]]),),
        b=[0.0],
        sense=pc.GE,
    )
    assert pc.feasibility_residual(prob, [np.array([2.0])], np.zeros(1)) == (0.0, 0.0)


def test_feasibility_residual_violated_inequality():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=[[1.0]]),),
        b=[0.0],
        sense=pc.GE,
    )
    primal, compl = pc.feasibility_residual(prob, [np.array([-0.3])], np.array([1.0]))
    assert primal == pytest.approx(0.3)
    assert compl == pytest.approx(0.3)


def test_feasibility_residual_zero_at_oracle_saddles():
    for seed in range(3):
        prob, ref = pc.gen_eq_qp(2, [5, 5], 3, seed)
        primal, compl = pc.feasibility_residual(prob, ref.a, ref.lam)
        assert primal <= 1e-8 and compl <= 1e-8
        prob, ref = pc.gen_ineq_qp(2, [4, 4], 2, seed)
        primal, compl = pc.feasibility_residual(prob, ref.a, ref.lam)
        assert primal <= 1e-8 and compl <= 1e-8


def test_solver_config_validation():
    with pytest.raises(ValueError, match="nu must lie in"):
        pc.SolverConfig(nu=1.0)
    with pytest.raises(ValueError, match="nu must lie in"):
        pc.SolverConfig(nu=0.0)
    with pytest.raises(ValueError, match="beta"):
        pc.SolverConfig(beta=0.0)
    with pytest.raises(ValueError, match="variant"):
        pc.SolverConfig(variant="xx")
    with pytest.raises(ValueError, match="inner_tol"):
        pc.SolverConfig(inner_tol=0.0)
    with pytest.raises(ValueError, match="inner_tol"):
        pc.SolverConfig(inner_tol=-1e-10)
    bad = [("tol", math.nan), ("tol", math.inf), ("tol", -math.inf), ("inner_tol", math.inf)]
    bad += [("inner_tol", math.nan), ("beta", math.inf), ("beta", math.nan)]
    bad += [("max_iters", 2.5), ("max_iters", 10.0), ("max_iters", True), ("max_iters", 0)]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} must"):
            pc.SolverConfig(**{name: value})
    assert pc.SolverConfig(max_iters=np.int64(3), tol=0.0).max_iters == 3


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_every_entry_point_rejects_a_beta_that_is_not_positive_and_finite(beta):
    from pcadmm import matrices

    prob = two_block_problem()
    state = pc.IterateState(np.zeros((prob.p, prob.m)), np.zeros(prob.m))
    pred = pc.PredictorState([np.zeros(blk.n) for blk in prob.blocks], state.a, state.lam)
    weighted_l1 = pc.BlockSpec(theta=pc.WeightedL1(0.5), set=pc.Free(), A=np.ones((2, 1)))
    exact = pc.BlockSpec(theta=pc.Quadratic(np.eye(1), [0.0]), set=pc.Free(), A=np.ones((2, 1)))
    calls = [
        lambda: pc.SolverConfig(beta=beta),
        lambda: pc.compile_block(weighted_l1, beta),
        lambda: pc.compile_block(exact, beta),
        lambda: pc.predict_pd(prob, state, beta, 1e-10),
        lambda: pc.correct_pd(state, pred, 0.9, beta),
        lambda: pc.solve_lambda_subproblem(state.lam, state.lam, beta, pc.EQ),
        lambda: pc.build_p(prob, beta),
        lambda: matrices.xi_from_aggregates(state.a, state.lam, beta),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a check, not a division, rejects it
        for call in calls:
            with pytest.raises(ValueError, match=f"^beta must be positive and finite, got {beta!r}$"):
                call()


def test_solve_flag_defaults_are_the_solver_config_defaults():
    args = cli._build_parser().parse_args(["solve", "--problem", "p.json"])
    defaults = {f.name: f.default for f in dataclasses.fields(pc.SolverConfig) if f.name != "record_xi"}
    assert set(defaults) == {"variant", "beta", "nu", "max_iters", "tol", "inner_tol"}
    for name, value in defaults.items():
        assert getattr(args, name) == value and type(getattr(args, name)) is type(value), name
    assert pc.SolverConfig(**{name: getattr(args, name) for name in defaults}) == pc.SolverConfig()
    assert cli._build_parser().parse_args(["solve", "--problem", "p.json", "--max-iters", "7"]).max_iters == 7


# Every atom at x = (1, -2) and every set's projection of v = (-1.5, 0.5, 3), by hand.
HAND_VALUES = {
    pc.Quadratic: (pc.Quadratic([[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0]), 2.0),  # 0.5 (2 + 4) + (1 - 2)
    pc.WeightedL1: (pc.WeightedL1(0.5), 1.5),
    pc.Zero: (pc.Zero(), 0.0),
    pc.Custom: (pc.Custom(value=lambda x: float(x @ x), solve=None), 5.0),
    pc.Free: (pc.Free(), [-1.5, 0.5, 3.0]),
    pc.NonNeg: (pc.NonNeg(), [0.0, 0.5, 3.0]),
    pc.Box: (pc.Box(lo=[-1.0, 1.0, 0.0], hi=[1.0, 2.0, 2.0]), [-1.0, 1.0, 2.0]),
}
SET_TYPES = tuple(model._JSON_TYPES["set"].values())


@pytest.mark.parametrize(
    "cls", [*model._JSON_TYPES["theta"].values(), pc.Custom, *SET_TYPES], ids=lambda cls: cls.__name__
)
def test_atom_values_and_set_projections(cls):
    spec, expected = HAND_VALUES[cls]
    if cls in SET_TYPES:
        np.testing.assert_array_equal(pc.project_set([-1.5, 0.5, 3.0], spec), expected)
    else:
        prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=spec, A=np.ones((1, 2))),), b=[0.0])
        assert pc.objective_value(prob, [[1.0, -2.0]]) == expected


def test_an_all_zero_h_quadratic_is_valued_as_c_x():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5)
    q = pc.Quadratic(np.zeros((5, 5)), c)
    assert q.linear
    for _ in range(5):
        x = rng.standard_normal(5)
        assert q.value(x) == float(c @ x)
    # x'Hx is never formed, so an infinite entry does not turn 0 * inf into NaN
    assert q.value(np.array([np.inf, 0.0, 0.0, 0.0, 0.0])) == np.copysign(np.inf, c[0])


def test_a_and_h_are_stored_contiguous_and_a_contiguous_input_is_kept():
    A, H = np.ones((3, 2)), np.eye(2)
    assert pc.BlockSpec(theta=pc.Zero(), A=A).A is A
    assert pc.Quadratic(H, np.zeros(2)).H is H
    for view in (np.eye(4)[::2, ::2], np.asfortranarray(np.arange(4.0).reshape(2, 2))):
        stored = pc.Quadratic(view, np.zeros(2)).H
        assert stored.flags.c_contiguous and np.array_equal(stored, view)
        stored = pc.BlockSpec(theta=pc.Zero(), A=view).A
        assert stored.flags.c_contiguous and np.array_equal(stored, view)


@pytest.mark.parametrize("entry, k", [(1e-300, 1), (np.nan, 1), (1e-300, 0)], ids=["one-nonzero", "nan", "at-h00"])
def test_a_quadratic_with_any_nonzero_h_entry_uses_the_full_form(entry, k):
    H = np.zeros((3, 3))
    H[k, k] = entry
    c, x = np.array([0.5, 0.5, 2.0]), np.array([1.0, 1.0, -1.0])
    c[k], x[k] = 0.0, 1e150
    q = pc.Quadratic(H, c)
    assert not q.linear
    with np.errstate(invalid="ignore"):
        want = float(0.5 * x @ H @ x + c @ x)
    got = q.value(x)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert got != float(c @ x)


def test_block_dimension_comes_from_a():
    assert pc.BlockSpec(theta=pc.Zero(), A=np.ones((3, 2))).n == 2
    with pytest.raises(TypeError):
        pc.BlockSpec(theta=pc.Zero(), A=np.ones((3, 2)), n=2)
    data = {"sense": "eq", "b": [0.0], "blocks": [{"n": 2, "A": [[1.0]], "theta": {"type": "zero"}}]}
    with pytest.raises(ValueError, match="block 0: key 'n' is 2 but A has 1 columns"):
        pc.problem_from_json(data)


def test_json_round_trip():
    thetas = [pc.Quadratic(np.eye(2), [1.0, -1.0]), pc.WeightedL1(0.25), pc.Zero()]
    sets = [pc.Free(), pc.NonNeg(), pc.Box(lo=[0.0, -np.inf], hi=[1.0, 2.0])]
    for theta, st in itertools.product(thetas, sets):
        prob = pc.SeparableProblem(
            blocks=(
                pc.BlockSpec(theta=theta, set=st, A=np.arange(4.0).reshape(2, 2)),
                pc.BlockSpec(theta=pc.Zero(), set=pc.NonNeg(), A=np.eye(2)),
            ),
            b=np.array([2.0, 1.0]),
            sense=pc.GE,
        )
        data = pc.problem_to_json(prob)
        assert not any("ortho_scaled" in blk for blk in data["blocks"])
        back = pc.problem_from_json(data)
        assert pc.problem_to_json(back) == data
        assert back.sense == prob.sense
        assert back.p == prob.p and back.m == prob.m
        np.testing.assert_array_equal(back.b, prob.b)
        for orig, rt in zip(prob.blocks, back.blocks):
            np.testing.assert_array_equal(orig.A, rt.A)
            assert type(orig.theta) is type(rt.theta)
            assert type(orig.set) is type(rt.set)
            assert orig.ortho_scaled == rt.ortho_scaled


def test_json_of_a_custom_atom_is_refused():
    blk = pc.BlockSpec(theta=pc.Custom(value=lambda x: 0.0, solve=None), A=[[1.0]])
    with pytest.raises(ValueError, match="Custom cannot be serialized"):
        pc.problem_to_json(pc.SeparableProblem(blocks=(blk,), b=[0.0]))


def test_l1_weight_is_converted_when_built():
    assert type(pc.WeightedL1(np.float32(0.5)).tau) is float
    with pytest.raises(TypeError):
        pc.WeightedL1([1.0])


def test_readme_schema_example_loads_and_solves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Problem JSON schema", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    prob = pc.problem_from_json(example)
    assert pc.problem_to_json(prob) == example
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.CONVERGED


@pytest.mark.parametrize("b", ["abc", ["x"], {}], ids=["string", "string-list", "dict"])
def test_json_non_numeric_b_names_key(b):
    with pytest.raises(ValueError, match="^key 'b': "):
        pc.problem_from_json({"sense": "eq", "b": b, "blocks": [{"A": [[1.0]], "theta": {"type": "zero"}}]})


def test_json_malformed_names_key():
    with pytest.raises(ValueError, match="sense"):
        pc.problem_from_json({"sense": "neq", "b": [0.0], "blocks": []})
    with pytest.raises(ValueError, match="blocks"):
        pc.problem_from_json({"sense": "eq", "b": [0.0]})
    with pytest.raises(ValueError, match="tau"):
        pc.problem_from_json(
            {"sense": "eq", "b": [0.0], "blocks": [{"n": 1, "A": [[1.0]], "theta": {"type": "l1"}}]}
        )
