import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import pcadmm as pc
from pcadmm import prox
from pcadmm.prox import SubproblemRequest


def test_prox_shrink_values():
    np.testing.assert_allclose(pc.prox_shrink([3.0], 1.0), [2.0])
    np.testing.assert_allclose(pc.prox_shrink([-0.5], 1.0), [0.0])
    v = np.array([1.5, -2.0, 0.0])
    np.testing.assert_array_equal(pc.prox_shrink(v, 0.0), v)


def test_prox_shrink_nonexpansive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v1, v2 = rng.standard_normal(6), rng.standard_normal(6)
        tau = rng.uniform(0, 2)
        lhs = np.linalg.norm(pc.prox_shrink(v1, tau) - pc.prox_shrink(v2, tau))
        assert lhs <= np.linalg.norm(v1 - v2) + 1e-14


@pytest.mark.parametrize("tau", [0.0, 0.5, np.inf])
def test_prox_shrink_is_the_sign_form_up_to_the_sign_of_zero(tau):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(200) * rng.choice([0.1, 1.0, 10.0], 200)
    v[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 0.5]
    rng.shuffle(v)
    with np.errstate(invalid="ignore"):  # inf - inf in both forms
        got = pc.prox_shrink(v, tau)
        want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.all((got == want) | np.isnan(want))  # -0.0 == 0.0


def test_project_set_values():
    np.testing.assert_array_equal(pc.project_set([-7.0, 2.0], pc.Free()), [-7.0, 2.0])
    np.testing.assert_array_equal(pc.project_set([-1.0, 3.0], pc.NonNeg()), [0.0, 3.0])
    box = pc.Box(lo=[0.0], hi=[1.0])
    np.testing.assert_array_equal(pc.project_set([2.0], box), [1.0])


def test_project_set_idempotent():
    rng = np.random.default_rng(1)
    sets = [pc.Free(), pc.NonNeg(), pc.Box(lo=-np.ones(5), hi=np.ones(5))]
    for s in sets:
        v = rng.standard_normal(5) * 3
        once = pc.project_set(v, s)
        np.testing.assert_array_equal(pc.project_set(once, s), once)


def test_unknown_atom_or_set_is_a_type_error():
    class Strange:
        pass

    with pytest.raises(TypeError, match="unknown objective atom Strange"):
        pc.compile_block(pc.BlockSpec(theta=Strange(), A=np.eye(2)), 1.0)
    with pytest.raises(TypeError, match="unknown set Strange"):
        pc.project_set(np.zeros(2), Strange())
    with pytest.raises(TypeError, match="unknown set Strange"):
        pc.compile_block(pc.BlockSpec(theta=pc.Zero(), set=Strange(), A=np.eye(2)), 1.0)


@pytest.mark.parametrize("st", [pc.Free(), pc.NonNeg(), pc.Box(lo=-0.3 * np.ones(4), hi=0.2 * np.ones(4))], ids=repr)
def test_closed_route_solve_is_the_projected_shrink(st):
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    A, beta = 1.7 * Q, 1.3
    L = beta * float(A[:, 0] @ A[:, 0])
    thetas = [pc.WeightedL1(0.4), pc.Zero(), pc.Quadratic(np.zeros((4, 4)), rng.standard_normal(4))]
    for theta in thetas:
        plan = pc.compile_block(pc.BlockSpec(theta=theta, set=st, A=A), beta)
        assert plan.route == "closed"
        _, c, tau = theta.parts()
        for _ in range(5):
            v = rng.standard_normal(6)
            x, ax = plan.solve(SubproblemRequest(theta, st, A, beta, v), 1e-10, None)
            want = pc.project_set(pc.prox_shrink((beta * (A.T @ v) - c) / L, tau / L), st)
            np.testing.assert_array_equal(x, want)
            np.testing.assert_array_equal(ax, A @ want)


def quad_request(H, c, A, beta, v):
    return SubproblemRequest(theta=pc.Quadratic(H, c), set=pc.Free(), A=np.asarray(A, float), beta=beta, v=np.asarray(v, float))


def test_quadratic_free_hand_solves():
    x, ax = pc.solve_block_subproblem(quad_request([[1.0]], [0.0], [[1.0]], 1.0, [0.0]), 1e-10)
    np.testing.assert_allclose(x, [0.0])
    x, ax = pc.solve_block_subproblem(quad_request([[1.0]], [0.0], [[1.0]], 1.0, [2.0]), 1e-10)
    np.testing.assert_allclose(x, [1.0])
    np.testing.assert_allclose(ax, [1.0])


def test_quadratic_free_matches_direct_solve():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 5, 3
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * rng.uniform(0.5, 5, n)) @ Q.T
        c = rng.standard_normal(n)
        A = rng.standard_normal((m, n))
        beta = rng.uniform(0.5, 3)
        v = rng.standard_normal(m)
        x, _ = pc.solve_block_subproblem(quad_request(H, c, A, beta, v), 1e-10)
        direct = np.linalg.solve(H + beta * A.T @ A, beta * A.T @ v - c)
        assert np.linalg.norm(x - direct) <= 1e-10 * (1 + np.linalg.norm(direct))


def test_l1_identity_closed_form():
    # argmin |x| + 0.5 (x - 3)^2 = soft-threshold(3, 1) = 2
    req = SubproblemRequest(theta=pc.WeightedL1(1.0), set=pc.Free(), A=np.eye(1), beta=1.0, v=np.array([3.0]))
    x, ax = pc.solve_block_subproblem(req, 1e-10)
    np.testing.assert_allclose(x, [2.0])
    np.testing.assert_allclose(ax, [2.0])


@pytest.mark.parametrize("claim", [True, False])
def test_request_flag_does_not_choose_the_route(claim):
    # A'A = diag(1, 9): the second coordinate minimizes
    # 0.5|x| + 0.5 (3x - 2)^2 at x = 5.5/9, not at the prox step 5.5
    req = SubproblemRequest(
        theta=pc.WeightedL1(0.5), set=pc.Free(), A=np.diag([1.0, 3.0]), beta=1.0, v=np.array([2.0, 2.0]), ortho_scaled=claim
    )
    x, _ = pc.solve_block_subproblem(req, 1e-12)
    np.testing.assert_allclose(x, [1.5, 5.5 / 9], rtol=1e-10)


CLOSED_ATOMS = {
    "Zero": pc.Zero(),
    "WeightedL1": pc.WeightedL1(0.7),
    "linear": pc.Quadratic(np.zeros((4, 4)), [0.3, -0.5, 0.1, 0.8]),
}
CLOSED_SETS = {
    "Free": pc.Free(),
    "NonNeg": pc.NonNeg(),
    "Box": pc.Box(lo=[-0.2, -1.0, 0.1, -0.3], hi=[0.4, 0.0, 1.0, 0.2]),
}


@pytest.mark.parametrize("set_name", list(CLOSED_SETS))
@pytest.mark.parametrize("atom", list(CLOSED_ATOMS))
def test_l1_scaled_orthonormal_matches_inner_loop(atom, set_name):
    # A'A = 4I: the closed route against the projected-gradient loop on
    # the same normal form, or the exact solve for a linear atom on a
    # free set
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    A = 2.0 * Q
    v = rng.standard_normal(6)
    theta, st = CLOSED_ATOMS[atom], CLOSED_SETS[set_name]
    plan = pc.compile_block(pc.BlockSpec(theta=theta, set=st, A=A), 1.3)
    assert plan.route == "closed"
    x1, _ = plan.solve(SubproblemRequest(theta=theta, set=st, A=A, beta=1.3, v=v), 1e-12, None)
    S, lip, r, tau = _normal_form(theta, A, 1.3, v)
    if atom == "linear" and set_name == "Free":
        x2 = np.linalg.solve(S, r)
    else:
        x2 = prox._projected_gradient(S, lip, r, tau, st.project, 1e-12, None)
    np.testing.assert_allclose(x1, x2, atol=1e-9)


def test_zero_normal_matrix_is_solved_exactly():
    # H = 0 and A = 0: min c'x over the set sits at the bound -c points
    # to, or at the projection of 0 where c_j = 0; unbounded otherwise
    def req(theta, st):
        return SubproblemRequest(theta=theta, set=st, A=np.zeros((2, 3)), beta=1.7, v=np.ones(2))

    linear = pc.Quadratic(np.zeros((3, 3)), [1.0, -1.0, 0.0])
    box = pc.Box(lo=[-2.0, -2.0, 0.5], hi=[3.0, 3.0, 1.0])
    x, ax = pc.solve_block_subproblem(req(linear, box), 1e-10)
    np.testing.assert_array_equal(x, [-2.0, 3.0, 0.5])
    np.testing.assert_array_equal(ax, [0.0, 0.0])
    x, _ = pc.solve_block_subproblem(req(pc.WeightedL1(0.4), box), 1e-10, x0=np.ones(3))
    np.testing.assert_array_equal(x, [0.0, 0.0, 0.5])
    for st in (pc.NonNeg(), pc.Free()):
        with pytest.raises(pc.SingularSystemError):
            pc.solve_block_subproblem(req(linear, st), 1e-10)


def test_projected_gradient_vi_certificate():
    # quadratic over a box through the inner loop: the optimality
    # inequality must hold for random feasible probe points
    rng = np.random.default_rng(13)
    n, m = 4, 3
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (Q * rng.uniform(1, 4, n)) @ Q.T
    c = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    beta, v = 1.5, rng.standard_normal(m)
    box = pc.Box(lo=-np.ones(n), hi=np.ones(n))
    req = SubproblemRequest(theta=pc.Quadratic(H, c), set=box, A=A, beta=beta, v=v)
    inner_tol = 1e-10
    x, _ = pc.solve_block_subproblem(req, inner_tol)
    assert np.all(x >= -1) and np.all(x <= 1)
    grad = H @ x + c + beta * A.T @ (A @ x - v)
    for _ in range(100):
        z = rng.uniform(-1, 1, n)
        assert (z - x) @ grad >= -inner_tol


def test_projected_gradient_vi_certificate_l1():
    rng = np.random.default_rng(17)
    n, m = 4, 5
    A = rng.standard_normal((m, n))
    beta, v, tau = 2.0, rng.standard_normal(m), 0.6
    req = SubproblemRequest(theta=pc.WeightedL1(tau), set=pc.NonNeg(), A=A, beta=beta, v=v)
    inner_tol = 1e-10
    x, _ = pc.solve_block_subproblem(req, inner_tol)
    assert np.all(x >= 0)
    grad = beta * A.T @ (A @ x - v)
    theta_x = tau * np.sum(np.abs(x))
    for _ in range(100):
        z = rng.uniform(0, 2, n)
        defect = tau * np.sum(np.abs(z)) - theta_x + (z - x) @ grad
        assert defect >= -inner_tol


def test_singular_system_error():
    # H = 0 and rank-deficient A with no set constraint
    req = SubproblemRequest(
        theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)),
        set=pc.Free(),
        A=np.array([[1.0, 1.0]]),
        beta=1.0,
        v=np.array([1.0]),
    )
    with pytest.raises(pc.SingularSystemError):
        pc.solve_block_subproblem(req, 1e-10)


def test_inner_tol_must_be_positive():
    # NaN used to pass a `<= 0` test; inf used to return an uncertified point
    for inner_tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="inner_tol must be positive and finite"):
            pc.solve_block_subproblem(quad_request([[1.0]], [0.0], [[1.0]], 1.0, [0.0]), inner_tol)


def test_pg_loop_iteration_cap(monkeypatch):
    # a Box block runs the projected-gradient loop with no Newton step;
    # three steps cannot reach the tolerance on S = diag(2, 11)
    monkeypatch.setattr(prox, "MAX_INNER_ITERS", 3)
    theta, st = pc.Quadratic(np.diag([1.0, 10.0]), [0.5, -0.5]), pc.Box(-np.ones(2), np.ones(2))
    req = SubproblemRequest(theta=theta, set=st, A=np.eye(2), beta=1.0, v=np.array([0.3, -0.2]))
    with pytest.raises(pc.NonConvergenceError, match="in 3 iterations"):
        pc.solve_block_subproblem(req, 1e-10)
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=theta, set=st, A=np.eye(2)),), b=[0.3, -0.2])
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert result.reason.detail.startswith("block 0: ")
    assert "did not reach tolerance" in result.reason.detail


def test_custom_atom_dispatch():
    ## custom atom replicating theta(x) = 0.5 x^2 via its own solver
    def value(x):
        return 0.5 * float(x @ x)

    def solve(req, inner_tol, x0):
        S = np.eye(req.A.shape[1]) + req.beta * req.A.T @ req.A
        return np.linalg.solve(S, req.beta * req.A.T @ req.v)

    req = SubproblemRequest(theta=pc.Custom(value, solve), set=pc.Free(), A=np.array([[1.0]]), beta=1.0, v=np.array([2.0]))
    x, _ = pc.solve_block_subproblem(req, 1e-10)
    np.testing.assert_allclose(x, [1.0])


def test_lambda_subproblem():
    np.testing.assert_allclose(
        pc.solve_lambda_subproblem(np.array([1.0]), np.array([0.5]), 2.0, pc.EQ), [0.0]
    )
    np.testing.assert_allclose(
        pc.solve_lambda_subproblem(np.array([0.5]), np.array([1.0]), 1.0, pc.GE), [0.0]
    )
    lam = np.array([0.3, -0.7])
    np.testing.assert_array_equal(pc.solve_lambda_subproblem(lam, np.zeros(2), 1.0, pc.EQ), lam)
    with pytest.raises(ValueError):
        pc.solve_lambda_subproblem(lam, np.zeros(2), 0.0, pc.EQ)
    with pytest.raises(ValueError, match=r"^sense must be one of \('eq', 'ge'\), got 'le'$"):
        pc.solve_lambda_subproblem(lam, np.zeros(2), 1.0, "le")


def _plan_cases():
    # (route, block) covering every route
    rng = np.random.default_rng(23)
    n, m = 4, 6
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (Q * rng.uniform(0.5, 3, n)) @ Q.T
    c = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    ortho = 2.0 * np.linalg.qr(rng.standard_normal((m, n)))[0]

    def custom_solve(req, inner_tol, x0):
        S = np.eye(req.A.shape[1]) + req.beta * req.A.T @ req.A
        return np.linalg.solve(S, req.beta * req.A.T @ req.v)

    cases = [("exact", pc.Quadratic(H, c), pc.Free(), A)]
    cases += [("closed", atom, CLOSED_SETS["Box"], ortho) for atom in CLOSED_ATOMS.values()]
    cases += [("pg", pc.Quadratic(H, c), st, A) for st in (pc.NonNeg(), CLOSED_SETS["Box"])]
    cases += [("pg", pc.WeightedL1(0.4), pc.NonNeg(), A)]
    cases += [("custom", pc.Custom(lambda x: 0.5 * float(x @ x), custom_solve), pc.Free(), A)]
    return [(route, pc.BlockSpec(theta=theta, set=st, A=A)) for route, theta, st, A in cases]


PLAN_CASES = _plan_cases()
PLAN_IDS = [f"{route}-{type(blk.theta).__name__}-{type(blk.set).__name__}" for route, blk in PLAN_CASES]


def _normal_form(theta, A, beta, v):
    # (S, lip, r, tau) of the pg route, with the operations in the order
    # compile_block uses, so the loop run here sees the same bits
    H = getattr(theta, "H", np.zeros((A.shape[1],) * 2))
    c = getattr(theta, "c", 0.0)
    S = beta * (A.T @ A) + H
    return S, np.linalg.eigvalsh(S)[-1], beta * (A.T @ v) - c, getattr(theta, "tau", 0.0)


def _assert_nonneg_certificate(S, r, tau, x, inner_tol, rng):
    # the loop's gradient-map test, and the VI on random probe points
    grad = S @ x - r + tau
    lip = np.linalg.eigvalsh(S)[-1]
    assert np.all(x >= 0)
    assert lip * np.linalg.norm(x - np.maximum(x - grad / lip, 0.0)) <= 0.04 * inner_tol * (1 + 1e-12)
    for z in rng.uniform(0, 2, (50, x.size)):
        assert (z - x) @ grad >= -inner_tol


@pytest.mark.parametrize("route, blk", PLAN_CASES, ids=PLAN_IDS)
def test_compiled_plan_matches_per_call_solve(route, blk):
    # on NonNeg the pg route's Newton answer must also match the loop run
    # directly on the same normal form, cold (first v) and warm
    beta, inner_tol = 1.3, 1e-11
    theta, st, A = blk.theta, blk.set, blk.A
    plan = pc.compile_block(blk, beta)
    assert plan.route == route
    rng = np.random.default_rng(29)
    x0 = None
    for _ in range(4):
        v = rng.standard_normal(A.shape[0])
        fresh = SubproblemRequest(theta=theta, set=st, A=A, beta=beta, v=v)
        x_call, a_call = pc.solve_block_subproblem(fresh, inner_tol, x0=x0)
        planned = SubproblemRequest(theta=theta, set=st, A=A, beta=beta, v=v, plan=plan)
        for x, a in (pc.solve_block_subproblem(planned, inner_tol, x0=x0), plan.solve(planned, inner_tol, x0)):
            assert np.linalg.norm(x - x_call) <= 1e-12 * np.linalg.norm(x_call)
            assert np.linalg.norm(a - a_call) <= 1e-12 * np.linalg.norm(a_call)
            np.testing.assert_allclose(a, A @ x, rtol=1e-12, atol=0)
        if route == "pg" and isinstance(st, pc.NonNeg):
            S, lip, r, tau = _normal_form(theta, A, beta, v)
            newton = prox._active_set_newton(S, lip, r - tau, st.project, inner_tol, x0)
            assert newton is not None
            np.testing.assert_array_equal(x_call, newton)
            loop = prox._projected_gradient(S, lip, r, tau, st.project, inner_tol, x0)
            assert np.linalg.norm(newton - loop) <= 1e-9 * max(1.0, np.linalg.norm(loop))
            _assert_nonneg_certificate(S, r, tau, newton, inner_tol, rng)
        x0 = x_call


def test_newton_certifies_degenerate_nonneg_qps():
    # planted optima with weakly active coordinates (x_j = 0 and zero
    # gradient), where the active set can flip under roundoff
    rng = np.random.default_rng(31)
    inner_tol = 1e-10
    for _ in range(300):
        n = int(rng.integers(2, 13))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = (Q * rng.uniform(0.1, 10, n)) @ Q.T
        kind = rng.integers(0, 3, n)  # 0: free, 1: strictly active, 2: weakly active
        x_star = np.where(kind == 0, rng.uniform(0.1, 2, n), 0.0)
        mu = np.where(kind == 1, rng.uniform(0.1, 2, n), 0.0)
        r = S @ x_star - mu
        lip = np.linalg.eigvalsh(S)[-1]
        for x0 in (None, rng.uniform(-1, 2, n)):
            x = prox._active_set_newton(S, lip, r, pc.NonNeg().project, inner_tol, x0)
            assert x is not None
            assert np.linalg.norm(x - x_star) <= 1e-9 * (1 + np.linalg.norm(x_star))
            _assert_nonneg_certificate(S, r, 0.0, x, inner_tol, rng)


def test_newton_failure_falls_back_to_the_loop(monkeypatch):
    _, blk = next(c for c in PLAN_CASES if c[0] == "pg" and isinstance(c[1].set, pc.NonNeg))
    theta, st, A = blk.theta, blk.set, blk.A
    beta, inner_tol = 1.3, 1e-11
    v = np.random.default_rng(37).standard_normal(A.shape[0])
    monkeypatch.setattr(prox, "_active_set_newton", lambda *args: None)
    plan = pc.compile_block(blk, beta)
    req = SubproblemRequest(theta=theta, set=st, A=A, beta=beta, v=v)
    S, lip, r, tau = _normal_form(theta, A, beta, v)
    for x0 in (None, np.ones(A.shape[1])):
        x, _ = plan.solve(req, inner_tol, x0)
        np.testing.assert_array_equal(x, prox._projected_gradient(S, lip, r, tau, st.project, inner_tol, x0))


def test_pg_route_convexity_gate(monkeypatch):
    # a singular PSD S (H = 0, m < n) stays legal but never enters the
    # Newton solve; an S with a negative eigenvalue is rejected
    def no_newton(*args):
        raise AssertionError("Newton solve entered with a singular S")

    monkeypatch.setattr(prox, "_active_set_newton", no_newton)
    rng = np.random.default_rng(41)
    A = rng.standard_normal((2, 4))
    v, inner_tol = rng.standard_normal(2), 1e-10
    plan = pc.compile_block(pc.BlockSpec(theta=pc.WeightedL1(0.3), set=pc.NonNeg(), A=A), 1.0)
    x, _ = plan.solve(SubproblemRequest(theta=pc.WeightedL1(0.3), set=pc.NonNeg(), A=A, beta=1.0, v=v), inner_tol, None)
    S, _, r, tau = _normal_form(pc.WeightedL1(0.3), A, 1.0, v)
    _assert_nonneg_certificate(S, r, tau, x, inner_tol, rng)
    H = np.diag([1.0, 1.0, 1.0, -1e-3])
    with pytest.raises(pc.NonConvexError, match="not convex"):
        pc.compile_block(pc.BlockSpec(theta=pc.Quadratic(H, np.zeros(4)), set=pc.NonNeg(), A=np.zeros((2, 4))), 1.0)


def test_singular_exact_block_fails_when_compiled():
    with pytest.raises(pc.SingularSystemError, match="normal matrix"):
        pc.compile_block(pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), A=np.array([[1.0, 1.0]])), 1.0)


def test_a_singular_block_that_potrf_accepts_fails_when_compiled():
    # S = A'A = [[2, 2], [2, 2]]: potrf accepts it on roundoff, with a
    # last pivot of about 2e-8, and the pivot test U_jj^2 <= n eps S_jj
    # rejects it
    A = np.ones((2, 2))
    U, info = lapack.dpotrf(A.T @ A)
    assert info == 0 and 0 < U[1, 1] ** 2 <= 2 * np.finfo(float).eps * 2
    blk = pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), set=pc.Free(), A=A)
    with pytest.raises(pc.SingularSystemError, match="^normal matrix H \\+ beta\\*A'A is singular$"):
        pc.compile_block(blk, 1.0)


def test_an_ill_conditioned_exact_block_is_solved_to_its_condition():
    # cond(S) about 1e10 is legal: the block takes the exact route, and
    # its plan agrees with an LU solve to the accuracy both are owed,
    # a few n eps cond(S)
    rng = np.random.default_rng(71)
    n, m, beta, eps = 12, 4, 1.0, np.finfo(float).eps
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (Q * np.geomspace(1e-10, 1.0, n)) @ Q.T
    theta = pc.Quadratic((H + H.T) / 2, rng.standard_normal(n))
    A = 1e-6 * rng.standard_normal((m, n))
    S = theta.H + beta * A.T @ A
    cond = np.linalg.cond(S)
    assert 1e9 < cond < 1e11
    plan = pc.compile_block(pc.BlockSpec(theta=theta, set=pc.Free(), A=A), beta)
    assert plan.route == "exact"
    for v in rng.standard_normal((4, m)):
        x, _ = plan.solve(SubproblemRequest(theta=theta, set=pc.Free(), A=A, beta=beta, v=v), 1e-10, None)
        want = np.linalg.solve(S, beta * A.T @ v - theta.c)
        assert np.linalg.norm(x - want) <= 10 * n * eps * cond * np.linalg.norm(want)


@pytest.mark.parametrize("route, blk", PLAN_CASES, ids=PLAN_IDS)
def test_a_plan_value_is_theta_at_its_solve(route, blk):
    # every route but exact reports theta.value(x) itself; exact blocks
    # are held to the normal-equation bound below
    beta, inner_tol = 1.3, 1e-11
    plan = pc.compile_block(blk, beta)
    rng = np.random.default_rng(31)
    x0 = None
    for v in rng.standard_normal((4, blk.A.shape[0])):
        x, ax = plan.solve(SubproblemRequest(blk.theta, blk.set, blk.A, beta, v, plan=plan), inner_tol, x0)
        got = plan.value(x, v, ax)
        if route == "exact":
            assert abs(got - blk.theta.value(x)) <= _exact_value_bound(blk.theta, blk.A, beta, v, x, ax)
        else:
            assert got == blk.theta.value(x)
        x0 = x


def _exact_value_bound(theta, A, beta, v, x, ax):
    # For the computed x, with e = S x - r and r = beta A'v - c,
    # H x = beta A'(v - A x) - c + e, so the exact route's value is
    # theta(x) - x'e/2 in exact arithmetic.  The rest is the roundoff of
    # the dots on both sides and of a = A x, a few ulps of the sum of
    # their absolute terms.
    H, c = theta.H, theta.c
    S = H + beta * A.T @ A
    r = beta * A.T @ v - c
    ux, uax = np.abs(x), np.abs(A) @ np.abs(x)
    terms = ux @ np.abs(H) @ ux + np.abs(c) @ ux + beta * uax @ (np.abs(v) + 2 * uax)
    terms += ux @ (np.abs(S) @ ux + np.abs(r))
    return 0.5 * abs(x @ (S @ x - r)) + 4 * np.finfo(float).eps * terms


def _exact_value_case(rng, n, m, low=0.5, scale_a=1.0, linear=False, zero_c=False):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = np.zeros((n, n)) if linear else (Q * np.geomspace(low, 3.0, n)) @ Q.T
    c = np.zeros(n) if zero_c else rng.standard_normal(n)
    theta = pc.Quadratic((H + H.T) / 2, c)
    return theta, scale_a * rng.standard_normal((m, n))


EXACT_VALUE_CASES = {
    **{f"n{n}": dict(n=n, m=max(1, n // 2)) for n in (1, 10, 48, 200)},
    "zero-H-non-ortho": dict(n=6, m=9, linear=True),
    "zero-c": dict(n=10, m=5, zero_c=True),
    "cond-1e9": dict(n=12, m=4, low=3e-9, scale_a=1e-6),
}


@pytest.mark.parametrize("case", list(EXACT_VALUE_CASES))
def test_the_exact_value_agrees_with_theta_to_roundoff(case):
    kw = EXACT_VALUE_CASES[case]
    rng = np.random.default_rng(kw["n"])
    theta, A = _exact_value_case(rng, **kw)
    beta = 1.3
    if case == "cond-1e9":
        assert 3e8 < np.linalg.cond(theta.H + beta * A.T @ A) < 3e9
    if case == "zero-H-non-ortho":
        assert theta.linear and not pc.BlockSpec(theta=theta, set=pc.Free(), A=A).ortho_scaled
    plan = pc.compile_block(pc.BlockSpec(theta=theta, set=pc.Free(), A=A), beta)
    assert plan.route == "exact"
    for v in rng.standard_normal((5, A.shape[0])):
        x, ax = plan.solve(SubproblemRequest(theta, pc.Free(), A, beta, v, plan=plan), 1e-10, None)
        got = plan.value(x, v, ax)
        assert abs(got - theta.value(x)) <= _exact_value_bound(theta, A, beta, v, x, ax)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_a_run_logs_the_objective_of_its_solution(variant):
    # the logged objective sums the exact plans' values, not theta.value
    prob = pc.gen_eq_qp(3, [8, 12, 6], 5, seed=41)[0]
    result = pc.run(prob, pc.SolverConfig(variant=variant))
    assert result.reason.kind == pc.CONVERGED
    want = pc.objective_value(prob, result.solution.x_tilde)
    assert abs(result.log.objective[-1] - want) <= 1e-12 * abs(want)
    assert result.log.objective[-1] == pc.objective_value(prob, None, result.solution.theta_tilde)


def test_importing_pcadmm_imports_no_scipy():
    # scipy.linalg (about 0.2 s to import) loads with the first exact or
    # Newton-route compile, and a run on the closed route and the
    # projected-gradient loop needs none
    code = """
import sys
import numpy as np
import pcadmm as pc
assert "scipy" not in sys.modules
blocks = (
    pc.BlockSpec(theta=pc.Quadratic(np.eye(2), [1.0, -1.0]), set=pc.Box([0.0, 0.0], [1.0, 1.0]), A=np.eye(2)),
    pc.BlockSpec(theta=pc.WeightedL1(0.5), set=pc.Free(), A=-np.eye(2)),
)
problem = pc.SeparableProblem(blocks=blocks, b=[1.0, 2.0])
assert [plan.route for plan in pc.compile_blocks(problem, 1.0)] == ["pg", "closed"]
result = pc.run(problem, pc.SolverConfig())
assert result.reason.kind == pc.CONVERGED and "scipy" not in sys.modules
pc.compile_block(pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=pc.NonNeg(), A=np.eye(2)), 1.0)
assert "scipy.linalg" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("st", [pc.Free(), pc.NonNeg()], ids=["free", "nonneg"])
def test_an_indefinite_normal_matrix_is_not_convex_on_every_route(st):
    # S = -5I + I'I = -4I, on which the exact route's Cholesky fails too
    with pytest.raises(pc.NonConvexError, match="not convex: smallest eigenvalue -4$"):
        pc.compile_block(pc.BlockSpec(theta=pc.Quadratic(-5.0 * np.eye(2), np.zeros(2)), set=st, A=np.eye(2)), 1.0)


# Square diagonal couplings, which compile_block applies elementwise, and
# two near misses that must keep the dense products
DIAGONAL_AS = {
    "negative-scaled-identity": -1.5 * np.eye(4),
    "diagonal-with-a-zero": np.diag([2.0, 0.0, -0.5, 3.0]),
    "one-by-one": np.array([[-2.0]]),
}
DENSE_AS = {
    "tall-identity": np.vstack([np.eye(4), np.zeros((2, 4))]),
    "one-off-diagonal-entry": np.diag([2.0, 1.0, -0.5, 3.0]) + 0.25 * np.eye(4, k=2),
}


def _coupling_blocks(A):
    # (route, block) for each route a block with this A can take: l1 on a
    # box is closed when A is ortho-scaled and pg otherwise; a quadratic
    # on the orthant is pg with the Newton solve
    n = A.shape[1]
    rng = np.random.default_rng(43)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    quad = pc.Quadratic((Q * rng.uniform(0.5, 3, n)) @ Q.T, rng.standard_normal(n))

    def custom_solve(req, inner_tol, x0):
        S = np.eye(n) + req.beta * req.A.T @ req.A
        return np.linalg.solve(S, req.beta * req.A.T @ req.v)

    l1 = pc.BlockSpec(theta=pc.WeightedL1(0.4), set=pc.Box(-0.5 * np.ones(n), 0.4 * np.ones(n)), A=A)
    return [
        ("closed" if l1.ortho_scaled else "pg", l1),
        ("exact", pc.BlockSpec(theta=quad, set=pc.Free(), A=A)),
        ("pg", pc.BlockSpec(theta=quad, set=pc.NonNeg(), A=A)),
        ("custom", pc.BlockSpec(theta=pc.Custom(lambda x: 0.5 * float(x @ x), custom_solve), A=A)),
    ]


def _dense_solve(route, blk, beta, v, inner_tol, x0):
    # each route's formula with A'v and Ax as dense products
    theta, st, A = blk.theta, blk.set, blk.A
    if route == "custom":
        x = theta.solve(SubproblemRequest(theta=theta, set=st, A=A, beta=beta, v=v), inner_tol, x0)
        return x, A @ x
    S, lip, r, tau = _normal_form(theta, A, beta, v)
    if route == "closed":
        L = beta * float(A[:, 0] @ A[:, 0])
        x = pc.project_set(pc.prox_shrink(r / L, tau / L), st)
    elif route == "exact":
        # the compile's Cholesky calls, and K copied C-ordered as the plan
        # keeps it (a product with a Fortran-ordered K sums in another order)
        m = A.shape[0]
        U, _ = lapack.dpotrf(S.T, clean=0, overwrite_a=1)
        sol, _ = lapack.dpotrs(U, np.column_stack([beta * A.T, -theta.c]))
        x = np.ascontiguousarray(sol[:, :m]) @ v + sol[:, m]
    elif isinstance(st, pc.NonNeg):
        x = prox._active_set_newton(S, lip, r - tau, st.project, inner_tol, x0)
        assert x is not None
    else:
        x = prox._projected_gradient(S, lip, r, tau, st.project, inner_tol, x0)
    return x, A @ x


class _CountingMatrix(np.ndarray):
    """A coupling matrix that counts the matrix products it enters."""

    products = 0

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        return np.asarray(arr)  # results of arithmetic on it count nothing

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ other

    def dot(self, other, out=None):
        _CountingMatrix.products += 1
        return np.asarray(self).dot(other, out=out)


@pytest.mark.parametrize("name", [*DIAGONAL_AS, *DENSE_AS])
def test_diagonal_couplings_match_the_dense_products(name):
    # bit for bit on every route, with no matrix product in a diagonal
    # block's solve and at least one per solve in any other block
    A = {**DIAGONAL_AS, **DENSE_AS}[name]
    beta, inner_tol = 1.3, 1e-11
    for route, blk in _coupling_blocks(A):
        plan = pc.compile_block(blk, beta)
        assert plan.route == route
        counted = pc.BlockSpec(theta=blk.theta, set=blk.set, A=A)
        object.__setattr__(counted, "A", A.view(_CountingMatrix))
        counted_plan = pc.compile_block(counted, beta)
        rng = np.random.default_rng(47)
        x0 = None
        for _ in range(3):
            v = rng.standard_normal(A.shape[0])
            req = SubproblemRequest(theta=blk.theta, set=blk.set, A=A, beta=beta, v=v, plan=plan)
            x, a = plan.solve(req, inner_tol, x0)
            x_dense, a_dense = _dense_solve(route, blk, beta, v, inner_tol, x0)
            assert np.array_equal(x, x_dense) and np.array_equal(a, a_dense)
            _CountingMatrix.products = 0
            x_counted, _ = counted_plan.solve(req, inner_tol, x0)
            assert np.array_equal(x_counted, x)
            assert (_CountingMatrix.products == 0) == (name in DIAGONAL_AS)
            x0 = x


def test_a_strided_coupling_takes_the_route_and_answer_of_its_copy():
    # BlockSpec stores A C-contiguous, so a view such as A_full[:, ::2]
    # is copied once, not by every ndarray.dot of every solve
    rng = np.random.default_rng(5)
    A = np.linalg.qr(rng.standard_normal((12, 10)))[0][:, ::2]
    assert not A.flags.c_contiguous
    beta, inner_tol = 1.3, 1e-11
    routes = []
    for route, blk in _coupling_blocks(A):
        assert blk.A.flags.c_contiguous and np.array_equal(blk.A, A)
        copy = pc.BlockSpec(theta=blk.theta, set=blk.set, A=A.copy())
        plans = [pc.compile_block(b, beta) for b in (blk, copy)]
        assert [plan.route for plan in plans] == [route, route]
        routes.append(route)
        for v in rng.standard_normal((3, A.shape[0])):
            req = SubproblemRequest(theta=blk.theta, set=blk.set, A=blk.A, beta=beta, v=v)
            (x, a), (x_copy, a_copy) = (plan.solve(req, inner_tol, None) for plan in plans)
            assert np.array_equal(x, x_copy) and np.array_equal(a, a_copy)
    assert routes == ["closed", "exact", "pg", "custom"]


def _nonneg_block(rng, n, cond):
    # a quadratic on the orthant with beta = 1 and a square A, so every
    # target r is A'v - c for some v; S = H + A'A has spectrum [1, cond]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = 0.5 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = (Q * np.geomspace(1.0, cond, n)) @ Q.T - A.T @ A
    theta = pc.Quadratic((H + H.T) / 2, rng.standard_normal(n))
    return pc.BlockSpec(theta=theta, set=pc.NonNeg(), A=A)


def _planted_request(blk, rng, free, x_prev=None):
    # a target whose minimizer is positive exactly on `free`, and near
    # x_prev where that is positive
    n = blk.n
    x_star = rng.uniform(0.5, 2, n)
    if x_prev is not None:
        x_star = np.where(x_prev > 0, x_prev + 0.01 * rng.standard_normal(n), x_star)
    x_star[~free] = 0.0
    mu = np.where(free, 0.0, rng.uniform(0.5, 2, n))
    S = _normal_form(blk.theta, blk.A, 1.0, np.zeros(n))[0]
    v = np.linalg.solve(blk.A.T, S @ x_star - mu + blk.theta.c)
    return SubproblemRequest(theta=blk.theta, set=blk.set, A=blk.A, beta=1.0, v=v), x_star


def _record_calls(monkeypatch, name, module=np.linalg):
    # the sizes of the matrices module.<name> is called with
    sizes, fn = [], getattr(module, name)

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return sizes


def _assert_factors_once_per_free_set(monkeypatch, cond):
    # targets in runs of three sharing an optimal free set, each solve
    # warm-started from the last answer: only the first solve of a run
    # meets a new free set (the plan's first solve, an empty cache), so
    # only it factors S_FF with potrf, every step solves with one potrs,
    # and a direct call without the plan's cache returns the plan's bits
    n, inner_tol = 8, 1e-10
    # the plan binds potrf and potrs at compile, so record them first
    factored = _record_calls(monkeypatch, "dpotrf", lapack)
    solved = _record_calls(monkeypatch, "dpotrs", lapack)
    rng = np.random.default_rng(47)
    blk = _nonneg_block(rng, n, cond)
    S = _normal_form(blk.theta, blk.A, 1.0, np.zeros(n))[0]
    lip = np.linalg.eigvalsh(S)[-1]
    plan = pc.compile_block(blk, 1.0)
    free_sets = [np.arange(n) < 5, np.arange(n) >= 3]
    req, x_star = _planted_request(blk, rng, free_sets[0])
    x0 = x_star
    for free in [*free_sets, free_sets[0]]:
        for k in range(3):
            req, x_star = _planted_request(blk, rng, free, x0)
            before, steps = len(factored), len(solved)
            x, _ = plan.solve(req, inner_tol, x0)
            np.testing.assert_allclose(x, x_star, atol=1e-9)
            if k == 0:
                assert len(factored) > before and factored[-1] == free.sum()
            else:
                assert len(factored) == before
            assert len(solved) > steps
            r = _normal_form(blk.theta, blk.A, 1.0, req.v)[2]
            np.testing.assert_array_equal(prox._active_set_newton(S, lip, r, blk.set.project, inner_tol, x0), x)
            x0 = x


def test_a_warm_started_plan_inverts_once_per_free_set(monkeypatch):
    # cond(S) = 4, where a plan once kept inv(S_FF): S_FF is now inverted
    # through its potrf factor, made once per free set
    _assert_factors_once_per_free_set(monkeypatch, 4.0)


def test_a_warm_started_plan_factors_once_per_free_set(monkeypatch):
    # the same on an ill-conditioned S, cond(S) = 40
    _assert_factors_once_per_free_set(monkeypatch, 40.0)


def test_a_free_set_that_potrf_rejects_falls_back_to_projected_gradient(monkeypatch):
    # potrf reporting a non-positive pivot on S_FF, or accepting S_FF
    # with a zero pivot, ends the Newton solve with no point, and the
    # projected-gradient loop certifies one; no potrs applies the factor
    potrf = lapack.dpotrf

    def zero_pivot(a, **kwargs):
        U, _ = potrf(a, **kwargs)
        U[-1, -1] = 0.0
        return U, 0

    for patched in (lambda a, **kwargs: (a, 1), zero_pivot):
        rng = np.random.default_rng(73)
        n, inner_tol = 6, 1e-10
        blk = _nonneg_block(rng, n, 40.0)
        monkeypatch.setattr(lapack, "dpotrf", patched)
        plan = pc.compile_block(blk, 1.0)
        req, x_star = _planted_request(blk, rng, np.arange(n) < 4)
        x, _ = plan.solve(req, inner_tol, None)
        S, lip, r, _ = _normal_form(blk.theta, blk.A, 1.0, req.v)
        solved = _record_calls(monkeypatch, "dpotrs", lapack)
        assert prox._active_set_newton(S, lip, r, blk.set.project, inner_tol, None) is None
        assert not solved
        _assert_nonneg_certificate(S, r, 0.0, x, inner_tol, rng)
        np.testing.assert_allclose(x, x_star, atol=1e-8)
        np.testing.assert_array_equal(x, prox._projected_gradient(S, lip, r, 0.0, blk.set.project, inner_tol, None))


def test_newton_returns_none_at_its_step_cap(monkeypatch):
    # no step can certify a point at inner_tol = 1e-300, so the method
    # stops after 2n + 2 steps, each one potrs solve, with no point
    rng = np.random.default_rng(79)
    n = 5
    blk = _nonneg_block(rng, n, 4.0)
    req, _ = _planted_request(blk, rng, np.arange(n) < 3)
    S, lip, r, _ = _normal_form(blk.theta, blk.A, 1.0, req.v)
    solved = _record_calls(monkeypatch, "dpotrs", lapack)
    assert prox._active_set_newton(S, lip, r, blk.set.project, 1e-300, None) is None
    assert len(solved) == 2 * n + 2


def _spd_matrix(rng, n, low):
    # exactly symmetric, as _cholesky factors the lower triangle and
    # scipy the upper
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (Q * np.geomspace(low, 10.0, n)) @ Q.T
    return (S + S.T) / 2


@pytest.mark.parametrize("n", [1, 4, 24])
def test_cholesky_is_scipys_upper_factor_in_place(n):
    S = _spd_matrix(np.random.default_rng(n), n, 1e-3)
    want = scipy.linalg.cholesky(S)
    work = S.copy()
    U = prox._cholesky(work)
    assert np.shares_memory(U, work)
    assert np.array_equal(np.triu(U), want)


def test_cholesky_of_an_empty_matrix_is_empty():
    U = prox._cholesky(np.zeros((0, 0)))
    assert U is not None and U.shape == (0, 0)


def test_cholesky_rejects_indefinite_and_numerically_singular_matrices():
    S = _spd_matrix(np.random.default_rng(83), 5, 1.0)
    S -= 2.0 * np.eye(5)  # smallest eigenvalue -1
    assert prox._cholesky(S) is None
    # [[2, 2], [2, 2]]: potrf accepts it on roundoff, with a last pivot
    # of about 2e-8, which the pivot test rejects
    S = np.full((2, 2), 2.0)
    assert lapack.dpotrf(S)[1] == 0
    assert prox._cholesky(S) is None


@pytest.mark.parametrize("cond", [4.0, 40.0])
def test_alternating_free_sets_get_no_stale_factor(cond):
    # every target's optimal free set differs from the one before, so a
    # factor kept for the last set must not be applied to the next
    rng = np.random.default_rng(53)
    n, inner_tol = 8, 1e-10
    blk = _nonneg_block(rng, n, cond)
    plan = pc.compile_block(blk, 1.0)
    S = _normal_form(blk.theta, blk.A, 1.0, np.zeros(n))[0]
    free_sets = [np.arange(n) % 2 == 0, np.arange(n) < 6]
    x0 = None
    for k in range(8):
        req, x_star = _planted_request(blk, rng, free_sets[k % 2])
        x, _ = plan.solve(req, inner_tol, x0)
        r = _normal_form(blk.theta, blk.A, 1.0, req.v)[2]
        _assert_nonneg_certificate(S, r, 0.0, x, inner_tol, rng)
        np.testing.assert_allclose(x, x_star, atol=1e-9)
        fresh, _ = pc.compile_block(blk, 1.0).solve(req, inner_tol, x0)
        np.testing.assert_array_equal(x, fresh)
        x0 = x


@pytest.mark.parametrize("cond", [4.0, 40.0])
def test_a_target_with_every_coordinate_active_gives_zero(cond, monkeypatch):
    # r < 0 everywhere: the minimizer is 0, S_FF is 0 x 0, and the empty
    # factor is applied by no potrs
    rng = np.random.default_rng(59)
    n, inner_tol = 6, 1e-10
    blk = _nonneg_block(rng, n, cond)
    factored = _record_calls(monkeypatch, "dpotrf", lapack)
    solved = _record_calls(monkeypatch, "dpotrs", lapack)
    plan = pc.compile_block(blk, 1.0)
    req, _ = _planted_request(blk, rng, np.zeros(n, dtype=bool))
    S, lip, r, _ = _normal_form(blk.theta, blk.A, 1.0, req.v)
    assert np.all(r < 0)
    for x0 in (None, np.ones(n), None):
        x, ax = plan.solve(req, inner_tol, x0)
        np.testing.assert_array_equal(x, np.zeros(n))
        np.testing.assert_array_equal(ax, np.zeros(n))
        np.testing.assert_array_equal(prox._active_set_newton(S, lip, r, blk.set.project, inner_tol, x0), x)
    assert 0 in factored and 0 not in solved


def _newton_with_cholesky(S, lip, r, inner_tol, x0):
    # the active-set Newton method on the orthant with a fresh Cholesky
    # factor of S_FF on every step and the certificate's own gradient
    n = r.shape[0]
    x = np.maximum(np.zeros(n) if x0 is None else x0, 0.0)
    active = S @ x - r > lip * x
    for _ in range(2 * n + 2):
        free = ~active
        y = np.zeros(n)
        if free.any():
            U, info = lapack.dpotrf(S[free][:, free].T, clean=0, overwrite_a=1)
            assert info == 0
            y[free] = lapack.dpotrs(U, r[free])[0]
        active = S @ y - r > lip * y
        x = np.maximum(y, 0.0)
        step = np.maximum(x - (1.0 / lip) * (S @ x - r), 0.0)
        if lip * np.linalg.norm(x - step) <= prox.GAP_FRACTION * inner_tol:
            return x
    return None


@pytest.mark.parametrize("low", [5.0, 0.1], ids=["well-conditioned", "ill-conditioned"])
def test_a_plan_gives_the_bits_of_a_fresh_cholesky_solve(low):
    # for a well- and an ill-conditioned S (cond(S) < 10 and > 100), a
    # plan's warm-started answers are the bits of a fresh Cholesky solve
    # of S_FF on every step
    rng = np.random.default_rng(61)
    n, m, beta, inner_tol = 10, 4, 1.3, 1e-10
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta = pc.Quadratic((Q * np.geomspace(low, 20.0, n)) @ Q.T, rng.standard_normal(n))
    A = rng.standard_normal((m, n))
    plan = pc.compile_block(pc.BlockSpec(theta=theta, set=pc.NonNeg(), A=A), beta)
    x0 = None
    for v in rng.standard_normal((12, m)):
        S, lip, r, _ = _normal_form(theta, A, beta, v)
        w = np.linalg.eigvalsh(S)
        assert (w[-1] < 10 * w[0]) if low > 1 else (w[-1] > 100 * w[0])
        x, _ = plan.solve(SubproblemRequest(theta=theta, set=pc.NonNeg(), A=A, beta=beta, v=v), inner_tol, x0)
        want = _newton_with_cholesky(S, lip, r, inner_tol, x0)
        assert want is not None and 0 < np.count_nonzero(want) < n
        np.testing.assert_array_equal(x, want)
        x0 = x


@pytest.mark.parametrize("cond", [4.0, 40.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_newton_stops_at_the_first_non_finite_step(cond, bad, monkeypatch):
    # a NaN or inf target has no minimizer: one Newton step, not 2n + 2,
    # and the plan returns its all-NaN point
    rng = np.random.default_rng(67)
    n, inner_tol = 6, 1e-10
    blk = _nonneg_block(rng, n, cond)
    steps = _record_calls(monkeypatch, "dpotrs", lapack)
    plan = pc.compile_block(blk, 1.0)
    v = rng.standard_normal(n)
    v[2] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        x, _ = plan.solve(SubproblemRequest(theta=blk.theta, set=blk.set, A=blk.A, beta=1.0, v=v), inner_tol, None)
    assert np.isnan(x).all()
    assert len(steps) == 1
