"""The per-iteration kernels call ``ndarray.dot`` on contiguous operands.

``dot`` and ``@`` reach the same BLAS routine, so the kernels must give
the bits of their ``@`` forms; ``dot`` copies a strided operand on every
call, so the operands the kernels hold must be contiguous; and ``@``
must stay off the hot path, so a lint walks the kernels' syntax trees.
"""

import ast
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

import pcadmm as pc
from pcadmm import corrector, model, prox
from pcadmm.matrices import build_m
from pcadmm.prox import SubproblemRequest

SIZES = [1, 10, 48, 200]


def _spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T / n + np.eye(n)


@pytest.mark.parametrize("n", SIZES)
def test_quadratic_value_is_its_matmul_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    q = pc.Quadratic(_spd(rng, n), rng.standard_normal(n))
    linear = pc.Quadratic(np.zeros((n, n)), q.c)
    for x in rng.standard_normal((5, n)):
        assert q.value(x) == float(0.5 * x @ q.H @ x + q.c @ x)
        assert linear.value(x) == float(q.c @ x)


@pytest.mark.parametrize("n", SIZES)
def test_norm_is_its_matmul_form_bit_for_bit(n):
    for v in np.random.default_rng(n).standard_normal((5, n)):
        assert model._norm(v) == np.sqrt(v @ v)


def _exact_block(rng, n, m):
    theta = pc.Quadratic(_spd(rng, n), rng.standard_normal(n))
    return pc.BlockSpec(theta=theta, set=pc.Free(), A=rng.standard_normal((m, n)))


@pytest.mark.parametrize("n", SIZES)
def test_exact_plan_is_k_at_v_plus_x_c_bit_for_bit(n):
    rng = np.random.default_rng(n)
    m, beta = max(1, n // 2), 1.3
    blk = _exact_block(rng, n, m)
    plan = pc.compile_block(blk, beta)
    assert plan.route == "exact"
    # the compile's own normal form and Cholesky calls; potrs returns a
    # Fortran-ordered solution, whose K is copied C-ordered as the plan
    # keeps it, since a product with a Fortran-ordered K sums in another
    # order
    S = blk.A.T @ blk.A
    S *= beta
    S += blk.theta.H
    U, _ = lapack.dpotrf(S.T, clean=0, overwrite_a=1)
    sol, _ = lapack.dpotrs(U, np.column_stack([beta * blk.A.T, -blk.theta.c]))
    assert sol.flags.f_contiguous
    K, x_c = np.ascontiguousarray(sol[:, :m]), sol[:, m]
    for v in rng.standard_normal((5, m)):
        x, a = plan.solve(SubproblemRequest(blk.theta, blk.set, blk.A, beta, v), 1e-10, None)
        assert np.array_equal(x, K @ v + x_c)
        assert np.array_equal(a, blk.A @ x)


@pytest.mark.parametrize("variant", ["pd", "dp"])
@pytest.mark.parametrize("m", SIZES)
def test_correction_is_the_template_at_u_bit_for_bit(variant, m):
    rng = np.random.default_rng(m)
    p, nu, beta = 3, 0.9, 1.7
    T = build_m(variant, p, 1, nu)
    T[p, :p] *= beta
    T[:p, p] /= beta
    state = pc.IterateState(rng.standard_normal((p, m)), rng.standard_normal(m))
    pred = pc.PredictorState([np.zeros(1)] * p, rng.standard_normal((p, m)), rng.standard_normal(m))
    U = np.vstack([state.a, state.lam])
    expected = U - T @ (U - np.vstack([pred.a_tilde, pred.lambda_tilde]))
    out = corrector._correct(variant, state, pred, nu, beta)
    assert np.array_equal(out.a, expected[:p]) and np.array_equal(out.lam, expected[p])


def test_an_exact_solve_copies_no_matrix():
    # a strided K would be copied by dot on every call: n*m*8 bytes
    n, m, beta = 400, 150, 1.0
    rng = np.random.default_rng(0)
    blk = _exact_block(rng, n, m)
    plan = pc.compile_block(blk, beta)
    req = SubproblemRequest(blk.theta, blk.set, blk.A, beta, rng.standard_normal(m))
    plan.solve(req, 1e-10, None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan.solve(req, 1e-10, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8 / 4


def test_an_exact_compile_factors_in_place():
    # potrf factors S and potrs solves rhs = [beta A' | -c] in their own
    # storage, so the compile holds S and rhs, then rhs and K: an f2py
    # copy of S would add n*n*8 bytes (1.28 MB here), and the cholesky
    # test plus LU solve that this replaced peaked at two copies of S
    n, m = 400, 150
    rng = np.random.default_rng(0)
    blk = _exact_block(rng, n, m)
    pc.compile_block(blk, 1.0)  # imports scipy.linalg outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = pc.compile_block(blk, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert plan.route == "exact"
    assert peak <= 8 * (n * n + n * (m + 1)) + 64 * 1024 < 2 * 8 * n * n


def _parse(fn):
    # the function's tree with line numbers as in its file
    source, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(source)))
    ast.increment_lineno(tree, first - 1)
    return tree


def _compile_block_closures():
    outer = _parse(prox.compile_block).body[0]
    return [node for node in ast.walk(outer) if isinstance(node, ast.FunctionDef) and node is not outer]


HOT_FUNCTIONS = [
    prox._prox_step,
    prox._active_set_newton,
    model.Quadratic.value,
    model._norm,
    model.feasibility_residual,
    corrector._correct,
]
HOT_TREES = {f"{fn.__module__}.{fn.__qualname__}": _parse(fn) for fn in HOT_FUNCTIONS}
HOT_TREES.update((f"pcadmm.prox.compile_block.{node.name}", node) for node in _compile_block_closures())


def test_the_lint_sees_every_solve_closure():
    closures = {"target", "value", "solve_custom", "solve_closed", "solve_exact", "value_exact", "solve_pg"}
    assert {f"pcadmm.prox.compile_block.{name}" for name in closures} <= set(HOT_TREES)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_an_all_exact_run_makes_no_product_with_h(monkeypatch, variant):
    # exact blocks report theta from their normal equations, so the
    # logged objective never calls Quadratic.value and its n^2 product
    prob = pc.gen_eq_qp(3, [10, 20, 5], 4, seed=9)[0]
    assert {plan.route for plan in pc.compile_blocks(prob, 1.0)} == {"exact"}
    calls = []
    value = model.Quadratic.value
    monkeypatch.setattr(model.Quadratic, "value", lambda self, x: calls.append(1) or value(self, x))
    result = pc.run(prob, pc.SolverConfig(variant=variant, max_iters=6))
    assert len(result.log) == 6 and not calls
    pc.objective_value(prob, result.solution.x_tilde)
    assert len(calls) == prob.p  # the counter sees a call


def test_compile_block_binds_dot_not_matmul():
    # image and adjoint are bound once per compile and called by every solve
    nodes = ast.walk(_parse(prox.compile_block))
    assert not [node.lineno for node in nodes if isinstance(node, ast.Attribute) and node.attr == "__matmul__"]


@pytest.mark.parametrize("name", sorted(HOT_TREES))
def test_no_matmul_on_the_hot_path(name):
    # `@` dispatches through the matmul ufunc, which at n_i = 10 costs
    # more than the product; the hot path calls ndarray.dot instead
    nodes = ast.walk(HOT_TREES[name])
    lines = [node.lineno for node in nodes if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert not lines, f"{name} uses @ at line {lines[0]} of its module; call ndarray.dot on a contiguous operand"
