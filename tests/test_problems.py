import numpy as np
import pytest

import pcadmm as pc
from pcadmm import problems


def test_active_set_oracle_eq_hand_instance():
    # min x^2/2 s.t. x = 1  ->  x* = 1, lam* = 1
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
    )
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [1.0])
    np.testing.assert_allclose(ref.lam, [1.0])
    assert ref.objective == pytest.approx(0.5)


def test_active_set_oracle_eq_with_an_active_bound():
    # min x^2/2 + y^2/2 + 2y s.t. x + y = 1, y >= 0.  Without the bound
    # y* = -1/2; with it y* = 0, x* = 1, lam* = 1 (the bound's own
    # multiplier is 2 - lam* = 1 >= 0), objective 1/2
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [2.0]), set=pc.NonNeg(), A=[[1.0]]),
        ),
        b=[1.0],
    )
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [1.0])
    np.testing.assert_allclose(ref.x[1], [0.0], atol=1e-12)
    np.testing.assert_allclose(ref.lam, [1.0])
    assert ref.objective == pytest.approx(0.5)
    for variant in ("pd", "dp"):
        result = pc.run(prob, pc.SolverConfig(variant=variant))
        assert result.reason.kind == pc.CONVERGED
        assert result.log.objective[-1] == pytest.approx(ref.objective, rel=1e-6)


def test_gen_eq_qp_kkt_residual():
    for seed in (0, 1, 2):
        prob, ref = pc.gen_eq_qp(2, [5, 4], 3, seed)
        # substitute back into the stationarity + feasibility system
        for blk, xi in zip(prob.blocks, ref.x):
            stat = blk.theta.H @ xi + blk.theta.c - blk.A.T @ ref.lam
            assert np.linalg.norm(stat) <= 1e-10 * (1 + np.linalg.norm(xi))
        r = sum(ref.a) - prob.b
        assert np.linalg.norm(r) <= 1e-10
        primal, compl = pc.feasibility_residual(prob, ref.a, ref.lam)
        assert primal <= 1e-10 and compl <= 1e-10


def test_gen_eq_qp_reproducible():
    p1, r1 = pc.gen_eq_qp(2, [4, 4], 2, seed=33)
    p2, r2 = pc.gen_eq_qp(2, [4, 4], 2, seed=33)
    for b1, b2 in zip(p1.blocks, p2.blocks):
        np.testing.assert_array_equal(b1.A, b2.A)
        np.testing.assert_array_equal(b1.theta.H, b2.theta.H)
    np.testing.assert_array_equal(r1.lam, r2.lam)


def test_gen_eq_qp_dimension_guards():
    with pytest.raises(ValueError):
        pc.gen_eq_qp(2, [1, 1], 5, seed=0)
    with pytest.raises(ValueError):
        pc.gen_eq_qp(2, [3], 2, seed=0)


def test_active_set_oracle_active_constraint():
    # min x^2/2 s.t. x >= 1  ->  x* = 1, lam* = 1
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.GE,
    )
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [1.0])
    np.testing.assert_allclose(ref.lam, [1.0])


def test_active_set_oracle_inactive_constraint():
    # min (x-2)^2/2 s.t. x >= 1  ->  x* = 2, lam* = 0
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [-2.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.GE,
    )
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [2.0])
    np.testing.assert_allclose(ref.lam, [0.0])


@pytest.mark.parametrize(
    "sense, theta, set_spec",
    [
        (pc.EQ, pc.WeightedL1(0.5), pc.Free()),
        (pc.GE, pc.WeightedL1(0.5), pc.Free()),
        (pc.GE, pc.Quadratic(np.eye(2), [1.0, 1.0]), pc.Box([0.0, 0.0], [1.0, 1.0])),
    ],
    ids=["kkt-l1", "active-set-l1", "active-set-box"],
)
def test_oracles_reject_blocks_outside_their_scope(sense, theta, set_spec):
    # an l1 atom used to raise AttributeError
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),
            pc.BlockSpec(theta=theta, set=set_spec, A=[[1.0, 1.0]]),
        ),
        b=[-2.0],
        sense=sense,
    )
    with pytest.raises(ValueError, match=r"^block 1 is \w+ on \w+, outside the oracle's Quadratic on Free/NonNeg$"):
        pc.active_set_oracle(prob)


def _nonneg_qp(sense, n=1):
    # n coupling rows plus n sign rows; the oracle enumerates the sign
    # rows, and the coupling rows too on ``ge``
    block = pc.BlockSpec(theta=pc.Quadratic(np.eye(n), np.zeros(n)), set=pc.NonNeg(), A=np.eye(n))
    return pc.SeparableProblem(blocks=(block,), b=np.ones(n), sense=sense)


def _inconsistent_eq_qp():
    # x = 1 and x = 2: the one KKT system is singular
    block = pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0], [1.0]])
    return pc.SeparableProblem(blocks=(block,), b=[1.0, 2.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pc.active_set_oracle(_nonneg_qp(pc.GE, n=7)), "too many rows to enumerate (14 > 12)"),
        (lambda: pc.active_set_oracle(_nonneg_qp(pc.EQ, n=13)), "too many rows to enumerate (13 > 12)"),
        (lambda: pc.active_set_oracle(_inconsistent_eq_qp()), "no valid active set: instance is infeasible or degenerate"),
        (lambda: pc.gen_ineq_qp(2, [3], 2, seed=0), "block_dims must have length p"),
        (lambda: pc.gen_lasso(4, 10, 0.0, seed=0), "tau must be positive"),
        (lambda: pc.gen_toy_svm([(np.array([1.0]), 1)]), "need at least 2 points"),
        (lambda: pc.gen_eq_qp(2, [0, 3], 2, 0), "every block dimension must be at least 1"),
        (lambda: pc.gen_ineq_qp(2, [0, 3], 2, 0), "every block dimension must be at least 1"),
        (lambda: pc.gen_lasso(0, 5, 0.5, 0), "the data matrix D (samples x n) must have a nonzero entry"),
        (lambda: pc.gen_lasso(3, 0, 0.5, 0), "the data matrix D (samples x n) must have a nonzero entry"),
        (lambda: pc.gen_toy_svm([([1.0], 1), ([1.0, 2.0], -1)]), "feature vectors must be nonempty, one-dimensional and of one length"),
        (lambda: pc.gen_toy_svm(3.0), "points must be an integer or a sequence of (feature_vector, label) pairs"),
        (lambda: pc.gen_toy_svm([([1.0, 2.0], 1.7), ([0.5, -1.0], -1.2)]), "label 1.7 is not +1 or -1"),
        (lambda: pc.gen_toy_svm([([1.0], "1"), ([-1.0], -1)]), "label '1' is not +1 or -1"),
        (lambda: pc.gen_toy_svm([([1.0], 1), ([-1.0], [-1])]), "label [-1] is not +1 or -1"),
        (lambda: pc.gen_eq_qp(2, [3, 3], -1, 0), "m must be nonnegative, got -1"),
        (lambda: pc.gen_ineq_qp(2, [3, 3], -1, 0), "m must be nonnegative, got -1"),
        (lambda: pc.gen_lasso(-1, 5, 0.5, 0), "n and samples must be nonnegative, got -1 and 5"),
        (lambda: pc.gen_lasso(3, -2, 0.5, 0), "n and samples must be nonnegative, got 3 and -2"),
        (
            lambda: pc.gen_lasso(2, 3, 0.5, 0, data=(np.ones((3, 2)), np.ones(4))),
            "data must be a matrix D and a vector d of one entry per row of D, got shapes (3, 2) and (4,)",
        ),
    ],
    ids=[
        "active-set-rows",
        "active-set-eq-rows",
        "active-set-singular-eq",
        "ineq-block-dims",
        "lasso-tau",
        "svm-one-point",
        "eq-zero-block",
        "ineq-zero-block",
        "lasso-no-features",
        "lasso-no-samples",
        "svm-mixed-dims",
        "svm-float-count",
        "svm-truncated-labels",
        "svm-string-label",
        "svm-list-label",
        "eq-negative-m",
        "ineq-negative-m",
        "lasso-negative-n",
        "lasso-negative-samples",
        "lasso-data-rows",
    ],
)
def test_oracles_and_generators_reject_input_outside_their_scope(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_toy_svm_float_and_numpy_labels_give_the_int_problem():
    def data_bytes(prob):
        return [prob.b.tobytes()] + [blk.A.tobytes() for blk in prob.blocks]

    points = [([1.0, 2.0], 1), ([0.5, 0.0], -1), ([-0.3, 0.7], -1)]
    expected = data_bytes(pc.gen_toy_svm(points))
    for one, minus_one in [(1.0, -1.0), (np.int64(1), np.int64(-1)), (np.float64(1.0), -1)]:
        relabeled = [(x, one if y == 1 else minus_one) for x, y in points]
        assert data_bytes(pc.gen_toy_svm(relabeled)) == expected


def test_lasso_oracle_that_exhausts_its_steps_raises(monkeypatch):
    monkeypatch.setattr(problems, "LASSO_ORACLE_ITERS", 2)
    with pytest.raises(RuntimeError, match=r"^lasso oracle did not reach gradient-map norm 1e-13 in 2 steps$"):
        pc.gen_lasso(8, 16, 0.5, seed=3)


def test_gen_ineq_qp_kkt_conditions():
    for seed in range(5):
        prob, ref = pc.gen_ineq_qp(2, [4, 4], 2, seed)
        r = sum(ref.a) - prob.b
        assert np.min(r) >= -1e-10
        assert np.all(ref.lam >= 0.0)
        assert abs(ref.lam @ r) <= 1e-10
        for blk, xi in zip(prob.blocks, ref.x):
            stat = blk.theta.H @ xi + blk.theta.c - blk.A.T @ ref.lam
            assert np.linalg.norm(stat) <= 1e-9


def test_gen_ineq_qp_m_cap():
    with pytest.raises(ValueError):
        pc.gen_ineq_qp(2, [4, 4], 5, seed=0)


def test_lasso_zero_solution_for_large_tau():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((10, 4))
    d = rng.standard_normal(10)
    tau = float(np.max(np.abs(D.T @ d))) + 1.0  # above the critical weight
    prob, ref = pc.gen_lasso(4, 10, tau, seed=0, data=(D, d))
    np.testing.assert_allclose(ref.x[0], np.zeros(4), atol=1e-12)
    assert ref.objective == pytest.approx(
        pc.objective_value(prob, (np.zeros(4), np.zeros(4)))
    )


def test_lasso_identity_design_soft_threshold():
    # D = I, d = 3, tau = 1: minimizer of 0.5(x-3)^2 + |x| is 2
    prob, ref = pc.gen_lasso(1, 1, 1.0, seed=0, data=(np.eye(1), np.array([3.0])))
    np.testing.assert_allclose(ref.x[0], [2.0], atol=1e-12)
    np.testing.assert_allclose(ref.x[1], [2.0], atol=1e-12)


def test_lasso_structure_and_oracle_quality():
    prob, ref = pc.gen_lasso(8, 16, 0.5, seed=3)
    assert prob.sense == pc.EQ and prob.m == 8
    np.testing.assert_array_equal(prob.blocks[0].A, np.eye(8))
    np.testing.assert_array_equal(prob.blocks[1].A, -np.eye(8))
    # reference satisfies the coupling constraint by construction
    np.testing.assert_allclose(sum(ref.a), np.zeros(8), atol=1e-14)
    # the oracle is the minimizer: any splitting run can only do as well
    result = pc.run(prob, pc.SolverConfig(tol=1e-8))
    assert ref.objective <= result.log.objective[-1] + 1e-8


def test_toy_svm_two_points():
    prob = pc.gen_toy_svm([(np.array([1.0]), 1), (np.array([-1.0]), -1)])
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [1.0], atol=1e-10)  # unit margin weight
    np.testing.assert_allclose(ref.x[1], np.zeros(2), atol=1e-10)  # no slack needed
    r = sum(ref.a) - prob.b
    assert np.min(np.abs(r)) <= 1e-10  # margin constraints active


def test_toy_svm_separable_data_zero_slack():
    # well-separated clusters: slacks vanish at the optimum
    pts = [
        (np.array([3.0, 3.0]), 1),
        (np.array([4.0, 2.5]), 1),
        (np.array([-3.0, -3.0]), -1),
        (np.array([-2.5, -4.0]), -1),
    ]
    prob = pc.gen_toy_svm(pts)
    ref = pc.active_set_oracle(prob)
    np.testing.assert_allclose(ref.x[1], np.zeros(4), atol=1e-9)


def test_toy_svm_single_class_rejected():
    with pytest.raises(ValueError):
        pc.gen_toy_svm([(np.array([1.0]), 1), (np.array([2.0]), 1)])
    with pytest.raises(ValueError):
        pc.gen_toy_svm(1)


def test_toy_svm_generated_solvable():
    prob = pc.gen_toy_svm(4, seed=2)
    assert prob.sense == pc.GE and prob.m == 4
    ref = pc.active_set_oracle(prob)
    primal, compl = pc.feasibility_residual(prob, ref.a, ref.lam)
    assert primal <= 1e-8 and compl <= 1e-8
