import numpy as np
import pytest

import pcadmm as pc


def test_kkt_oracle_hand_instance():
    # min x^2/2 s.t. x = 1  ->  x* = 1, lam* = 1
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
    )
    ref = pc.kkt_oracle(prob)
    np.testing.assert_allclose(ref.x[0], [1.0])
    np.testing.assert_allclose(ref.lam, [1.0])
    assert ref.objective == pytest.approx(0.5)


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
    "oracle, sense, theta, set_spec",
    [
        (pc.kkt_oracle, pc.EQ, pc.Quadratic(np.eye(2), [1.0, 1.0]), pc.NonNeg()),
        (pc.kkt_oracle, pc.EQ, pc.WeightedL1(0.5), pc.Free()),
        (pc.active_set_oracle, pc.GE, pc.WeightedL1(0.5), pc.Free()),
        (pc.active_set_oracle, pc.GE, pc.Quadratic(np.eye(2), [1.0, 1.0]), pc.Box([0.0, 0.0], [1.0, 1.0])),
    ],
    ids=["kkt-nonneg", "kkt-l1", "active-set-l1", "active-set-box"],
)
def test_oracles_reject_blocks_outside_their_scope(oracle, sense, theta, set_spec):
    # kkt_oracle used to ignore a NonNeg set and return a point outside
    # it, and an l1 atom used to raise AttributeError
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),
            pc.BlockSpec(theta=theta, set=set_spec, A=[[1.0, 1.0]]),
        ),
        b=[-2.0],
        sense=sense,
    )
    with pytest.raises(ValueError, match=r"^block 1 is \w+ on \w+, outside the oracle's Quadratic on"):
        oracle(prob)


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
