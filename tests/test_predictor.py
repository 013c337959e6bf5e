import numpy as np
import pytest

import pcadmm as pc


def one_block_toy():
    # min x^2/2 s.t. x = 1
    return pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.EQ,
    )


def zero_state(problem):
    return pc.IterateState(tuple(np.zeros(problem.m) for _ in problem.blocks), np.zeros(problem.m))


def test_pd_hand_sweep():
    pred = pc.predict_pd(one_block_toy(), zero_state(one_block_toy()), 1.0, 1e-10)
    np.testing.assert_allclose(pred.x_tilde[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(pred.lambda_tilde, [1.0], atol=1e-12)


def test_dp_hand_sweep():
    # multiplier moves first: lam~ = 0 - (0 - 1) = 1, then (1+1)x = 1
    pred = pc.predict_dp(one_block_toy(), zero_state(one_block_toy()), 1.0, 1e-10)
    np.testing.assert_allclose(pred.lambda_tilde, [1.0], atol=1e-12)
    np.testing.assert_allclose(pred.x_tilde[0], [0.5], atol=1e-12)


def test_saddle_point_is_fixed_point():
    prob, ref = pc.gen_eq_qp(2, [6, 5], 3, seed=2)
    state = pc.IterateState(ref.a, ref.lam)
    for predict in (pc.predict_pd, pc.predict_dp):
        pred = predict(prob, state, 1.0, 1e-10)
        for ai, ati in zip(ref.a, pred.a_tilde):
            np.testing.assert_allclose(ati, ai, atol=1e-9)
        np.testing.assert_allclose(pred.lambda_tilde, ref.lam, atol=1e-9)


def test_ge_slack_keeps_zero_multiplier():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[-1.0],
        sense=pc.GE,
    )
    # aggregates already strictly feasible, multiplier zero
    state = pc.IterateState((np.zeros(1),), np.zeros(1))
    pred = pc.predict_dp(prob, state, 1.0, 1e-10)
    np.testing.assert_array_equal(pred.lambda_tilde, [0.0])


def test_order_sensitivity():
    # away from a saddle the two sweeps must not coincide
    prob, _ = pc.gen_eq_qp(2, [5, 5], 3, seed=9)
    state = zero_state(prob)
    pd = pc.predict_pd(prob, state, 1.0, 1e-10)
    dp = pc.predict_dp(prob, state, 1.0, 1e-10)
    diff = max(
        float(np.max(np.abs(a - b))) for a, b in zip(pd.a_tilde, dp.a_tilde)
    )
    assert diff > 1e-8


def test_vi_certificate_quadratic_free():
    # On quadratic/free instances the prediction inequality collapses
    # to a linear system; its residual must be at inner-solve accuracy.
    rng = np.random.default_rng(21)
    inner_tol = 1e-10
    for p in (1, 2, 3):
        prob, _ = pc.gen_eq_qp(p, [4] * p, 3, seed=30 + p)
        beta = 1.4
        P = pc.build_p(prob, beta)
        for variant, predict in (("pd", pc.predict_pd), ("dp", pc.predict_dp)):
            Qw = P.T @ pc.build_q(variant, p, prob.m) @ P
            x = [rng.standard_normal(4) for _ in range(p)]
            lam = rng.standard_normal(prob.m)
            state = pc.IterateState(
                tuple(blk.A @ xi for blk, xi in zip(prob.blocks, x)), lam
            )
            pred = predict(prob, state, beta, inner_tol)
            wk = pc.stack_blocks(x, lam)
            wt = pc.stack_blocks(pred.x_tilde, pred.lambda_tilde)
            grad_theta = np.concatenate(
                [blk.theta.H @ xt + blk.theta.c for blk, xt in zip(prob.blocks, pred.x_tilde)]
                + [np.zeros(prob.m)]
            )
            resid = grad_theta + pc.vi_operator(prob, wt) + Qw @ (wt - wk)
            assert np.linalg.norm(resid) <= 10 * inner_tol * (1 + np.linalg.norm(wk))


def test_set_feasibility_exact():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic(np.eye(2), -np.ones(2)), set=pc.Free(), A=np.ones((2, 2))),
            pc.BlockSpec(theta=pc.WeightedL1(0.3), set=pc.NonNeg(), A=np.eye(2)),
            pc.BlockSpec(theta=pc.Zero(), set=pc.Box(lo=np.zeros(2), hi=0.1 * np.ones(2)), A=np.eye(2)),
        ),
        b=np.array([1.0, -1.0]),
        sense=pc.EQ,
    )
    state = pc.IterateState(tuple(np.zeros(2) for _ in range(3)), np.array([0.7, -0.2]))
    for predict in (pc.predict_pd, pc.predict_dp):
        pred = predict(prob, state, 2.0, 1e-10)
        assert np.all(pred.x_tilde[1] >= 0)
        assert np.all(pred.x_tilde[2] >= 0) and np.all(pred.x_tilde[2] <= 0.1)


def test_error_annotated_with_block_index():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),
            pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), set=pc.Free(), A=[[1.0, 1.0]]),
        ),
        b=[0.0],
    )
    state = zero_state(prob)
    with pytest.raises(pc.SingularSystemError, match="block 1"):
        pc.predict_pd(prob, state, 1.0, 1e-10)


def test_state_dimension_check():
    prob = one_block_toy()
    bad = pc.IterateState((np.zeros(1), np.zeros(1)), np.zeros(1))
    with pytest.raises(ValueError):
        pc.predict_pd(prob, bad, 1.0, 1e-10)


@pytest.mark.parametrize("predict", [pc.predict_pd, pc.predict_dp])
def test_warm_start_of_the_wrong_length_is_rejected(predict):
    prob = one_block_toy()
    for warm in ((), (np.zeros(1), np.zeros(1))):
        with pytest.raises(ValueError, match=r"warm_start has \d blocks, expected p=1"):
            predict(prob, zero_state(prob), 1.0, 1e-10, warm_start=warm)


def test_sweeps_and_corrections_build_states_in_converted_form():
    # predict_* and correct_* skip the states' __post_init__; what they
    # build must already be what it would give, on every route
    custom = pc.Custom(value=lambda x: 0.0, solve=lambda req, tol, x0: [0, 1])
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic(np.eye(2), -np.ones(2)), set=pc.Free(), A=np.ones((2, 2))),
            pc.BlockSpec(theta=pc.WeightedL1(0.3), set=pc.NonNeg(), A=np.eye(2)),
            pc.BlockSpec(theta=pc.Zero(), set=pc.Box(lo=np.zeros(2), hi=0.1 * np.ones(2)), A=np.eye(2)),
            pc.BlockSpec(theta=custom, set=pc.Free(), A=np.eye(2)),
        ),
        b=np.array([1.0, -1.0]),
    )
    state = pc.IterateState(np.zeros((4, 2)), np.array([0.7, -0.2]))
    for predict, correct in ((pc.predict_pd, pc.correct_pd), (pc.predict_dp, pc.correct_dp)):
        pred = predict(prob, state, 2.0, 1e-10)
        for built in (pred, correct(state, pred, 0.99, 2.0)):
            cls = type(built)
            values = [getattr(built, f) for f in cls.__dataclass_fields__]
            rebuilt = cls(*values)
            for got, want in zip(values, (getattr(rebuilt, f) for f in cls.__dataclass_fields__)):
                assert type(got) is type(want)
                arrays = zip(got, want) if isinstance(got, tuple) else [(got, want)]
                for g, w in arrays:
                    assert g.dtype == w.dtype == np.float64 and g.shape == w.shape


@pytest.mark.parametrize("predict", [pc.predict_pd, pc.predict_dp])
def test_a_sweep_without_plans_compiles_once_and_matches_one_with_them(predict, monkeypatch):
    import pcadmm.predictor

    prob, ref = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=5)
    state = pc.IterateState(np.asarray(ref.a) + 0.1, ref.lam - 0.2)
    planned = predict(prob, state, 1.3, 1e-10, plans=pc.compile_blocks(prob, 1.3))
    calls = []
    compile_blocks = pcadmm.predictor.compile_blocks
    monkeypatch.setattr(pcadmm.predictor, "compile_blocks", lambda *a: calls.append(1) or compile_blocks(*a))
    pred = predict(prob, state, 1.3, 1e-10)
    assert len(calls) == 1
    for got, want in zip(pred.x_tilde, planned.x_tilde):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(pred.theta_tilde, planned.theta_tilde)
    assert pred.theta_tilde.shape == (prob.p,)


def test_objective_value_sums_given_values_in_block_order():
    prob = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=5)[0]
    values = [0.1, 1e17, -1e17]
    assert pc.objective_value(prob, None, values) == (0.1 + 1e17) - 1e17
    with pytest.raises(ValueError, match="expected 3 block values, got 2"):
        pc.objective_value(prob, None, values[:2])
    assert pc.PredictorState((np.zeros(1),), np.zeros((1, 1)), np.zeros(1)).theta_tilde is None


def _spy_problem(seed, p=4, m=3):
    # Custom blocks that record the target v of every request they get
    rng = np.random.default_rng(seed)
    seen = [[] for _ in range(p)]

    def atom(i, A):
        def solve(req, inner_tol, x0):
            seen[i].append(req.v.copy())
            return np.tanh(A.T.dot(req.v))

        return pc.Custom(value=lambda x: float(x.dot(x)), solve=solve)

    blocks = []
    for i in range(p):
        A = rng.standard_normal((m, 2 + i))
        blocks.append(pc.BlockSpec(theta=atom(i, A), set=pc.Free(), A=A))
    return pc.SeparableProblem(blocks=tuple(blocks), b=rng.standard_normal(m)), seen


@pytest.mark.parametrize("predict", [pc.predict_pd, pc.predict_dp])
@pytest.mark.parametrize("beta", [1.0, 1.7])
def test_the_carried_target_is_the_gauss_seidel_target(predict, beta):
    # the sweep carries v_{i+1} = a_{i+1} + (v_i - a~_i); it must be
    # v_i = a_i - sum_{j<i}(a~_j - a_j) + lam/beta up to roundoff, with
    # the multiplier the blocks see: the incoming one for pd, the fresh
    # one for dp
    prob, seen = _spy_problem(3)
    rng = np.random.default_rng(4)
    plans = pc.compile_blocks(prob, beta)
    for _ in range(5):
        state = pc.IterateState(rng.standard_normal((prob.p, prob.m)), rng.standard_normal(prob.m))
        for record in seen:
            record.clear()
        pred = predict(prob, state, beta, 1e-10, plans=plans)
        lam = state.lam if predict is pc.predict_pd else pred.lambda_tilde
        for i in range(prob.p):
            want = state.a[i] - (pred.a_tilde[:i] - state.a[:i]).sum(axis=0) + lam / beta
            (got,) = seen[i]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def test_plans_of_another_beta_are_refused():
    # unchecked, such plans give an a~ 0.35 off with no error
    prob, ref = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=5)
    state = pc.IterateState(np.asarray(ref.a) + 0.1, ref.lam - 0.2)
    with pytest.raises(ValueError, match=r"block 0: its plan was compiled for beta=1.0, not 2.0"):
        pc.predict_pd(prob, state, 2.0, 1e-10, plans=pc.compile_blocks(prob, 1.0))
    pred = pc.predict_pd(prob, state, 2, 1e-10, plans=pc.compile_blocks(prob, 2.0))  # an int beta is that float
    assert pred.a_tilde.shape == (3, 3)


def test_plans_of_another_problem_of_the_same_shape_are_refused():
    # unchecked, such a plan gives an a~ 0.47 off with no error
    prob = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=5)[0]
    other = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=6)[0]
    plans = pc.compile_blocks(prob, 1.0)
    plans[2] = pc.compile_blocks(other, 1.0)[2]
    for predict in (pc.predict_pd, pc.predict_dp):
        with pytest.raises(ValueError, match=r"block 2: its plan was compiled for another block"):
            predict(prob, zero_state(prob), 1.0, 1e-10, plans=plans)


@pytest.mark.parametrize("count", [2, 4])
def test_a_plan_list_of_the_wrong_length_is_refused(count):
    # unchecked, a short list raises a bare IndexError
    prob = pc.gen_eq_qp(3, [6, 5, 4], 3, seed=5)[0]
    plans = (pc.compile_blocks(prob, 1.0) * 2)[:count]
    with pytest.raises(ValueError, match=rf"{count} plans given, expected one per block, p=3"):
        pc.predict_dp(prob, zero_state(prob), 1.0, 1e-10, plans=plans)


def test_a_plan_records_its_block_and_beta():
    prob = pc.gen_eq_qp(2, [6, 5], 3, seed=5)[0]
    for blk, plan in zip(prob.blocks, pc.compile_blocks(prob, 3)):
        assert plan.block is blk and plan.beta == 3.0 and type(plan.beta) is float
