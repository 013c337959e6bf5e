import itertools

import numpy as np
import pytest

import pcadmm as pc
from pcadmm.matrices import xi_from_aggregates


def example_pair():
    state = pc.IterateState((np.array([2.0]), np.array([3.0])), np.array([1.0]))
    pred = pc.PredictorState(
        (np.array([0.0]), np.array([0.0])),
        (np.array([1.0]), np.array([2.5])),
        np.array([0.8]),
    )
    return state, pred


def test_pd_hand_values():
    state, pred = example_pair()
    out = pc.correct_pd(state, pred, nu=0.5, beta=1.0)
    np.testing.assert_allclose(out.a[0], [1.75])
    np.testing.assert_allclose(out.a[1], [2.75])
    np.testing.assert_allclose(out.lam, [1.3])


def test_dp_hand_values():
    state, pred = example_pair()
    out = pc.correct_dp(state, pred, nu=0.5, beta=1.0)
    np.testing.assert_allclose(out.a[0], [1.75])
    np.testing.assert_allclose(out.a[1], [2.75])
    np.testing.assert_allclose(out.lam, [2.3])


def test_dp_one_block_beta_row():
    state = pc.IterateState((np.array([1.0]),), np.array([0.5]))
    pred = pc.PredictorState((np.array([0.0]),), (np.array([0.0]),), np.array([0.5]))
    out = pc.correct_dp(state, pred, nu=0.25, beta=2.0)
    np.testing.assert_allclose(out.lam, [0.5 + 2.0])


def test_identity_when_predictor_equals_state():
    state = pc.IterateState((np.array([1.0, 2.0]),), np.array([3.0, 4.0]))
    pred = pc.PredictorState((np.zeros(2),), (state.a[0].copy(),), state.lam.copy())
    for correct in (pc.correct_pd, pc.correct_dp):
        out = correct(state, pred, nu=0.99, beta=1.7)
        np.testing.assert_array_equal(out.a[0], state.a[0])
        np.testing.assert_array_equal(out.lam, state.lam)


def test_last_block_row_at_default_nu():
    state = pc.IterateState((np.array([2.0]), np.array([5.0])), np.zeros(1))
    pred = pc.PredictorState(
        (np.zeros(1), np.zeros(1)), (np.array([2.0]), np.array([4.0])), np.zeros(1)
    )
    out = pc.correct_pd(state, pred, nu=0.99, beta=1.0)
    np.testing.assert_allclose(out.a[1], [5.0 - 0.99 * 1.0])


def _random_state_pair(rng, prob, beta):
    x = [rng.standard_normal(blk.n) for blk in prob.blocks]
    xt = [rng.standard_normal(blk.n) for blk in prob.blocks]
    lam, lt = rng.standard_normal(prob.m), rng.standard_normal(prob.m)
    state = pc.IterateState(tuple(blk.A @ xi for blk, xi in zip(prob.blocks, x)), lam)
    pred = pc.PredictorState(
        tuple(xt), tuple(blk.A @ xi for blk, xi in zip(prob.blocks, xt)), lt
    )
    w = pc.stack_blocks(x, lam)
    wt = pc.stack_blocks(xt, lt)
    return state, pred, w, wt


def test_matrix_form_bridge():
    # the corrector in (a, lam) == xi - M (xi - xi~) through build_p/build_m,
    # up to p = 5 (audit-wide) and at a beta on either side of 1
    rng = np.random.default_rng(5)
    for p, beta in itertools.product((1, 2, 3, 5), (1.7, 0.3)):
        prob, _ = pc.gen_eq_qp(p, [4] * p, 3, seed=40 + p)
        nu = 0.6
        P = pc.build_p(prob, beta)
        for variant, correct in (("pd", pc.correct_pd), ("dp", pc.correct_dp)):
            M = pc.build_m(variant, p, prob.m, nu)
            for _ in range(25):
                state, pred, w, wt = _random_state_pair(rng, prob, beta)
                new = correct(state, pred, nu, beta)
                xi_k, xi_t = P @ w, P @ wt
                expect = xi_k - M @ (xi_k - xi_t)
                got = xi_from_aggregates(new.a, new.lam, beta)
                assert np.max(np.abs(got - expect)) <= 1e-12


def test_superposition():
    rng = np.random.default_rng(8)
    prob, _ = pc.gen_eq_qp(2, [3, 3], 2, seed=50)
    beta, nu = 1.2, 0.4

    def pair():
        state, pred, _, _ = _random_state_pair(rng, prob, beta)
        return state, pred

    for correct in (pc.correct_pd, pc.correct_dp):
        (s1, p1), (s2, p2) = pair(), pair()
        s_sum = pc.IterateState(
            tuple(a + b for a, b in zip(s1.a, s2.a)), s1.lam + s2.lam
        )
        p_sum = pc.PredictorState(
            tuple(a + b for a, b in zip(p1.x_tilde, p2.x_tilde)),
            tuple(a + b for a, b in zip(p1.a_tilde, p2.a_tilde)),
            p1.lambda_tilde + p2.lambda_tilde,
        )
        out_sum = correct(s_sum, p_sum, nu, beta)
        out1, out2 = correct(s1, p1, nu, beta), correct(s2, p2, nu, beta)
        for a, b, c in zip(out_sum.a, out1.a, out2.a):
            assert np.max(np.abs(a - (b + c))) <= 1e-12
        assert np.max(np.abs(out_sum.lam - (out1.lam + out2.lam))) <= 1e-12


def test_dimension_mismatch():
    state = pc.IterateState((np.zeros(2),), np.zeros(2))
    pred = pc.PredictorState((np.zeros(1),), (np.zeros(1),), np.zeros(2))
    with pytest.raises(ValueError):
        pc.correct_pd(state, pred, 0.5, 1.0)
