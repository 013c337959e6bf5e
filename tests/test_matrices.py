import itertools

import numpy as np
import pytest

import pcadmm as pc
from pcadmm import matrices
from pcadmm.cli import DEFAULT_NU_LIST


def test_build_p_scales():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=[[2.0]]),), b=[0.0]
    )
    P = pc.build_p(prob, 4.0)
    np.testing.assert_allclose(P, [[4.0, 0.0], [0.0, 0.5]])
    w = pc.stack_blocks([np.array([1.5])], np.array([2.0]))
    np.testing.assert_allclose(P @ w, [6.0, 1.0])
    np.testing.assert_array_equal(P @ np.zeros(2), np.zeros(2))


def test_build_p_identity_case():
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=np.eye(2)),
            pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=np.eye(2)),
        ),
        b=np.zeros(2),
    )
    np.testing.assert_array_equal(pc.build_p(prob, 1.0), np.eye(6))


def test_q_spot_values():
    np.testing.assert_array_equal(pc.build_q("pd", 2, 1), [[1, 0, 1], [1, 1, 1], [0, 0, 1]])
    np.testing.assert_array_equal(pc.build_q("dp", 2, 1), [[1, 0, 0], [1, 1, 0], [-1, -1, 1]])
    np.testing.assert_array_equal(pc.build_q("pd", 1, 1), [[1, 1], [0, 1]])


def test_m_spot_values():
    np.testing.assert_allclose(
        pc.build_m("pd", 2, 1, 0.5), [[0.5, -0.5, 0], [0, 0.5, 0], [-0.5, 0, 1]]
    )
    np.testing.assert_allclose(
        pc.build_m("dp", 2, 1, 0.5), [[0.5, -0.5, 0], [0, 0.5, 0], [-1, -1, 1]]
    )


def test_m_zero_direction_is_identity():
    for variant in ("pd", "dp"):
        M = pc.build_m(variant, 3, 2, 0.7)
        xi = np.arange(8.0)
        np.testing.assert_array_equal(xi - M @ np.zeros(8), xi)


def test_h_spot_values():
    np.testing.assert_array_equal(
        pc.build_h("pd", 2, 1, 0.5), [[3.0, 3.0, 1.0], [3.0, 5.0, 1.0], [1.0, 1.0, 1.0]]
    )
    np.testing.assert_array_equal(
        pc.build_h("dp", 2, 1, 0.5), [[2.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    )


def test_hm_equals_q_exactly_for_dyadic_nu():
    H = pc.build_h("pd", 2, 1, 0.5)
    M = pc.build_m("pd", 2, 1, 0.5)
    np.testing.assert_array_equal(H @ M, pc.build_q("pd", 2, 1))


def test_g_spot_values():
    np.testing.assert_array_equal(
        pc.build_g("pd", 2, 1, 0.5), [[1.5, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 1.0]]
    )
    np.testing.assert_array_equal(pc.build_g("dp", 2, 1, 0.5), np.diag([0.5, 0.5, 1.0]))
    np.testing.assert_allclose(
        pc.build_g("dp", 4, 2, 0.25), np.diag([0.75] * 8 + [1.0] * 2), atol=1e-14
    )


def test_g_mismatch_raises(monkeypatch):
    # a wrong closed-form G template is caught where G meets its definition
    templates = matrices._templates

    def wrong_g(variant, p, nu):
        T_M, T_H, T_G = templates(variant, p, nu)
        T_G[0, 0] += 1e-12
        return T_M, T_H, T_G

    monkeypatch.setattr(matrices, "_templates", wrong_g)
    with pytest.raises(pc.ClosedFormMismatchError, match="G mismatch"):
        pc.verify_framework("pd", 2, 1, 0.5)


def test_closed_form_g_matches_its_definition():
    for variant, p, m, nu in itertools.product(("pd", "dp"), range(1, 9), (1, 2, 3), DEFAULT_NU_LIST):
        Q, M, H = pc.build_q(variant, p, m), pc.build_m(variant, p, m, nu), pc.build_h(variant, p, m, nu)
        err = np.max(np.abs(pc.build_g(variant, p, m, nu) - ((Q.T + Q) - M.T @ (H @ M))))
        assert err <= 1e-13, (variant, p, m, nu, err)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: pc.verify_framework("dp", 0, 1, 0.5), "p"),
        (lambda: pc.verify_framework("pd", 0, 1, 0.5), "p"),
        (lambda: pc.verify_framework("pd", 2, 0, 0.5), "m"),
        (lambda: pc.build_h("pd", 2, 0, 0.5), "m"),
        (lambda: pc.build_q("dp", -1, 2), "p"),
        (lambda: pc.build_g("pd", 3, -2, 0.5), "m"),
    ],
)
def test_factories_reject_sizes_below_one(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        call()


def test_scaling_and_splitting_reject_bad_input():
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=pc.Zero(), A=[[2.0, 1.0]]),), b=[0.0])
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="^beta must be positive and finite, got "):
            pc.build_p(prob, beta)
    with pytest.raises(ValueError, match=r"^stacked point has length 2, expected 3$"):
        pc.split_stacked(prob, np.zeros(2))


def test_condition_sweep():
    for variant, p, m, nu in itertools.product(
        ("pd", "dp"), (1, 2, 3, 5), (1, 2, 3), (0.01, 0.25, 0.5, 0.75, 0.99)
    ):
        rep = pc.verify_framework(variant, p, m, nu)
        assert rep.hm_eq_q_maxerr <= 1e-13, (variant, p, m, nu)
        assert rep.h_min_eig > 0 and rep.g_min_eig > 0 and rep.qtq_min_eig > 0


def test_dp_g_min_eig_boundary():
    for p, m, nu in itertools.product((1, 2, 3, 5), (1, 2), (0.01, 0.5, 0.99)):
        rep = pc.verify_framework("dp", p, m, nu)
        assert (1 - nu) - 1e-10 <= rep.g_min_eig <= (1 - nu) + 1e-10


def test_verify_framework_rejects_nu_one():
    with pytest.raises(ValueError):
        pc.verify_framework("pd", 2, 1, 1.0)


def test_verify_framework_example_case():
    rep = pc.verify_framework("pd", 3, 2, 0.99)
    assert rep.passed
    rep = pc.verify_framework("dp", 1, 1, 0.5)
    assert rep.g_min_eig == pytest.approx(0.5, abs=1e-12)


def test_check_skew_zero_at_equal_points():
    prob, _ = pc.gen_eq_qp(2, [3, 3], 2, seed=1)
    w = np.arange(float(sum(blk.n for blk in prob.blocks) + prob.m))
    assert pc.check_skew(prob, w, w) == 0.0


def test_check_skew_random_draws():
    rng = np.random.default_rng(23)
    for trial in range(60):
        p = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(p)]
        m = int(rng.integers(1, 4))
        blocks = [
            pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=rng.standard_normal((m, n)))
            for n in dims
        ]
        prob = pc.SeparableProblem(blocks=tuple(blocks), b=rng.standard_normal(m))
        ntot = sum(dims) + m
        w1, w2 = rng.standard_normal(ntot), rng.standard_normal(ntot)
        bound = 1e-12 * (1 + np.linalg.norm(w1) * np.linalg.norm(w2))
        assert abs(pc.check_skew(prob, w1, w2)) <= bound


def test_q_pw_factorization():
    # the w-space prediction weights factor through the scaling matrix
    prob, _ = pc.gen_eq_qp(2, [4, 3], 2, seed=3)
    beta = 2.5
    P = pc.build_p(prob, beta)
    A1, A2 = prob.blocks[0].A, prob.blocks[1].A
    Qw = P.T @ pc.build_q("dp", 2, 2) @ P
    m = prob.m
    expect = np.block(
        [
            [beta * A1.T @ A1, np.zeros((4, 3)), np.zeros((4, m))],
            [beta * A2.T @ A1, beta * A2.T @ A2, np.zeros((3, m))],
            [-A1, -A2, np.eye(m) / beta],
        ]
    )
    np.testing.assert_allclose(Qw, expect, atol=1e-12)


def test_factories_are_kron_of_their_one_row_builds():
    # every certificate matrix is kron(T, I_m) of its m = 1 build T, so
    # kron_form on T gives the dense quadratic form
    rng = np.random.default_rng(11)
    for variant, p, m, nu in itertools.product(("pd", "dp"), (1, 2, 3, 5), (1, 2, 3, 4), DEFAULT_NU_LIST):
        factories = {
            "Q": lambda mm: pc.build_q(variant, p, mm),
            "M": lambda mm: pc.build_m(variant, p, mm, nu),
            "H": lambda mm: pc.build_h(variant, p, mm, nu),
            "G": lambda mm: pc.build_g(variant, p, mm, nu),
        }
        for name, build in factories.items():
            T, dense = build(1), build(m)
            np.testing.assert_array_equal(dense, np.kron(T, np.eye(m)), err_msg=f"{name} {variant} p={p} m={m} nu={nu}")
            if name in ("H", "G"):
                x = rng.standard_normal((p + 1) * m)
                assert pc.kron_form(T, x.reshape(p + 1, m)) == pytest.approx(x @ dense @ x, rel=1e-13)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kron_form_of_one_snapshot_is_its_stacked_form_bit_for_bit():
    # run's dist_H takes the 2-D path, contraction_check the stacked one
    rng = np.random.default_rng(29)
    draws = 0
    for variant, p in itertools.product(("pd", "dp"), range(1, 9)):
        for m in (1, 2, 5, 13, 64, 200):
            nu = DEFAULT_NU_LIST[int(rng.integers(len(DEFAULT_NU_LIST)))]
            for T in matrices._templates(variant, p, nu)[1:]:
                x = rng.standard_normal((p + 1, m)) * 10.0 ** rng.integers(-3, 4)
                if rng.random() < 0.4:
                    x[rng.integers(p + 1)] = rng.choice([np.inf, -np.inf, np.nan, 1e300], size=m)
                with np.errstate(over="ignore", invalid="ignore"):
                    one, stacked = pc.kron_form(T, x), pc.kron_form(T, x[None])
                assert stacked.shape == (1,)
                assert _same_bits(one, stacked[0]), (variant, p, m)
                draws += 1
    assert draws == 2 * 8 * 6 * 2


def test_kron_with_one_row_is_the_template_bit_for_bit():
    # _kron(T, 1) copies T instead of calling np.kron, down to the signs
    # of zeros and NaN
    rng = np.random.default_rng(30)
    for p in range(1, 9):
        T = rng.standard_normal((p + 1, p + 1))
        T[rng.random(T.shape) < 0.3] = 0.0
        T[rng.random(T.shape) < 0.2] = -0.0
        T[0, -1], T[-1, 0] = np.nan, -np.inf
        out = matrices._kron(T, 1)
        assert out is not T and _same_bits(out, np.kron(T, np.eye(1)))
    for variant, nu in itertools.product(("pd", "dp"), DEFAULT_NU_LIST):
        for T in matrices._templates(variant, 4, nu):
            assert _same_bits(matrices._kron(T, 1), np.kron(T, np.eye(1)))
