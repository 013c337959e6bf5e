import csv
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import pcadmm as pc
from pcadmm import prox
from pcadmm.solver import CSV_COLUMNS


def one_block_eq():
    # min x^2/2 s.t. x = 1  ->  x* = 1, lam* = 1
    return pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.EQ,
    )


def one_block_ge():
    # min (x-2)^2/2 s.t. x >= 1  ->  x* = 2, lam* = 0
    return pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [-2.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.GE,
    )


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_converges_on_equality_toy(variant):
    result = pc.run(one_block_eq(), pc.SolverConfig(variant=variant))
    assert result.reason.kind == pc.CONVERGED
    assert result.log.primal_res[-1] <= 1e-6
    np.testing.assert_allclose(result.solution.x_tilde[0], [1.0], atol=1e-5)
    np.testing.assert_allclose(result.solution.lambda_tilde, [1.0], atol=1e-5)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_converges_on_inactive_inequality(variant):
    result = pc.run(one_block_ge(), pc.SolverConfig(variant=variant))
    assert result.reason.kind == pc.CONVERGED
    np.testing.assert_allclose(result.solution.x_tilde[0], [2.0], atol=1e-5)
    np.testing.assert_allclose(result.solution.lambda_tilde, [0.0], atol=1e-6)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_saddle_init_converges_immediately(variant):
    prob, ref = pc.gen_eq_qp(2, [6, 6], 3, seed=4)
    config = pc.SolverConfig(variant=variant)
    result = pc.run(prob, config, init=(ref.x, ref.lam), reference=ref)
    assert result.reason.kind == pc.CONVERGED
    assert len(result.log) <= 2
    assert result.log.pred_gap[0] <= 10 * config.inner_tol


def test_max_iters_reason():
    result = pc.run(one_block_eq(), pc.SolverConfig(max_iters=2))
    assert result.reason.kind == pc.MAX_ITERS
    assert len(result.log) == 2


def test_stop_reason_reads_its_kind_and_any_detail():
    assert str(pc.StopReason(pc.CONVERGED)) == "converged"
    assert str(pc.StopReason(pc.MAX_ITERS, "no convergence in 2 iterations")) == "max_iters: no convergence in 2 iterations"


def test_subproblem_failure_aborts_with_partial_log():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), set=pc.Free(), A=[[1.0, 1.0]]),),
        b=[1.0],
    )
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert "block 0" in result.reason.detail
    assert result.solution is None and len(result.log) == 0


def test_singular_exact_block_that_passes_cholesky_stops_the_run():
    # S = A'A = [[2, 2], [2, 2]] is singular, yet cholesky may accept it
    # on roundoff (last pivot about 2e-8); the compile's pivot test
    # rejects it, so the run ends with subproblem_failure before its
    # first iteration, not with a raw LinAlgError or a wrong answer
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), set=pc.Free(), A=np.ones((2, 2))),),
        b=[0.0, 0.0],
    )
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert result.reason.detail.startswith("block 0: normal matrix")
    assert result.solution is None and len(result.log) == 0


def zero_normal_matrix_problem(set_spec):
    # block 2 has H = 0 and A = 0, so its normal matrix is zero; on the
    # unit box the optimum is x1 = (1, 1), x2 = (0, 1), objective 0
    return pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=pc.Free(), A=np.eye(2)),
            pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), [1.0, -1.0]), set=set_spec, A=np.zeros((2, 2))),
        ),
        b=[1.0, 1.0],
    )


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_zero_normal_matrix_block(variant):
    config = pc.SolverConfig(variant=variant)
    result = pc.run(zero_normal_matrix_problem(pc.Box([0.0, 0.0], [1.0, 1.0])), config)
    assert result.reason.kind == pc.CONVERGED
    assert abs(result.log.objective[-1]) <= 10 * config.tol
    np.testing.assert_array_equal(result.solution.x_tilde[1], [0.0, 1.0])
    for unbounded in (pc.NonNeg(), pc.Free()):
        result = pc.run(zero_normal_matrix_problem(unbounded), config)
        assert result.reason.kind == pc.SUBPROBLEM_FAILURE
        assert result.reason.detail.startswith("block 1: normal matrix")


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_non_convex_block_stops_the_run(variant):
    # block 0 has S = -1 + 0.01 beta < 0 on the orthant, so the problem
    # is unbounded below; it used to "converge" at x = (0, 0)
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[-1.0]], [0.1]), set=pc.NonNeg(), A=[[0.1]]),
            pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),
        ),
        b=[0.0],
        sense=pc.EQ,
    )
    assert pc.validate_problem(prob) == []
    result = pc.run(prob, pc.SolverConfig(variant=variant))
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert result.reason.detail.startswith("block 0: normal matrix") and "not convex" in result.reason.detail
    assert result.solution is None and len(result.log) == 0


def test_init_of_the_wrong_shape_is_rejected():
    prob, ref = pc.gen_eq_qp(2, [4, 3], 5, seed=0)
    expected = r"expected \[\(4,\), \(3,\)\] and \(5,\)"
    for x0, lam0 in (
        ([*ref.x, np.zeros(3)], ref.lam),
        ([ref.x[0], ref.x[1][:2]], ref.lam),
        ([ref.x[0]], ref.lam),
        (ref.x, ref.lam[:4]),
    ):
        with pytest.raises(ValueError, match=expected):
            pc.run(prob, pc.SolverConfig(), init=(x0, lam0))


def test_invalid_problem_raises():
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Zero(), set=pc.Free(), A=np.ones((2, 1))),),
        b=np.zeros(1),
    )
    with pytest.raises(ValueError, match="row count"):
        pc.run(prob, pc.SolverConfig())


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_dist_h_monotone_and_gap_shrinks(variant):
    prob, ref = pc.gen_eq_qp(2, [8, 8], 4, seed=6)
    config = pc.SolverConfig(variant=variant, record_xi=True)
    result = pc.run(prob, config, reference=ref)
    assert result.reason.kind == pc.CONVERGED
    dist = np.array(result.log.dist_h, dtype=float)
    assert np.all(np.diff(dist) <= 1e-9 * (1 + dist[:-1]))
    assert result.log.pred_gap[-1] < result.log.pred_gap[0]
    assert result.log.pred_gap[-1] <= config.tol


def test_contraction_check_empty_on_sound_run():
    prob, ref = pc.gen_eq_qp(3, [5, 5, 5], 3, seed=11)
    for variant in ("pd", "dp"):
        config = pc.SolverConfig(variant=variant, record_xi=True)
        result = pc.run(prob, config, reference=ref)
        assert pc.contraction_check(result.log, prob, config, ref) == []


@pytest.mark.parametrize("beta", [0.3, 2.5])
@pytest.mark.parametrize("nu", [0.1, 0.99])
@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_contraction_off_default_parameters(beta, nu, variant):
    # the audit must stay clean away from the default beta/nu corner,
    # for the inequality sense as well
    config = pc.SolverConfig(variant=variant, beta=beta, nu=nu, tol=1e-8, record_xi=True)
    for prob, ref in (
        pc.gen_eq_qp(3, [6, 6, 6], 4, seed=5),
        pc.gen_ineq_qp(2, [5, 5], 3, seed=5),
    ):
        result = pc.run(prob, config, reference=ref)
        assert result.reason.kind == pc.CONVERGED
        assert pc.contraction_check(result.log, prob, config, ref) == []


def test_contraction_check_requires_reference_and_snapshots():
    prob, ref = pc.gen_eq_qp(2, [4, 4], 2, seed=12)
    config = pc.SolverConfig(record_xi=True)
    result = pc.run(prob, config, reference=ref)
    with pytest.raises(pc.MissingReferenceError):
        pc.contraction_check(result.log, prob, config, None)
    bare = pc.run(prob, pc.SolverConfig())
    with pytest.raises(pc.MissingReferenceError):
        pc.contraction_check(bare.log, prob, pc.SolverConfig(), ref)


def test_contraction_check_of_a_recorded_run_that_never_iterated_is_empty():
    # the singular exact block stops the run at compile: xi_0 is recorded
    # and no iteration is, so there is nothing to violate
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(np.zeros((2, 2)), np.zeros(2)), set=pc.Free(), A=[[1.0, 1.0]]),),
        b=[1.0],
    )
    config = pc.SolverConfig(record_xi=True)
    result = pc.run(prob, config)
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert len(result.log.xi_states) == 1 and result.log.xi_preds == []
    assert pc.contraction_check(result.log, prob, config, (np.zeros((1, 1)), np.zeros(1))) == []


def test_contraction_check_flags_corrupted_lambda_row():
    from pcadmm.matrices import xi_from_aggregates
    from pcadmm.solver import RunLog

    prob, ref = pc.gen_eq_qp(2, [10, 10], 5, seed=1)
    config = pc.SolverConfig(variant="pd", record_xi=True)
    state = pc.IterateState(tuple(np.zeros(5) for _ in range(2)), np.zeros(5))
    log = RunLog()
    for k in range(150):
        xi_k = xi_from_aggregates(state.a, state.lam, config.beta)
        pred = pc.predict_pd(prob, state, config.beta, config.inner_tol)
        xi_t = xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, config.beta)
        log.xi_states.append(xi_k)
        log.xi_preds.append(xi_t)
        log.append(k, 0, 0, np.linalg.norm(xi_k - xi_t), None, 0)
        good = pc.correct_pd(state, pred, config.nu, config.beta)
        # flip the sign of the multiplier-row coefficient
        d1 = state.a[0] - pred.a_tilde[0]
        bad_lam = good.lam - 2 * config.nu * config.beta * d1
        state = pc.IterateState(good.a, bad_lam)
    log.xi_states.append(xi_from_aggregates(state.a, state.lam, config.beta))
    assert len(pc.contraction_check(log, prob, config, ref)) > 0


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_trajectory_matches_literal_recursion(variant):
    # Re-derive ten iterations of the two-block scheme with plain dense
    # algebra (explicit argmin solves and the full correction matrix)
    # and require the solver's recorded trajectory to coincide.
    prob, _ = pc.gen_eq_qp(2, [5, 4], 3, seed=77)
    (blk1, blk2), b, m = prob.blocks, prob.b, prob.m
    beta, nu = 1.0, 0.99
    steps = 10
    config = pc.SolverConfig(variant=variant, beta=beta, nu=nu, max_iters=steps, record_xi=True)
    result = pc.run(prob, config)

    def argmin_block(blk, target, lam):
        # min theta(x) - x'A'lam + (beta/2)||A x - target||^2
        S = blk.theta.H + beta * blk.A.T @ blk.A
        return np.linalg.solve(S, blk.A.T @ (beta * target + lam) - blk.theta.c)

    a1, a2, lam = np.zeros(m), np.zeros(m), np.zeros(m)
    for k in range(steps):
        if variant == "pd":
            x1 = argmin_block(blk1, a1, lam)
            t1 = blk1.A @ x1
            x2 = argmin_block(blk2, a2 - (t1 - a1), lam)
            t2 = blk2.A @ x2
            lt = lam - beta * (t1 + t2 - b)
        else:
            lt = lam - beta * (a1 + a2 - b)
            x1 = argmin_block(blk1, a1, lt)
            t1 = blk1.A @ x1
            x2 = argmin_block(blk2, a2 - (t1 - a1), lt)
            t2 = blk2.A @ x2
        xi_pred = np.concatenate([np.sqrt(beta) * t1, np.sqrt(beta) * t2, lt / np.sqrt(beta)])
        np.testing.assert_allclose(result.log.xi_preds[k], xi_pred, atol=1e-10)
        d1, d2, dl = a1 - t1, a2 - t2, lam - lt
        a1, a2 = a1 - nu * d1 + nu * d2, a2 - nu * d2
        if variant == "pd":
            lam = lam - (-nu * beta * d1 + dl)
        else:
            lam = lam - (-beta * d1 - beta * d2 + dl)
        xi_state = np.concatenate([np.sqrt(beta) * a1, np.sqrt(beta) * a2, lam / np.sqrt(beta)])
        np.testing.assert_allclose(result.log.xi_states[k + 1], xi_state, atol=1e-10)


def test_variant_agreement_on_objective():
    prob, ref = pc.gen_eq_qp(2, [6, 6], 3, seed=14)
    objs = {}
    for variant in ("pd", "dp"):
        result = pc.run(prob, pc.SolverConfig(variant=variant, tol=1e-8))
        assert result.reason.kind == pc.CONVERGED
        objs[variant] = result.log.objective[-1]
        assert abs(objs[variant] - ref.objective) <= 1e-6 * (1 + abs(ref.objective))
    assert abs(objs["pd"] - objs["dp"]) <= 1e-6 * (1 + abs(objs["pd"]))


def test_csv_log_format(tmp_path):
    prob, ref = pc.gen_eq_qp(1, [3], 2, seed=15)
    result = pc.run(prob, pc.SolverConfig(), reference=ref)
    path = tmp_path / "log.csv"
    result.log.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == len(result.log) + 1
    iters = [int(r[0]) for r in rows[1:]]
    assert iters == sorted(iters)
    # reference supplied, so dist_H cells are populated floats
    assert all(r[4] != "" for r in rows[1:])
    bare = pc.run(prob, pc.SolverConfig())
    bare.log.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert all(r[4] == "" for r in rows[1:])


def _dense_audit(log, prob, config, ref):
    # Reference audit for contraction_check: the dense (p+1)m-square H
    # and G and three quadratic forms per iteration, no kron_form.
    from pcadmm.matrices import xi_from_aggregates

    H = pc.build_h(config.variant, prob.p, prob.m, config.nu)
    G = pc.build_g(config.variant, prob.p, prob.m, config.nu)
    xi_ref = xi_from_aggregates(np.asarray(ref.a), ref.lam, config.beta)
    violations = []
    for k in range(len(log.xi_preds)):
        dk = log.xi_states[k] - xi_ref
        dk1 = log.xi_states[k + 1] - xi_ref
        gk = log.xi_states[k] - log.xi_preds[k]
        dist_sq = float(dk @ H @ dk)
        slack = 1e-8 * (1.0 + dist_sq) + 100.0 * config.inner_tol
        if float(dk1 @ H @ dk1) > dist_sq - float(gk @ G @ gk) + slack:
            violations.append(k)
    return violations


def _corrupted_multiplier_log(prob, config, iters, corruption):
    # Predict/correct by hand with the multiplier row corrupted: "flip"
    # flips the sign of its aggregate term, "drop" drops its own
    # correction -d_lam.
    from pcadmm.matrices import xi_from_aggregates
    from pcadmm.solver import RunLog

    pd = config.variant == "pd"
    predict, correct = (pc.predict_pd, pc.correct_pd) if pd else (pc.predict_dp, pc.correct_dp)
    state = pc.IterateState(np.zeros((prob.p, prob.m)), np.zeros(prob.m))
    log = RunLog()
    for k in range(iters):
        xi_k = xi_from_aggregates(state.a, state.lam, config.beta)
        pred = predict(prob, state, config.beta, config.inner_tol)
        xi_t = xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, config.beta)
        log.xi_states.append(xi_k)
        log.xi_preds.append(xi_t)
        log.append(k, 0, 0, np.linalg.norm(xi_k - xi_t), None, 0)
        good = correct(state, pred, config.nu, config.beta)
        if corruption == "flip":
            d = state.a - pred.a_tilde
            term = config.nu * config.beta * d[0] if pd else config.beta * d.sum(axis=0)
            lam = good.lam - 2 * term
        else:
            lam = good.lam + (state.lam - pred.lambda_tilde)
        state = pc.IterateState(good.a, lam)
    log.xi_states.append(xi_from_aggregates(state.a, state.lam, config.beta))
    return log


@pytest.mark.parametrize("variant", ["pd", "dp"])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_contraction_check_matches_dense_reference(variant, p):
    flagged = 0
    for seed in (0, 1):
        prob, ref = pc.gen_eq_qp(p, [6] * p, 4, seed=seed)
        config = pc.SolverConfig(variant=variant, record_xi=True)
        sound = pc.run(prob, config, reference=ref)
        assert pc.contraction_check(sound.log, prob, config, ref) == _dense_audit(sound.log, prob, config, ref) == []
        for corruption in ("flip", "drop"):
            bad = _corrupted_multiplier_log(prob, config, 120, corruption)
            violations = pc.contraction_check(bad, prob, config, ref)
            assert violations == _dense_audit(bad, prob, config, ref)
            flagged += bool(violations)
    assert flagged > 0


@pytest.mark.parametrize("variant", ["pd", "dp"])
@pytest.mark.parametrize("p", [1, 3])
def test_contraction_check_gives_the_same_list_at_every_block_size(monkeypatch, variant, p):
    # Blocks of 1, 2, K, K + 1 and K + 2 snapshots: a one-snapshot block,
    # a short last block, a last block that holds only the final state,
    # and a log that fits in one block.
    import pcadmm.solver

    prob, ref = pc.gen_eq_qp(p, [6] * p, 4, seed=1)
    config = pc.SolverConfig(variant=variant, record_xi=True)
    logs = [pc.run(prob, config, reference=ref).log]
    logs += [_corrupted_multiplier_log(prob, config, 60, corruption) for corruption in ("flip", "drop")]
    snapshot_bytes = 8 * (p + 1) * prob.m
    flagged = 0
    for log in logs:
        K = len(log.xi_preds)
        want = _dense_audit(log, prob, config, ref)
        flagged += bool(want)
        for size in (1, 2, K, K + 1, K + 2):
            monkeypatch.setattr(pcadmm.solver, "_AUDIT_BYTES", size * snapshot_bytes)
            assert pc.contraction_check(log, prob, config, ref) == want
    assert flagged > 0


def test_contraction_check_holds_a_bounded_block_of_a_long_log():
    # p = 5 and m = 200 give 9.6 KB snapshots, so 300 iterations log
    # about 5.8 MB; the audit must not stack a second copy of them.
    import tracemalloc

    from pcadmm.solver import _AUDIT_BYTES, RunLog

    p, m, K = 5, 200, 300
    block = pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=np.ones((m, 1)))
    prob = pc.SeparableProblem(blocks=(block,) * p, b=np.zeros(m))
    rng = np.random.default_rng(0)
    log = RunLog(
        xi_states=[rng.standard_normal((p + 1) * m) for _ in range(K + 1)],
        xi_preds=[rng.standard_normal((p + 1) * m) for _ in range(K)],
    )
    config = pc.SolverConfig(record_xi=True)
    ref = (np.zeros((p, m)), np.zeros(m))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        violations = pc.contraction_check(log, prob, config, ref)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert violations
    assert peak < 3 * _AUDIT_BYTES + 64 * K


def test_contraction_check_of_a_short_log_names_both_counts():
    prob, ref = pc.gen_eq_qp(2, [4, 4], 2, seed=12)
    config = pc.SolverConfig(record_xi=True)
    log = pc.run(prob, config, reference=ref).log
    K = len(log.xi_preds)
    del log.xi_states[K - 1 :]
    with pytest.raises(pc.MissingReferenceError, match=rf"log has {K - 1} xi states and {K} predictions, expected {K + 1}"):
        pc.contraction_check(log, prob, config, ref)


def test_reference_of_the_wrong_shape_is_rejected():
    prob, ref = pc.gen_eq_qp(2, [10, 10], 5, seed=0)
    with pytest.raises(ValueError, match=r"expected \(2, 5\) and \(5,\)"):
        pc.run(prob, pc.SolverConfig(), reference=(ref.a[0], ref.lam))
    with pytest.raises(ValueError, match=r"expected \(2, 5\) and \(5,\)"):
        pc.run(prob, pc.SolverConfig(), reference=(ref.a, ref.lam[:4]))
    config = pc.SolverConfig(record_xi=True)
    result = pc.run(prob, config, reference=ref)
    with pytest.raises(ValueError, match=r"expected \(2, 5\) and \(5,\)"):
        pc.contraction_check(result.log, prob, config, (ref.a[0], ref.lam))


def test_a_non_finite_reference_is_rejected():
    # a NaN reference used to log dist_H = 0.0 on every row, since
    # max(0.0, nan) is 0.0, and to certify the run
    prob, ref = pc.gen_eq_qp(2, [4, 4], 3, seed=12)
    config = pc.SolverConfig(record_xi=True)
    result = pc.run(prob, config, reference=ref)
    lam_inf = np.array(ref.lam)
    lam_inf[1] = np.inf
    for bad in ((np.full((2, 3), np.nan), ref.lam), (ref.a, lam_inf)):
        with pytest.raises(ValueError, match="reference .* must be finite"):
            pc.run(prob, config, reference=bad)
        with pytest.raises(ValueError, match="reference .* must be finite"):
            pc.contraction_check(result.log, prob, config, bad)


def test_contraction_check_flags_every_overflowed_iteration_without_a_warning():
    # theta_0 = -x^2 makes the problem unbounded below; it validates and
    # runs until the iterates overflow.  Rows whose forms are inf or NaN
    # must be flagged, not passed because NaN compares False.
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[-2.0]], [0.0]), set=pc.Free(), A=[[2.0]]),
            pc.BlockSpec(theta=pc.Quadratic([[0.2]], [0.0]), set=pc.Free(), A=[[1.0]]),
        ),
        b=[1.0],
    )
    config = pc.SolverConfig(record_xi=True)
    ref = (np.zeros((2, 1)), np.zeros(1))
    result = pc.run(prob, config, reference=ref)
    assert result.reason.kind == pc.NON_FINITE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = pc.contraction_check(result.log, prob, config, ref)
    assert violations == list(range(len(result.log)))


def test_dist_h_logs_nan_where_the_h_form_is_nan():
    # On the unbounded theta_0 = -x^2 example the H-form overflows to
    # inf and then NaN; a NaN form must log NaN, not the 0.0 that reads
    # "at the reference".
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic([[-2.0]], [0.0]), set=pc.Free(), A=[[2.0]]),
            pc.BlockSpec(theta=pc.Quadratic([[0.2]], [0.0]), set=pc.Free(), A=[[1.0]]),
        ),
        b=[1.0],
    )
    result = pc.run(prob, pc.SolverConfig(), reference=(np.zeros((2, 1)), np.zeros(1)))
    assert result.reason.kind == pc.NON_FINITE
    assert len(result.log) == 886
    dist = result.log.dist_h
    assert dist[881] == np.inf
    assert all(np.isnan(d) for d in dist[882:886])
    assert 0.0 not in dist[1:]


def test_contraction_check_rejects_snapshots_of_the_wrong_length():
    prob, ref = pc.gen_eq_qp(2, [4, 4], 3, seed=12)
    config = pc.SolverConfig(record_xi=True)
    result = pc.run(prob, config, reference=ref)
    result.log.xi_preds[1] = result.log.xi_preds[1][:-1]
    with pytest.raises(ValueError, match=r"length 8, expected \(p\+1\)m = 9"):
        pc.contraction_check(result.log, prob, config, ref)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_non_finite_block_solve_stops_after_one_row(variant):
    def nan_solve(req, inner_tol, x0):
        return np.full(req.A.shape[1], np.nan)

    blk = pc.BlockSpec(theta=pc.Custom(value=lambda x: 0.0, solve=nan_solve), set=pc.Free(), A=[[1.0]])
    prob = pc.SeparableProblem(blocks=(blk,), b=[1.0])
    result = pc.run(prob, pc.SolverConfig(variant=variant))
    assert result.reason.kind == pc.NON_FINITE
    assert result.reason.detail.startswith("iteration 0: primal_res=nan")
    assert len(result.log) == 1


def test_overflowing_data_stops_after_one_row_without_a_warning():
    # finite b whose residual norm overflows: a stop reason, not a RuntimeWarning
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=pc.Free(), A=np.eye(2)),),
        b=[1e200, 1e200],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pc.run(prob, pc.SolverConfig(record_xi=True))
    assert result.reason.kind == pc.NON_FINITE
    assert len(result.log) == 1


@pytest.mark.parametrize(
    "theta, set_spec, a, beta",
    [
        (pc.Quadratic(np.eye(1), [0.0]), pc.Free(), 1e200, 1.0),
        (pc.Zero(), pc.NonNeg(), 1e200, 1.0),
        (pc.Zero(), pc.Free(), 1e150, 1e10),
    ],
    ids=["exact", "pg", "closed"],
)
def test_a_non_finite_normal_matrix_fails_at_compile_time(theta, set_spec, a, beta):
    # A and beta are finite, but S = beta A'A overflows: the exact and
    # closed routes used to return x = 0 forever, the pg route to spin
    # 200,000 steps
    prob = pc.SeparableProblem(blocks=(pc.BlockSpec(theta=theta, set=set_spec, A=[[a]]),), b=[1.0])
    assert pc.validate_problem(prob) == []
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = pc.run(prob, pc.SolverConfig(beta=beta, max_iters=50))
    assert time.perf_counter() - t0 < 0.1
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert result.reason.detail == "block 0: normal matrix H + beta*A'A is not finite"
    assert result.solution is None and len(result.log) == 0


@pytest.mark.parametrize("box", [False, True])
def test_non_finite_target_on_the_pg_route_stops_after_one_row(box):
    # block 0 hands block 1 a NaN target; the pg route must pass it on
    # rather than spin its inner loop to the iteration cap
    nan_block = pc.Custom(value=lambda x: 0.0, solve=lambda req, inner_tol, x0: np.full(2, np.nan))
    st = pc.Box(np.zeros(2), np.ones(2)) if box else pc.NonNeg()
    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=nan_block, A=np.eye(2)),
            pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=st, A=np.eye(2)),
        ),
        b=np.zeros(2),
    )
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.NON_FINITE
    assert len(result.log) == 1


def test_custom_solve_of_the_wrong_shape_stops_the_run():
    def wrong_shape(req, inner_tol, x0):
        return np.zeros(3)

    prob = pc.SeparableProblem(
        blocks=(
            pc.BlockSpec(theta=pc.Quadratic(np.eye(1), [0.0]), set=pc.Free(), A=[[1.0]]),
            pc.BlockSpec(theta=pc.Custom(value=lambda x: 0.0, solve=wrong_shape), set=pc.Free(), A=[[1.0, 1.0]]),
        ),
        b=[1.0],
    )
    result = pc.run(prob, pc.SolverConfig())
    assert result.reason.kind == pc.SUBPROBLEM_FAILURE
    assert result.reason.detail == "block 1: custom solve returned shape (3,), expected (2,)"
    assert result.solution is None and len(result.log) == 0


def nonneg_qp(seed):
    # quadratic blocks on the nonnegative orthant (the projected-gradient
    # route) next to two exact blocks, coupled by feasible equality rows
    rng = np.random.default_rng(seed)
    m, blocks, b = 3, [], np.zeros(3)
    for i in range(4):
        n = 3 + i
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = rng.standard_normal((m, n))
        st = pc.NonNeg() if i % 2 else pc.Free()
        blocks.append(pc.BlockSpec(theta=pc.Quadratic((Q * rng.uniform(0.5, 2, n)) @ Q.T, rng.standard_normal(n)), set=st, A=A))
        b += A @ rng.uniform(0, 1, n)
    return pc.SeparableProblem(blocks=tuple(blocks), b=b)


@pytest.mark.parametrize("max_iters", [3, 2000])
def test_run_sets_up_each_block_once(monkeypatch, max_iters):
    # the exact blocks' Cholesky factorizations and the pg blocks'
    # spectra; potrf calls made inside the pg blocks' Newton solves, on
    # their free sets' S_FF, are counted apart
    calls = {"dpotrf": 0, "eigvalsh": 0, "newton": 0}
    in_newton = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls["newton" if in_newton and name == "dpotrf" else name] += 1
            return original(*args, **kwargs)

        return counted

    def newton(*args):
        in_newton.append(True)
        try:
            return solve(*args)
        finally:
            in_newton.pop()

    for module, name in ((lapack, "dpotrf"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, counting(module, name))
    solve = prox._active_set_newton
    monkeypatch.setattr(prox, "_active_set_newton", newton)
    result = pc.run(nonneg_qp(3), pc.SolverConfig(max_iters=max_iters))
    assert result.reason.kind == (pc.MAX_ITERS if max_iters == 3 else pc.CONVERGED)
    assert len(result.log) >= 3
    assert calls["dpotrf"] == 2 and calls["eigvalsh"] == 2
    assert calls["newton"] >= 2


def _hand_loop(prob, config):
    # run's loop written out with per-call compiled predict_* (no plans)
    from pcadmm.matrices import xi_from_aggregates

    predict, correct = (pc.predict_pd, pc.correct_pd) if config.variant == "pd" else (pc.predict_dp, pc.correct_dp)
    state = pc.IterateState(np.zeros((prob.p, prob.m)), np.zeros(prob.m))
    states, preds, warm = [], [], None
    for _ in range(config.max_iters):
        xi_k = xi_from_aggregates(state.a, state.lam, config.beta)
        pred = predict(prob, state, config.beta, config.inner_tol, warm_start=warm)
        warm = pred.x_tilde
        xi_t = xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, config.beta)
        states.append(xi_k)
        preds.append(xi_t)
        primal, compl = pc.feasibility_residual(prob, pred.a_tilde, pred.lambda_tilde)
        state = correct(state, pred, config.nu, config.beta)
        if max(primal, compl, float(np.linalg.norm(xi_k - xi_t))) <= config.tol:
            break
    states.append(xi_from_aggregates(state.a, state.lam, config.beta))
    return states, preds, pred


@pytest.mark.parametrize("variant", ["pd", "dp"])
@pytest.mark.parametrize("p", [1, 2, 3, 5, "nonneg"])
def test_run_matches_the_uncompiled_predict_loop(variant, p):
    # bit for bit: run's compiled plans and trusted states do the same
    # arithmetic as the public calls, at beta = 1 and beta != 1
    prob = nonneg_qp(5) if p == "nonneg" else pc.gen_eq_qp(p, [6] * p, 4, seed=p)[0]
    for beta in (1.0, 1.7):
        config = pc.SolverConfig(variant=variant, beta=beta, record_xi=True)
        result = pc.run(prob, config)
        states, preds, last = _hand_loop(prob, config)
        assert result.reason.kind == pc.CONVERGED
        assert len(result.log) == len(preds)
        for got, want in zip(result.log.xi_states + result.log.xi_preds, states + preds):
            assert np.array_equal(got, want)
        for got, want in zip(result.solution.x_tilde, last.x_tilde):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", ["pd", "dp"])
def test_run_calls_each_traced_name_once_per_iteration(monkeypatch, variant):
    # Benchmark tracers time these module globals by replacing them; a
    # run that stopped calling one through its global would read zero
    # there instead of failing.
    import pcadmm.predictor
    import pcadmm.solver

    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    names = ["predict_pd", "predict_dp", "correct_pd", "correct_dp"]
    names += ["feasibility_residual", "objective_value", "xi_from_aggregates"]
    for name in names:
        counting(pcadmm.solver, name)
    counting(pcadmm.predictor, "solve_block_subproblem")
    p, iters = 3, 4
    prob = pc.gen_eq_qp(p, [6] * p, 4, seed=p)[0]
    result = pc.run(prob, pc.SolverConfig(variant=variant, max_iters=iters))
    assert result.reason.kind == pc.MAX_ITERS and len(result.log) == iters
    assert calls == {
        f"predict_{variant}": iters,
        f"correct_{variant}": iters,
        "feasibility_residual": iters,
        "objective_value": iters,
        "xi_from_aggregates": 2 * iters,  # the state and the prediction
        "solve_block_subproblem": p * iters,
    }
