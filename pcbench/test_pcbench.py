"""Tests of the benchmark's own parts: the planted optima, the checks
that compare a solve against them, and the tracer.

Run from the repository root with ``python -m pytest pcbench``.
"""

import json

import numpy as np
import pytest

import layers
import workloads

KKT_TOL = 1e-9


def _kkt_defects(inst):
    """Violations of the KKT conditions at the planted point, in plain numpy.

    Block i must satisfy  A_i' lam - grad(smooth part)  in
    tau * d|x| + N_X(x)  componentwise; the coupling rows must be
    feasible, and for the ``>=`` sense lam >= 0 with lam_j r_j = 0.
    """
    data, lam = inst.data, np.asarray(inst.lam)
    out = []
    r = -np.asarray(data["b"])
    total = 0.0
    for i, (blk, x) in enumerate(zip(data["blocks"], inst.x)):
        A = np.asarray(blk["A"])
        r = r + A @ x
        th, st = blk["theta"], blk["set"]
        grad = np.zeros_like(x)
        tau = 0.0
        if th["type"] == "quadratic":
            H, c = np.asarray(th["H"]), np.asarray(th["c"])
            grad = H @ x + c
            total += 0.5 * x @ H @ x + c @ x
        elif th["type"] == "l1":
            tau = th["tau"]
            total += tau * np.abs(x).sum()
        d = A.T @ lam - grad
        # The l1 subdifferential plus the normal cone is an interval [lo, hi].
        lo = np.where(x > 0, tau, -tau)
        hi = np.where(x < 0, -tau, tau)
        if st["type"] == "nonneg":
            if np.any(x < 0):
                out.append(f"block {i}: x leaves the orthant")
            lo = np.where(x == 0, -np.inf, lo)
        elif st["type"] == "box":
            blo, bhi = np.asarray(st["lo"]), np.asarray(st["hi"])
            if np.any(x < blo) or np.any(x > bhi):
                out.append(f"block {i}: x leaves the box")
            lo = np.where(x == blo, -np.inf, lo)
            hi = np.where(x == bhi, np.inf, hi)
        if np.any(d < lo - KKT_TOL) or np.any(d > hi + KKT_TOL):
            out.append(f"block {i}: not stationary")
    scale = 1.0 + np.abs(np.asarray(data["b"])).max()
    if data["sense"] == "eq":
        if np.abs(r).max() > KKT_TOL * scale:
            out.append("coupling rows infeasible")
    else:
        if r.min() < -KKT_TOL * scale:
            out.append("coupling rows infeasible")
        if lam.min() < 0:
            out.append("negative multiplier on a >= row")
        if np.abs(lam * r).max() > KKT_TOL * scale:
            out.append("complementarity fails")
    if abs(total - inst.objective) > KKT_TOL * (1.0 + abs(total)):
        out.append("planted objective is not the objective at x*")
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_points_satisfy_kkt(name):
    for seed in (0, 1):
        for case in workloads.WORKLOADS[name](seed):
            assert _kkt_defects(case.inst) == [], case.inst.name


def test_kkt_check_rejects_a_moved_point():
    inst = workloads.suites_small(0)[0].inst
    moved = type(inst)(inst.name, inst.data, tuple(x + 0.01 for x in inst.x), inst.lam, inst.objective)
    assert _kkt_defects(moved)


def test_inputs_come_from_the_seed():
    first = json.dumps([c.inst.data for c in workloads.pg_nonneg(5)])
    again = json.dumps([c.inst.data for c in workloads.pg_nonneg(5)])
    other = json.dumps([c.inst.data for c in workloads.pg_nonneg(6)])
    assert first == again
    assert first != other


def test_checks_pass_a_solve_and_fail_a_wrong_answer():
    import dataclasses

    import run as bench
    from pcadmm import SolverConfig, problem_from_json, run

    inst = workloads.suites_small(0)[2].inst
    checked = bench.Instance(workloads.Case(inst, True))
    result = run(problem_from_json(inst.data), SolverConfig())
    assert checked.check(result, []) == []
    assert checked.check(result, [3])  # a contraction violation fails the op
    moved = dataclasses.replace(result.solution, x_tilde=tuple(1.01 * x for x in result.solution.x_tilde))
    assert checked.check(result._replace(solution=moved), [])


def test_a_small_bias_in_the_block_solves_fails_qp_ladder(monkeypatch):
    """A bias of 1e-4 per coordinate moves x by about 1e-3 while the
    solve still converges with the residuals and the objective in
    tolerance; only the distance to the planted optimum catches it."""
    import pcadmm.predictor
    import run as bench
    from pcadmm import SolverConfig, problem_from_json, run

    case = workloads.qp_ladder(0)[0]  # p=1, n_i=200, m=80
    checked = bench.Instance(case)
    problem = problem_from_json(case.inst.data)
    assert checked.check(run(problem, SolverConfig()), []) == []

    exact = pcadmm.predictor.solve_block_subproblem

    def biased(req, inner_tol, x0=None):
        x, _ = exact(req, inner_tol, x0=x0)
        x = x + 1e-4
        return x, req.A @ x

    monkeypatch.setattr(pcadmm.predictor, "solve_block_subproblem", biased)
    result = run(problem, SolverConfig())
    assert result.reason.kind == "converged"
    failures = checked.check(result, [])
    assert failures and all("off the planted optimum" in f and "objective" not in f for f in failures)


def test_traced_pass_survives_missing_names_and_restores_originals():
    import pcadmm.solver
    from pcadmm import SolverConfig, contraction_check, problem_from_json

    original_run = pcadmm.solver.run
    gone = (("pcadmm.predictor", "predict_merged", "predictor"), ("pcadmm.no_such_module", "f", "x"))
    tracer = layers.Tracer(layers.TARGETS + gone)
    lasso = next(c.inst for c in workloads.suites_small(0) if c.inst.name.startswith("lasso"))
    problem = problem_from_json(lasso.data)
    tracer.install()
    try:
        for variant in ("pd", "dp"):
            cfg = SolverConfig(variant=variant, record_xi=True)
            result = pcadmm.solver.run(problem, cfg, reference=(lasso.a, lasso.lam))
            assert result.reason.kind == "converged"
            assert pcadmm.solver.contraction_check(result.log, problem, cfg, (lasso.a, lasso.lam)) == []
    finally:
        tracer.uninstall()
    assert pcadmm.solver.run is original_run
    assert contraction_check is pcadmm.solver.contraction_check
    assert tracer.absent == ["pcadmm.predictor.predict_merged", "pcadmm.no_such_module.f"]
    m = tracer.layer_metrics()
    # Block 1 of the lasso split is quadratic on a free set, block 2 an
    # ortho-scaled l1 atom: one exact and one closed-form solve per sweep.
    assert m["predictor.calls"] == m["prox.exact.calls"] == m["prox.closed.calls"] > 0
    assert m["prox.pg.calls"] == 0
    assert m["corrector.calls"] == m["predictor.calls"]
    assert tracer.stats["matrices.build"].nbytes > 0


def test_times_are_scaled_by_the_nearby_gauge_samples():
    """A step's time is divided by the median of the gauge samples within
    GAUGE_WINDOW steps of it, so a slow spell of the machine cancels."""
    import argparse

    import gauge
    import run as bench

    for name in workloads.WORKLOADS:
        for kernel in gauge.kernels(name):
            kernel()
    b = bench.Bench(argparse.Namespace(workload="pg-nonneg", seed=0))
    slow = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    b.gauge_times = {False: slow, True: slow}
    ref = b.gauges[False].ref_s
    assert bench.GAUGE_WINDOW == 2
    assert b.scaled(False, 3.0, 0) == pytest.approx(3.0 * ref)
    assert b.scaled(False, 3.0, 7) == pytest.approx(1.5 * ref)
