"""
Machine-checked convergence certificates
========================================

Convergence of every solver variant reduces to properties of four small
matrices: a prediction weight Q, a correction matrix M, a metric H with
H M = Q, and a decrease matrix G = Q' + Q - M'HM that must be positive
definite.  This script verifies those conditions numerically across a
parameter sweep, then audits an actual run against the contraction
inequality

    ||xi^{k+1} - xi*||_H^2  <=  ||xi^k - xi*||_H^2 - ||xi^k - xi~^k||_G^2.
"""

import itertools

import numpy as np

import pcadmm as pc

# ----------------------------------------------------------------------------
# Condition sweep.  Entries of the factories are exact block templates,
# so H M = Q holds to machine precision.

print(f"{'variant':8} {'p':>2} {'m':>2} {'nu':>5} {'max|HM-Q|':>11} {'min eig G':>10}")
for variant, p, nu in itertools.product(("pd", "dp"), (1, 3), (0.25, 0.99)):
    rep = pc.verify_framework(variant, p, 2, nu)
    print(
        f"{variant:8} {p:>2} {2:>2} {nu:>5.2f} {rep.hm_eq_q_maxerr:>11.2e} "
        f"{rep.g_min_eig:>10.5f}  {'PASS' if rep.passed else 'FAIL'}"
    )

# For the multiplier-first variant the smallest eigenvalue of G is
# exactly 1 - nu: the certificate degrades as nu approaches 1, which is
# why nu stays strictly below 1 (0.99 in practice).
print("\nmultiplier-first min eig of G vs 1 - nu:")
for nu in (0.5, 0.9, 0.99):
    rep = pc.verify_framework("dp", 3, 2, nu)
    print(f"  nu={nu:4}: min eig G = {rep.g_min_eig:.6f}, 1 - nu = {1 - nu:.6f}")

# ----------------------------------------------------------------------------
# Contraction audit of a real run: with snapshots recorded, every
# iteration is checked against the inequality above.  An empty list
# certifies the trajectory.

problem, reference = pc.gen_eq_qp(p=3, block_dims=[10, 10, 10], m=5, seed=3)
config = pc.SolverConfig(variant="pd", record_xi=True)
result = pc.run(problem, config, reference=reference)
violations = pc.contraction_check(result.log, problem, config, reference)
print(f"\naudited {len(result.log.xi_preds)} iterations: {len(violations)} violations")

# Tampering with the correction breaks the certificate, which is how we
# know the audit has teeth: redo the run with a corrupted multiplier row
# and watch the violations appear.
from pcadmm.matrices import xi_from_aggregates
from pcadmm.solver import RunLog

state = pc.IterateState(tuple(np.zeros(5) for _ in range(3)), np.zeros(5))
log = RunLog()
plans = pc.compile_blocks(problem, config.beta)  # set up each block's solve once
for k in range(100):
    xi_k = xi_from_aggregates(state.a, state.lam, config.beta)
    pred = pc.predict_pd(problem, state, config.beta, config.inner_tol, plans=plans)
    log.xi_states.append(xi_k)
    log.xi_preds.append(xi_from_aggregates(pred.a_tilde, pred.lambda_tilde, config.beta))
    log.append(k, 0, 0, 0, None, 0)
    good = pc.correct_pd(state, pred, config.nu, config.beta)
    d1 = state.a[0] - pred.a_tilde[0]
    state = pc.IterateState(good.a, good.lam - 2 * config.nu * config.beta * d1)
log.xi_states.append(xi_from_aggregates(state.a, state.lam, config.beta))
bad = pc.contraction_check(log, problem, config, reference)
print(f"corrupted multiplier row: {len(bad)} violations in 100 iterations")
