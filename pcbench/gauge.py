"""Fixed plain-numpy kernels that gauge the machine's speed during a run.

On a shared host the same code runs up to 40% slower for minutes at a
time, in wall time and CPU time alike, so runs a few minutes apart
disagree far more than the rounds inside one run.  Each workload
therefore carries a gauge: a fixed kernel doing the same kind of work at
the same sizes as its solves (dense normal-equation solves, projected-
gradient steps, closed-form vector updates, dense products), on inputs
drawn from a fixed seed.  It uses numpy alone and never calls
``pcadmm``, so a change to the program leaves it unmoved.

Each workload has two kernels, one like its plain solves and one like
its certified path.  ``run.py`` runs both after every timed step (a
set-up or an operation) and scales each step's time by ``ref_s / median``
of the matching kernel's samples within a few steps of it: seconds at
the speed the machine had when ``REF_S`` was measured.  A change that
makes the program slower moves the scaled time by the same share as the
raw one; a slow spell of the machine slows the kernel too and cancels.
The raw times are kept in the results file.
"""

from __future__ import annotations

import numpy as np


def _spd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.linspace(1.0, 3.0, n)) @ Q.T


def _exact(rng, n, m):
    """One exact block solve: form H + A'A, factor it, solve."""
    H, A, v = _spd(rng, n), rng.standard_normal((m, n)) / np.sqrt(n), rng.standard_normal(m)

    def step():
        S = H + A.T @ A
        np.linalg.cholesky(S)
        x = np.linalg.solve(S, A.T @ v)
        return A @ x

    return step


def _projected_gradient(rng, n, m, steps):
    """A projected-gradient block solve on the nonnegative orthant."""
    H, A, v, c = _spd(rng, n), rng.standard_normal((m, n)) / np.sqrt(n), rng.standard_normal(m), rng.standard_normal(n)

    def step():
        S = H + A.T @ A
        lip = float(np.linalg.eigvalsh(S)[-1])
        x = np.zeros(n)
        for _ in range(steps):
            grad = H @ x + c + A.T @ (A @ x - v)
            x_next = np.maximum(x - grad / lip, 0.0)
            float(np.linalg.norm(x - x_next))
            x = x_next
        return x

    return step


def _closed(rng, m, p):
    """One sweep of p ortho-scaled closed-form block updates on m-vectors,
    each with its dense m x m coupling matrix."""
    A = [si * np.eye(m) for si in rng.uniform(0.8, 1.2, p)]
    v, lo, hi = rng.standard_normal(m), -np.ones(m), np.ones(m)

    def step():
        a = v
        for Ai in A:
            u = (Ai.T @ a) / float(Ai[:, 0] @ Ai[:, 0])
            z = np.sign(u) * np.maximum(np.abs(u) - 0.5, 0.0)
            a = Ai @ np.clip(z, lo, hi) + v
        return a

    return step


def _dense_product(rng, k):
    """The dense ``M'(HM)`` product of the contraction certificate."""
    M, H = rng.standard_normal((k, k)), _spd(rng, k)

    def step():
        return M.T @ (H @ M)

    return step


def _parts(workload, rng):
    """The kernel's steps for the plain solves and for the certified
    path of a workload."""
    if workload == "qp-ladder":
        return [_exact(rng, 200, 80), _exact(rng, 400, 150)], [_exact(rng, 200, 80)] * 3
    if workload == "suites-small":
        small = [_exact(rng, 10, 5), _closed(rng, 10, 2), _projected_gradient(rng, 10, 5, 2)] * 12
        return small, small
    if workload == "audit-wide":
        return [_closed(rng, 200, 5)] * 10, [_closed(rng, 200, 5)] * 5 + [_dense_product(rng, 500)]
    if workload == "pg-nonneg":
        pg = [_projected_gradient(rng, 40, 16, 60)] * 5
        return pg, pg
    raise KeyError(workload)


# Median kernel times (plain, certified) per workload on a 2-vCPU x86-64
# host with one BLAS thread.  They only fix the unit of the scaled
# times; any constants would compare runs on one machine equally well.
REF_S = {
    "qp-ladder": (0.0080, 0.0034),
    "suites-small": (0.0016, 0.0016),
    "audit-wide": (0.0019, 0.0120),
    "pg-nonneg": (0.0048, 0.0048),
}


class Kernel:
    """A fixed kernel; calling it runs it once."""

    def __init__(self, parts, ref_s):
        self.parts, self.ref_s = parts, ref_s

    def __call__(self):
        for part in self.parts:
            part()


def kernels(workload):
    """The (plain, certified) kernels of a workload."""
    parts = _parts(workload, np.random.default_rng(0))
    plain, certified = (Kernel(p, ref) for p, ref in zip(parts, REF_S[workload]))
    if certified.parts is plain.parts and certified.ref_s == plain.ref_s:
        certified = plain
    return plain, certified
