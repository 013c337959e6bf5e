"""The four benchmark workloads, each a seeded list of planted instances.

Every instance is solved in both update orders (``pd`` and ``dp``).  A
case marked ``certify`` is also run through the certified path: a run
with the planted reference and ``record_xi=True``, then
``contraction_check``.  Instance ``k`` of a workload draws from
``SeedSequence([seed, workload id, k])``, so the same seed always gives
the same inputs and no two instances share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import planted


@dataclass(frozen=True)
class Case:
    inst: planted.Planted
    certify: bool


def _rngs(seed, workload_id):
    k = 0
    while True:
        yield np.random.default_rng(np.random.SeedSequence([seed, workload_id, k]))
        k += 1


def qp_ladder(seed):
    """Equality QPs on the size ladder; dense factorizations dominate.
    The widest p=5 rung is certified."""
    rngs = _rngs(seed, 1)
    shapes = [(1, 200, 80), (2, 200, 80), (3, 200, 80), (5, 200, 80), (2, 400, 150)]
    return [
        Case(planted.quadratic_qp(next(rngs), p, n, m, "eq", name=f"eq-p{p}-n{n}-m{m}"), certify=p == 5)
        for p, n, m in shapes
    ]


def suites_small(seed):
    """Acceptance-size instances (n_i=10, m=5), six of each kind;
    per-call overhead dominates."""
    rngs = _rngs(seed, 2)
    cases = []
    for r in range(6):
        for p in (1, 2, 3, 5):
            for sense in ("eq", "ge"):
                cases.append(Case(planted.quadratic_qp(next(rngs), p, 10, 5, sense, name=f"{sense}-p{p}-{r}"), True))
        cases.append(Case(planted.lasso_split(next(rngs), 10, name=f"lasso-{r}"), True))
        cases.append(Case(planted.svm(next(rngs), 10, 5, name=f"svm-{r}"), True))
    return cases


def audit_wide(seed):
    """p=5 ortho-scaled blocks, closed-form route; every solve certified,
    so the dense certificate matrices dominate."""
    rngs = _rngs(seed, 3)
    return [Case(planted.ortho_wide(next(rngs), m, name=f"wide-m{m}"), True) for m in range(100, 201, 20)]


def pg_nonneg(seed):
    """Strictly convex blocks on the nonnegative orthant with general A_i;
    the only workload on the projected-gradient route.  Larger blocks
    than the acceptance size keep the iteration totals steady from seed
    to seed at the same cost."""
    rngs = _rngs(seed, 4)
    return [
        Case(planted.quadratic_qp(next(rngs), 2, n, m, sense, "nonneg", name=f"nn-{sense}-n{n}-m{m}"), True)
        for n, m in ((48, 20), (40, 16), (32, 12))
        for sense in ("eq", "ge")
    ]


# Times each plain solve runs in one round where the certified path
# takes most of the round, so the short plain solves get enough samples
# for a steady median.
PLAIN_REPEATS = {"audit-wide": 3}

WORKLOADS = {
    "qp-ladder": qp_ladder,
    "suites-small": suites_small,
    "audit-wide": audit_wide,
    "pg-nonneg": pg_nonneg,
}
