"""Equivalence report between two source trees on the benchmark's runs.

Usage (from the repository root):

    python3 tools/compare_trees.py PARENT CHANGE [--seeds 1 2] [--workloads W ...]

PARENT and CHANGE are checkouts of the repository.  For each tree, a
child process imports that tree's ``src/pcadmm`` and its
``pcbench/workloads.py`` and runs every operation of ``pcbench/run.py``
once per seed: each instance plain in both variants, and each certified
instance with its planted reference and ``record_xi=True``, then
``contraction_check``, at ``pcbench/run.py``'s tolerance.  Seeds 1-2
over the four workloads make 600 runs.
Nothing under ``pcbench/`` is edited or timed.

Per workload it prints the runs, the summed iteration counts of both
trees, how many runs differ in iteration count, stop reason or
``contraction_check`` list, the largest relative difference of a logged
objective row, and the largest absolute difference of x~.  The exit
status is 0 when iteration counts, stop reasons and audit lists are
identical and objective rows agree within 1e-10 relative, else 1.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("qp-ladder", "suites-small", "audit-wide", "pg-nonneg")
OBJECTIVE_RTOL = 1e-10


def _collect(tree, workloads, seeds):
    """Every operation's outcome in ``tree``, keyed by (workload, seed,
    instance, variant, certified)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "pcbench")]
    import numpy as np
    import run as pcbench_run
    import workloads as pcbench_workloads
    from pcadmm import model, solver

    out = {}
    for workload in workloads:
        for seed in seeds:
            for k, case in enumerate(pcbench_workloads.WORKLOADS[workload](seed)):
                inst = case.inst
                problem = model.problem_from_json(inst.data)
                for certified in (False, True) if case.certify else (False,):
                    for variant in ("pd", "dp"):
                        config = model.SolverConfig(variant=variant, tol=pcbench_run.TOL, record_xi=certified)
                        reference = (inst.a, inst.lam) if certified else None
                        result = solver.run(problem, config, reference=reference)
                        audit = solver.contraction_check(result.log, problem, config, reference) if certified else None
                        x = None if result.solution is None else np.concatenate(result.solution.x_tilde)
                        out[workload, seed, k, variant, certified] = (
                            len(result.log), result.reason.kind, audit, np.array(result.log.objective), x
                        )
    return out


def _run_tree(tree, workloads, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.pickle"
        # one BLAS thread, as pcbench/run.py pins it
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        cmd = [sys.executable, __file__, "--collect", str(tree), str(path), "--seeds", *map(str, seeds)]
        subprocess.run([*cmd, "--workloads", *workloads], check=True, env=env)
        with open(path, "rb") as fh:
            return pickle.load(fh)


def _relative(a, b):
    import numpy as np

    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(np.where(diff == 0, 0.0, diff / np.where(scale > 0, scale, 1.0)), initial=0.0))


def report(parent, change, workloads):
    """The report lines and whether the trees are equivalent."""
    import numpy as np

    lines = [
        f"{'workload':<13} {'runs':>5} {'iters parent':>12} {'iters change':>12} {'iters diff':>10} "
        f"{'reason diff':>11} {'audit diff':>10} {'max rel obj':>11} {'max |dx~|':>10}"
    ]
    ok = parent.keys() == change.keys()
    for workload in workloads:
        keys = [key for key in parent if key[0] == workload and key in change]
        iters_diff = reason_diff = audit_diff = 0
        obj = dx = 0.0
        for key in keys:
            (n0, r0, a0, o0, x0), (n1, r1, a1, o1, x1) = parent[key], change[key]
            iters_diff += n0 != n1
            reason_diff += r0 != r1
            audit_diff += a0 != a1
            rows = min(n0, n1)
            obj = max(obj, _relative(o0[:rows], o1[:rows]))
            if x0 is not None and x1 is not None:
                dx = max(dx, float(np.max(np.abs(x0 - x1), initial=0.0)))
        ok = ok and not (iters_diff or reason_diff or audit_diff) and obj <= OBJECTIVE_RTOL
        lines.append(
            f"{workload:<13} {len(keys):>5} {sum(parent[k][0] for k in keys):>12} {sum(change[k][0] for k in keys):>12} "
            f"{iters_diff:>10} {reason_diff:>11} {audit_diff:>10} {obj:>11.2e} {dx:>10.2e}"
        )
    reasons = sorted({v[1] for v in change.values()})
    lines.append(f"stop reasons (change): {', '.join(reasons)}")
    lines.append("equivalent" if ok else f"NOT equivalent (objective rows must agree within {OBJECTIVE_RTOL:g} relative)")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:  # child process: PARENT is the tree, CHANGE the output file
        runs = _collect(args.parent.resolve(), args.workloads, args.seeds)
        with open(args.change, "wb") as fh:
            pickle.dump(runs, fh)
        return 0
    for tree in (args.parent, args.change):
        if not (tree / "src" / "pcadmm" / "__init__.py").is_file() or not (tree / "pcbench" / "workloads.py").is_file():
            print(f"error: {tree} is not a checkout with src/pcadmm and pcbench/workloads.py", file=sys.stderr)
            return 2
    parent = _run_tree(args.parent.resolve(), args.workloads, args.seeds)
    change = _run_tree(args.change.resolve(), args.workloads, args.seeds)
    lines, ok = report(parent, change, args.workloads)
    print(f"parent {args.parent}, change {args.change}, seeds {' '.join(map(str, args.seeds))}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
