"""Command-line front end.

Subcommands:

* ``solve``            run one solve on a JSON problem file, emit a CSV log
* ``verify-matrices``  sweep the convergence-condition checks, print a table
* ``bench``            run a generated benchmark suite with contraction audits

Summaries go to stdout as ``key=value`` lines; per-iteration histories
go to CSV files.  Exit codes: 0 success/converged, 2 iteration limit,
1 any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from .matrices import verify_framework
from .model import _VARIANTS, SolverConfig, problem_from_json, problem_to_json
from .problems import active_set_oracle, gen_eq_qp, gen_ineq_qp, gen_lasso, gen_toy_svm
from .solver import CONVERGED, MAX_ITERS, contraction_check, run

__all__ = ["main", "cmd_solve", "cmd_verify_matrices", "cmd_bench"]

DEFAULT_P_LIST = (1, 2, 3, 5)
DEFAULT_NU_LIST = (0.01, 0.25, 0.5, 0.75, 0.99)
# The SolverConfig fields that `solve` takes as flags, with their defaults.
_SOLVE_FIELDS = [f for f in dataclasses.fields(SolverConfig) if f.name != "record_xi"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything
    # through CliError instead so 2 stays reserved for the iteration
    # limit.
    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage()}".rstrip())


def _build_parser():
    parser = _Parser(prog="pcadmm", description=__doc__)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers()

    ps = sub.add_parser("solve", help="solve a problem from a JSON file")
    ps.add_argument("--problem", help="path to the problem JSON file")
    for f in _SOLVE_FIELDS:
        extra = {"choices": _VARIANTS} if f.name == "variant" else {}
        ps.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default, **extra)
    ps.add_argument("--log", help="path for the per-iteration CSV log")
    ps.add_argument("--reference", help="JSON file with keys 'a' and 'lambda'")
    ps.add_argument("--init", help="JSON file with keys 'x' and 'lambda'")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify-matrices", help="check the convergence conditions")
    pv.add_argument("--p-max", type=int, default=5)
    pv.add_argument("--m-max", type=int, default=2)
    pv.add_argument("--nu-list", default=",".join(str(v) for v in DEFAULT_NU_LIST))
    pv.set_defaults(func=cmd_verify_matrices)

    pb = sub.add_parser("bench", help="run a benchmark suite")
    pb.add_argument("--suite", choices=["eq-qp", "ineq-qp", "lasso", "svm"])
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--log-dir", help="write one CSV log per run into this directory")
    pb.add_argument("--dump", help="write the generated problems as JSON into this directory")
    pb.set_defaults(func=cmd_bench)
    return parser


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"{what} file {path} cannot be read: {e.strerror}")
    except (ValueError, RecursionError) as e:
        raise CliError(f"{what} file {path} is not valid JSON: {e}")


def _load_pair(path, what, key):
    """The arrays under ``key`` and the 'lambda' array of a JSON file."""
    data = _load_json(path, what)
    try:
        return [np.asarray(v, dtype=float) for v in data[key]], np.asarray(data["lambda"], dtype=float)
    except KeyError as e:
        raise CliError(f"{what} file is missing key {e}")
    except (TypeError, ValueError) as e:
        raise CliError(f"{what} file has a malformed entry: {e}")


def _check_writable(path):
    """Raise the OSError that writing ``path`` would raise, before any
    work is done: its directory must exist and be writable, and ``path``
    must not be a directory."""
    p = Path(path)
    if p.is_dir():
        code = errno.EISDIR
    elif not p.parent.is_dir():
        code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
    elif not os.access(p.parent, os.W_OK) or (p.exists() and not os.access(p, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def cmd_solve(args) -> int:
    if not args.problem:
        raise CliError("missing --problem\nusage: pcadmm solve --problem FILE [options]")
    try:
        problem = problem_from_json(_load_json(args.problem, "problem"))
        config = SolverConfig(**{f.name: getattr(args, f.name) for f in _SOLVE_FIELDS})
    except ValueError as e:
        raise CliError(str(e))

    init = _load_pair(args.init, "init", "x") if args.init else None
    reference = _load_pair(args.reference, "reference", "a") if args.reference else None
    if args.log:
        _check_writable(args.log)

    try:
        result = run(problem, config, init=init, reference=reference)
    except ValueError as e:
        raise CliError(str(e))
    if args.log:
        result.log.to_csv(args.log)

    log = result.log
    if len(log):  # empty when a block failed before the first iteration
        for name in ("objective", "primal_res", "compl_res", "pred_gap"):
            print(f"{name}={getattr(log, name)[-1]!r}")
    print(f"iters={len(log)}")
    print(f"reason={result.reason.kind}")
    if result.reason.detail:
        print(f"detail={result.reason.detail}")
    if result.reason.kind == CONVERGED:
        return 0
    if result.reason.kind == MAX_ITERS:
        return 2
    return 1


def cmd_verify_matrices(args) -> int:
    try:
        nus = [float(s) for s in args.nu_list.split(",") if s]
    except ValueError:
        raise CliError(f"--nu-list must be comma-separated floats, got {args.nu_list!r}")
    outside = [nu for nu in nus if not 0.0 < nu < 1.0]
    if outside:
        raise CliError(f"--nu-list values must lie in (0,1), got {outside[0]!r}")
    p_list = [p for p in DEFAULT_P_LIST if p <= args.p_max]
    m_list = list(range(1, args.m_max + 1))
    if not (nus and p_list and m_list):
        raise CliError(f"the grid has no cases: --p-max {args.p_max}, --m-max {args.m_max}, --nu-list {args.nu_list!r}")
    header = f"{'variant':8} {'p':>2} {'m':>2} {'nu':>5} {'max|HM-Q|':>12} {'min_eig_H':>12} {'min_eig_G':>12} {'min_eig_QtQ':>12} {'status':>7}"
    print(header)
    all_pass = True
    for variant in _VARIANTS:
        for p in p_list:
            for m in m_list:
                for nu in nus:
                    rep = verify_framework(variant, p, m, nu)
                    status = "PASS" if rep.passed else "FAIL"
                    all_pass &= rep.passed
                    print(
                        f"{variant:8} {p:>2} {m:>2} {nu:>5.2f} "
                        f"{rep.hm_eq_q_maxerr:>12.3e} {rep.h_min_eig:>12.5f} "
                        f"{rep.g_min_eig:>12.5f} {rep.qtq_min_eig:>12.5f} {status:>7}"
                    )
    return 0 if all_pass else 1


def _bench_instances(suite, seed):
    """(name, problem, reference) triples for one suite."""
    out = []
    if suite == "eq-qp":
        for i in range(3):
            problem, ref = gen_eq_qp(2, [10, 10], 5, seed + i)
            out.append((f"eq-qp-p2-{i}", problem, ref))
        problem, ref = gen_eq_qp(3, [8, 8, 8], 5, seed + 100)
        out.append(("eq-qp-p3-0", problem, ref))
    elif suite == "ineq-qp":
        for i in range(4):
            problem, ref = gen_ineq_qp(2, [6, 6], 3, seed + i)
            out.append((f"ineq-qp-{i}", problem, ref))
    elif suite == "lasso":
        for i in range(3):
            problem, ref = gen_lasso(20, 40, 0.5, seed + i)
            out.append((f"lasso-{i}", problem, ref))
    elif suite == "svm":
        for i in range(2):
            problem = gen_toy_svm(3, seed=seed + i)
            out.append((f"svm-{i}", problem, active_set_oracle(problem)))
    else:
        raise CliError(f"unknown suite {suite!r}")
    return out


def cmd_bench(args) -> int:
    if not args.suite:
        raise CliError("missing --suite\nusage: pcadmm bench --suite NAME [--seed N]")
    try:
        instances = _bench_instances(args.suite, args.seed)
    except (ValueError, RuntimeError) as e:
        raise CliError(f"could not generate suite {args.suite!r}: {e}")
    if args.dump:
        dump_dir = Path(args.dump)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for name, problem, _ in instances:
            with open(dump_dir / f"{name}.json", "w") as fh:
                json.dump(problem_to_json(problem), fh)
    log_dir = Path(args.log_dir) if args.log_dir else None
    if log_dir:
        log_dir.mkdir(parents=True, exist_ok=True)

    total_violations = 0
    all_converged = True
    for name, problem, ref in instances:
        for variant in _VARIANTS:
            config = SolverConfig(variant=variant, record_xi=True)
            result = run(problem, config, reference=ref)
            violations = contraction_check(result.log, problem, config, ref)
            total_violations += len(violations)
            converged = result.reason.kind == CONVERGED
            all_converged &= converged
            if log_dir:
                result.log.to_csv(log_dir / f"{name}-{variant}.csv")
            print(
                f"run={name}-{variant} iters={len(result.log)} "
                f"reason={result.reason.kind} violations={len(violations)} "
                f"first_violation={violations[0] if violations else '-'} "
                f"primal_res={result.log.primal_res[-1]!r} "
                f"compl_res={result.log.compl_res[-1]!r}"
            )
    print(f"runs={len(_VARIANTS) * len(instances)}")
    print(f"all_converged={all_converged}")
    print(f"contraction_violations={total_violations}")
    return 0 if all_converged and total_violations == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            raise CliError(parser.format_usage().rstrip())
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # reads fail earlier, as CliError: this is a --log, --log-dir or --dump write
        print(f"error: {e.filename or 'output'} cannot be written: {e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
