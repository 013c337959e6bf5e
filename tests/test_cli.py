import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcadmm as pc
from pcadmm import cli, prox

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
# two strictly convex quadratics on the orthant, n_i = 12 and m = 5: the
# Newton solve of the pg route, on one well- and one ill-conditioned S
NONNEG_QP = Path(__file__).resolve().parent / "data" / "nonneg_qp.json"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pcadmm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    return proc


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


@pytest.fixture
def toy_problem_file(tmp_path):
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic([[1.0]], [0.0]), set=pc.Free(), A=[[1.0]]),),
        b=[1.0],
        sense=pc.EQ,
    )
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(pc.problem_to_json(prob)))
    return path


def test_solve_toy_converges(toy_problem_file, tmp_path):
    log = tmp_path / "run.csv"
    proc = run_cli("solve", "--problem", str(toy_problem_file), "--log", str(log))
    assert proc.returncode == 0, proc.stderr
    kv = parse_kv(proc.stdout)
    assert float(kv["primal_res"]) <= 1e-6
    assert kv["reason"] == "converged"
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "primal_res", "compl_res", "pred_gap", "dist_H", "objective"]
    assert len(rows) == int(kv["iters"]) + 1


def test_solve_rejects_nu_one(toy_problem_file):
    proc = run_cli("solve", "--problem", str(toy_problem_file), "--nu", "1.0")
    assert proc.returncode == 1
    assert "nu must lie in (0,1)" in proc.stderr


def test_solve_rejects_a_nan_tolerance(toy_problem_file):
    proc = run_cli("solve", "--problem", str(toy_problem_file), "--tol", "nan")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tol must be nonnegative and finite")
    assert proc.stdout == ""


def test_solve_missing_problem_flag():
    proc = run_cli("solve")
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


def test_solve_max_iters_exit_code(toy_problem_file):
    proc = run_cli("solve", "--problem", str(toy_problem_file), "--max-iters", "2")
    assert proc.returncode == 2
    kv = parse_kv(proc.stdout)
    assert kv["reason"] == "max_iters"
    assert kv["detail"] == "no convergence in 2 iterations"


def test_solve_non_finite_exit_code(tmp_path):
    # finite data whose residual norm overflows on the first iteration
    prob = pc.SeparableProblem(
        blocks=(pc.BlockSpec(theta=pc.Quadratic(np.eye(2), np.zeros(2)), set=pc.Free(), A=np.eye(2)),),
        b=[1e200, 1e200],
    )
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(pc.problem_to_json(prob)))
    proc = run_cli("solve", "--problem", str(path))
    assert proc.returncode == 1
    kv = parse_kv(proc.stdout)
    assert kv["reason"] == "non_finite" and kv["iters"] == "1"
    assert kv["detail"].startswith("iteration 0: primal_res=inf")


@pytest.mark.parametrize(
    "blocks",
    [
        # a non-convex block on the orthant fails to compile
        [
            {"A": [[0.1]], "theta": {"type": "quadratic", "H": [[-1.0]], "c": [0.1]}, "set": {"type": "nonneg"}},
            {"A": [[1.0]], "theta": {"type": "quadratic", "H": [[1.0]], "c": [0.0]}},
        ],
        # a singular exact block whose cholesky check passes on roundoff
        [{"A": [[1.0, 1.0], [1.0, 1.0]], "theta": {"type": "quadratic", "H": [[0.0, 0.0], [0.0, 0.0]], "c": [0.0, 0.0]}}],
    ],
    ids=["non-convex", "singular"],
)
def test_solve_reports_a_block_that_fails_before_the_first_iteration(blocks, tmp_path):
    path = tmp_path / "fail.json"
    path.write_text(json.dumps({"sense": "eq", "b": [0.0] * len(blocks[0]["A"]), "blocks": blocks}))
    proc = run_cli("solve", "--problem", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    kv = parse_kv(proc.stdout)
    assert kv["iters"] == "0" and kv["reason"] == "subproblem_failure"
    assert kv["detail"].startswith("block 0: normal matrix")
    assert "objective" not in kv


def test_solve_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sense": "eq", "b": [0.0], "blocks": [{"n": 1, "A": [[1.0]], "theta": {"type": "l1"}}]}))
    proc = run_cli("solve", "--problem", str(bad))
    assert proc.returncode == 1
    assert "tau" in proc.stderr


def test_solve_with_init_and_reference(toy_problem_file, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"x": [[1.0]], "lambda": [1.0]}))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"a": [[1.0]], "lambda": [1.0]}))
    proc = run_cli(
        "solve", "--problem", str(toy_problem_file), "--init", str(init), "--reference", str(ref)
    )
    assert proc.returncode == 0
    assert int(parse_kv(proc.stdout)["iters"]) <= 2


def test_verify_matrices_default_sweep():
    proc = run_cli("verify-matrices")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    data_rows = lines[1:]
    # both variants, p = 1..5, m in {1,2}, five nu values
    assert len(data_rows) == 100
    assert all("PASS" in row for row in data_rows)


def test_verify_matrices_checks_every_p_up_to_p_max():
    proc = run_cli("verify-matrices", "--p-max", "8")
    assert proc.returncode == 0
    data_rows = [ln for ln in proc.stdout.splitlines()[1:] if ln.strip()]
    assert len(data_rows) == 160 and all("PASS" in row for row in data_rows)
    assert sorted({int(row.split()[1]) for row in data_rows}) == list(range(1, 9))


def test_verify_matrices_filtered_sweep():
    proc = run_cli("verify-matrices", "--nu-list", "0.5", "--p-max", "2")
    assert proc.returncode == 0
    data_rows = [ln for ln in proc.stdout.splitlines()[1:] if ln.strip()]
    assert len(data_rows) == 8
    dp_row = next(r for r in data_rows if r.startswith("dp") and " 2  1" in r)
    fields = dp_row.split()
    assert float(fields[6]) == pytest.approx(0.5)  # min_eig_G = 1 - nu


@pytest.mark.parametrize("value", ["1.0", "0", "nan", "-1", "inf", "0.5,x"])
def test_verify_matrices_rejects_a_nu_outside_the_open_unit_interval(value):
    proc = run_cli("verify-matrices", "--nu-list", value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --nu-list")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args", [["--p-max", "0"], ["--m-max", "0"], ["--nu-list", ","], ["--nu-list", ""]])
def test_verify_matrices_rejects_an_empty_grid(args):
    proc = run_cli("verify-matrices", *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "no cases" in proc.stderr
    assert proc.stdout == ""


def test_bench_eq_qp(tmp_path):
    proc = run_cli("bench", "--suite", "eq-qp", "--seed", "7", "--log-dir", str(tmp_path / "logs"))
    assert proc.returncode == 0, proc.stderr
    kv = parse_kv(proc.stdout)
    assert kv["contraction_violations"] == "0"
    assert kv["all_converged"] == "True"
    runs = [ln for ln in proc.stdout.splitlines() if ln.startswith("run=")]
    assert len(runs) == 8
    assert all(" violations=0 first_violation=- " in ln for ln in runs)


def test_bench_reports_first_violation(monkeypatch, capsys):
    import pcadmm.cli

    monkeypatch.setattr(pcadmm.cli, "contraction_check", lambda log, problem, config, ref: [4, 9])
    assert pcadmm.cli.main(["bench", "--suite", "ineq-qp", "--seed", "3"]) == 1
    runs = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("run=")]
    assert runs and all(" violations=2 first_violation=4 " in ln for ln in runs)


def test_bench_unknown_suite():
    # an unknown and a missing --suite both end in argparse's message and usage line
    for args, message in ((["--suite", "nope"], "invalid choice: 'nope'"), ([], "required: --suite")):
        proc = run_cli("bench", *args)
        assert proc.returncode == 1
        assert message in proc.stderr and "usage: pcadmm bench" in proc.stderr and proc.stdout == ""


def test_bench_suite_choices_are_the_suite_table():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["bench"]._actions if a.dest == "suite")
    assert list(suite.choices) == list(cli._SUITES) == ["eq-qp", "ineq-qp", "lasso", "svm"]


def test_bench_deterministic_csv(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = run_cli("bench", "--suite", "ineq-qp", "--seed", "3", "--log-dir", str(d1))
    p2 = run_cli("bench", "--suite", "ineq-qp", "--seed", "3", "--log-dir", str(d2))
    assert p1.returncode == 0 and p2.returncode == 0
    names = sorted(f.name for f in d1.iterdir())
    assert names == sorted(f.name for f in d2.iterdir()) and names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert p1.stdout == p2.stdout


def test_bench_dump_round_trips(tmp_path):
    dump = tmp_path / "problems"
    proc = run_cli("bench", "--suite", "lasso", "--seed", "1", "--dump", str(dump))
    assert proc.returncode == 0
    files = sorted(dump.glob("*.json"))
    assert files
    for f in files:
        prob = pc.problem_from_json(json.loads(f.read_text()))
        assert pc.validate_problem(prob) == []


@pytest.mark.parametrize(
    "args, target",
    [
        (["solve", "--problem", "{problem}", "--log", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv"),
        (["bench", "--suite", "eq-qp", "--log-dir", "{problem}"], "{problem}"),
        (["bench", "--suite", "eq-qp", "--dump", "{problem}/x"], "{problem}/x"),
    ],
    ids=["solve-log", "bench-log-dir", "bench-dump"],
)
def test_an_unwritable_output_path_is_an_error(args, target, toy_problem_file, tmp_path):
    def fill(s):
        return s.format(problem=toy_problem_file, tmp=tmp_path)

    proc = run_cli(*map(fill, args))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {fill(target)} cannot be written: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "target",
    ["{tmp}/missing/x.csv", "{tmp}", "{problem}/x.csv"],
    ids=["missing-directory", "a-directory", "under-a-file"],
)
def test_solve_checks_its_log_path_before_it_solves(target, toy_problem_file, tmp_path, monkeypatch, capsys):
    import pcadmm.cli

    def no_run(*args, **kwargs):
        raise AssertionError("run was called before the log path was checked")

    monkeypatch.setattr(pcadmm.cli, "run", no_run)
    log = target.format(problem=toy_problem_file, tmp=tmp_path)
    assert pcadmm.cli.main(["solve", "--problem", str(toy_problem_file), "--log", log]) == 1
    assert capsys.readouterr().err.startswith(f"error: {log} cannot be written: ")


@pytest.mark.parametrize("flag, key", [("--init", "x"), ("--reference", "a")])
def test_solve_rejects_a_malformed_init_or_reference(toy_problem_file, tmp_path, flag, key):
    path = tmp_path / "start.json"
    for bad in (5, ["one"]):
        path.write_text(json.dumps({key: bad, "lambda": [1.0]}))
        proc = run_cli("solve", "--problem", str(toy_problem_file), flag, str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {flag[2:]} file has a malformed entry")
        assert "Traceback" not in proc.stderr


MALFORMED = {
    "tau-list": lambda d: d["blocks"][1]["theta"].update(tau=[1]),
    "tau-null": lambda d: d["blocks"][1]["theta"].update(tau=None),
    "set-int": lambda d: d["blocks"][1].update(set=5),
    "n-list": lambda d: d["blocks"][0].update(n=[1]),
    "n-infinite": lambda d: d["blocks"][0].update(n=float("inf")),
    "n-wrong": lambda d: d["blocks"][0].update(n=2),
    "m-list": lambda d: d.update(m=[1]),
    "theta-int": lambda d: d["blocks"][0].update(theta=5),
    "A-object": lambda d: d["blocks"][0].update(A={"rows": [[1.0]]}),
    "top-level-list": lambda d: [d],
    "block-int": lambda d: d.update(blocks=[5]),
    "c-string": lambda d: d["blocks"][0]["theta"].update(c="abc"),
    "b-null": lambda d: d.update(b=None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_solve_malformed_problem_file_is_an_error(name, tmp_path):
    data = {
        "m": 1,
        "sense": "eq",
        "b": [1.0],
        "blocks": [
            {"n": 1, "A": [[1.0]], "theta": {"type": "quadratic", "H": [[1.0]], "c": [0.0]}, "set": {"type": "free"}},
            {"n": 1, "A": [[1.0]], "theta": {"type": "l1", "tau": 0.5}, "set": {"type": "nonneg"}},
        ],
    }
    data = MALFORMED[name](data) or data
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli("solve", "--problem", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [None, b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000], ids=["directory", "not-utf8", "too-deep"])
def test_solve_unreadable_problem_file_is_an_error(content, tmp_path):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    proc = run_cli("solve", "--problem", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: problem file {path} ")
    assert "Traceback" not in proc.stderr


def test_solve_on_the_newton_route_writes_byte_identical_logs(tmp_path, monkeypatch, capsys):
    calls = []
    newton = prox._active_set_newton
    monkeypatch.setattr(prox, "_active_set_newton", lambda *args: calls.append(args) or newton(*args))
    logs, outs = [tmp_path / "a.csv", tmp_path / "b.csv"], []
    for log in logs:
        assert cli.main(["solve", "--problem", str(NONNEG_QP), "--log", str(log)]) == 0
        outs.append(capsys.readouterr().out)
    assert calls and parse_kv(outs[0])["reason"] == "converged"
    assert logs[0].read_bytes() == logs[1].read_bytes()
    assert outs[0] == outs[1]
