"""tools/compare_trees.py: the equivalence report between two source trees."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import compare_trees  # noqa: E402


def test_a_tree_compared_with_itself_is_equivalent():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), str(ROOT), str(ROOT), "--seeds", "1", "--workloads", "audit-wide"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    # 6 instances, plain and certified, pd and dp; every count agrees
    row = lines[2].split()
    assert row[:2] == ["audit-wide", "24"] and row[2] == row[3]
    assert row[4:] == ["0", "0", "0", "0.00e+00", "0.00e+00"]
    assert lines[-2:] == ["stop reasons (change): converged", "equivalent"]


def _run(iters=3, reason="converged", audit=(), objective=1.0, x=0.0):
    return iters, reason, list(audit), np.full(iters, objective), np.full(2, x)


@pytest.mark.parametrize(
    "changed, equivalent",
    [
        ({}, True),
        ({"objective": 1.0 + 1e-12, "x": 1e-9}, True),
        ({"objective": 1.0 + 1e-9}, False),
        ({"iters": 4}, False),
        ({"reason": "max_iters"}, False),
        ({"audit": [2]}, False),
    ],
)
def test_the_report_flags_each_kind_of_difference(changed, equivalent):
    key = ("pg-nonneg", 1, 0, "pd", True)
    lines, ok = compare_trees.report({key: _run()}, {key: _run(**changed)}, ["pg-nonneg"])
    assert ok is equivalent
    assert (lines[-1] == "equivalent") if equivalent else lines[-1].startswith("NOT equivalent")
