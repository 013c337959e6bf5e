"""Benchmark of the pcadmm solver on seeded inputs with planted optima.

Usage (from the repository root):

    python3 pcbench/run.py --workload qp-ladder --seed 1 --seconds 24 --trace 0

It generates the workload's instances from ``--seed`` (see
``workloads.py``), turns them into validated problems through the JSON
schema ``pcadmm solve`` reads, and then repeats whole rounds of
operations for ``--seconds`` seconds.  One operation is one plain solve
(``run`` without a reference) or one certified run (``run`` with the
planted reference and ``record_xi=True``, then ``contraction_check``).
Every operation is checked against the planted optimum; a failed check
counts the operation as failed and makes the exit code 1.

With ``--trace 0`` the end-to-end metrics are reported, their times
scaled to a reference machine speed by the workload's gauge kernels
(``gauge.py``); with
``--trace 1`` the rounds alternate between untraced and traced, and the
per-layer metrics of the traced rounds are reported together with the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results and the aggregated span tree go to ``pcbench/results/``.
"""

import os

# One BLAS thread: on a small machine a threaded BLAS burns twice the CPU
# for no wall-time gain and makes single solves far noisier.  This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gauge  # noqa: E402
import planted  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Solver settings shared by every operation: the library defaults.
TOL = 1e-6
# Objective tolerance in units of TOL.  At a point whose residuals and
# prediction gap are below TOL, the objective can differ from the
# optimum by about TOL times the size of the objective and the
# multiplier; the largest error seen on these workloads is 3.5% of the
# resulting tolerance.
OBJ_TOL_FACTOR = 10.0


def _distance_bounds():
    """Bounds on ``||x~ - x*||`` and ``||lam~ - lam*||`` at a converged
    point, from TOL, the widest problem of any workload (p = 5 blocks)
    and the spectra ``planted.py`` fixes: eigenvalues of each quadratic
    block in [h_min, h_max], singular values of each coupling matrix in
    [s_min, s_max].

    With ``beta = 1`` the stopping rule bounds the primal residual r and
    the prediction gap by TOL.  Block i of the sweep is stationary up to
    ``A_i'`` times r (the multiplier step of ``pd``) plus the aggregate
    moves of blocks 1..i, so the dual residual d of the whole point has
    ``||d|| <= D = sqrt(p) s_max (1 + sqrt(p)) TOL``.  On the optimum's
    active face the KKT system then has ``H >= h_min`` and a stacked
    coupling ``A`` with ``||A|| <= sqrt(p) s_max`` and
    ``A H^-1 A' >= p s_min^2 / h_max``, which gives the two bounds
    below.  Both grow with p, so p = 5 covers the narrower problems
    too.  The separable, split and SVM shapes fall outside this
    argument, since some of their blocks are linear; near the optimum
    their coordinates at a bound or a kink are pinned exactly, and the
    distances seen on them are smaller than on the quadratic shapes.
    """
    p, h_min, h_max, s_min, s_max = 5, 1.0, 3.0, 0.5, 1.5
    norm_a = np.sqrt(p) * s_max
    d = norm_a * (1.0 + np.sqrt(p)) * TOL
    lam = h_max / (p * s_min**2) * (norm_a * d / h_min + TOL)
    return (d + norm_a * lam) / h_min, lam


# About 312 TOL for x and 90 TOL for lam.  The largest distances seen
# over seeds 1-10 are 3.4 TOL and 8.8 TOL.
X_TOL, LAM_TOL = _distance_bounds()

# Setup is timed for at least SETUP_REPS repetitions and SETUP_S seconds
# before the first round and again after every round, so that its median
# samples the machine across the whole run rather than in one moment.
SETUP_REPS = 3
SETUP_S = 0.2
# Each step's time is scaled by the median of the gauge samples taken
# within this many steps of it, so it follows the machine's speed
# while it is timed.
GAUGE_WINDOW = 2
MB = 1e6


def _parse(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


@dataclass(frozen=True)
class Op:
    index: int  # instance index within the workload
    variant: str
    certified: bool


class Instance:
    """A planted case with the plain numpy arrays its checks use."""

    def __init__(self, case):
        self.case = case
        inst = case.inst
        self.optimum = inst
        self.reference = (inst.a, inst.lam)
        self.blocks = inst.data["blocks"]
        self.A = [np.asarray(blk["A"], dtype=float) for blk in self.blocks]
        self.b = np.asarray(inst.data["b"], dtype=float)
        self.sense = inst.data["sense"]
        self.obj_tol = OBJ_TOL_FACTOR * TOL * (1.0 + abs(inst.objective) + float(np.abs(inst.lam).sum()))

    def check(self, result, violations):
        """Failure messages for one operation; empty when it passed."""
        bad = []
        if result.reason.kind != "converged":
            return [f"stopped with {result.reason}"]
        x = [np.asarray(xi, dtype=float) for xi in result.solution.x_tilde]
        lam = np.asarray(result.solution.lambda_tilde, dtype=float)
        for i, (blk, xi) in enumerate(zip(self.blocks, x)):
            st = blk["set"]
            if st["type"] == "nonneg" and np.any(xi < 0):
                bad.append(f"block {i} leaves the nonnegative orthant")
            if st["type"] == "box" and (np.any(xi < np.asarray(st["lo"])) or np.any(xi > np.asarray(st["hi"]))):
                bad.append(f"block {i} leaves its box")
        r = sum(A @ xi for A, xi in zip(self.A, x)) - self.b
        if self.sense == "eq":
            primal, compl = float(np.linalg.norm(r)), 0.0
        else:
            primal = float(np.linalg.norm(np.minimum(r, 0.0)))
            compl = max(abs(float(lam @ r)), float(np.linalg.norm(np.minimum(lam, 0.0))))
        # The stopping rule bounds both by TOL; 1% covers the roundoff of
        # recomputing them here.
        if primal > 1.01 * TOL:
            bad.append(f"primal residual {primal:.3e} above {TOL:g}")
        if compl > 1.01 * TOL:
            bad.append(f"complementarity residual {compl:.3e} above {TOL:g}")
        dx = float(np.sqrt(sum(np.sum((xi - xs) ** 2) for xi, xs in zip(x, self.optimum.x))))
        if dx > X_TOL:
            bad.append(f"x off the planted optimum by {dx:.3e} (bound {X_TOL:.3e})")
        dlam = float(np.linalg.norm(lam - self.optimum.lam))
        if dlam > LAM_TOL:
            bad.append(f"multiplier off the planted optimum by {dlam:.3e} (bound {LAM_TOL:.3e})")
        err = abs(planted.objective(self.blocks, x) - self.optimum.objective)
        if err > self.obj_tol:
            bad.append(f"objective off the planted optimum by {err:.3e} (tolerance {self.obj_tol:.3e})")
        if violations:
            bad.append(f"{len(violations)} contraction violations, first at iteration {violations[0]}")
        return bad


class Bench:
    def __init__(self, args):
        import workloads
        from pcadmm import model, solver

        self.model, self.solver = model, solver
        cases = workloads.WORKLOADS[args.workload](args.seed)
        self.instances = [Instance(c) for c in cases]
        self.ops = [
            Op(i, v, certified)
            for certified in (False, True)
            for i, inst in enumerate(self.instances)
            if not certified or inst.case.certify
            for v in ("pd", "dp")
        ]
        self.plain_repeats = workloads.PLAIN_REPEATS.get(args.workload, 1)
        self.problems = None
        self.gauges = dict(zip((False, True), gauge.kernels(args.workload)))
        self.gauge_times = {False: [], True: []}
        self.setup_times, self.setup_marks = [], []
        self.attempted = 0
        self.failures = []

    # -- set-up ---------------------------------------------------------

    def setup_once(self):
        problems = []
        for inst in self.instances:
            problem = self.model.problem_from_json(inst.optimum.data)
            errors = self.model.validate_problem(problem)
            if errors:
                raise ValueError(f"{inst.optimum.name}: " + "; ".join(errors))
            problems.append(problem)
        return problems

    def setup(self):
        """Time turning every input into a validated problem, adding the
        wall times to ``self.setup_times`` and their gauge marks to
        ``self.setup_marks``."""
        start = time.perf_counter()
        reps = 0
        while reps < SETUP_REPS or time.perf_counter() - start < SETUP_S:
            t0 = time.perf_counter()
            self.problems = self.setup_once()
            self.setup_times.append(time.perf_counter() - t0)
            self.setup_marks.append(self.time_gauges())
            reps += 1

    def time_gauges(self):
        """Run the gauge kernels of plain and of certified operations
        once each, so both sample the machine after every timed step;
        returns the index of these samples, the step's mark."""
        seconds = {}
        for certified, kernel in self.gauges.items():
            if kernel not in seconds:  # a workload may use one kernel for both
                t0 = time.perf_counter()
                kernel()
                seconds[kernel] = time.perf_counter() - t0
            self.gauge_times[certified].append(seconds[kernel])
        return len(self.gauge_times[False]) - 1

    def scaled(self, certified, seconds, mark):
        """A raw time of a plain or certified step in seconds at the
        gauge's reference speed (see ``gauge.py``), from the gauge
        samples within GAUGE_WINDOW steps of it."""
        samples = self.gauge_times[certified][max(0, mark - GAUGE_WINDOW) : mark + GAUGE_WINDOW + 1]
        return seconds * self.gauges[certified].ref_s / statistics.median(samples)

    # -- operations -----------------------------------------------------

    def config(self, op, **kw):
        return self.model.SolverConfig(variant=op.variant, tol=TOL, record_xi=op.certified, **kw)

    def execute(self, op):
        """Run one operation; returns (result, violations, seconds)."""
        problem, inst = self.problems[op.index], self.instances[op.index]
        cfg = self.config(op)
        t0 = time.perf_counter()
        if op.certified:
            result = self.solver.run(problem, cfg, reference=inst.reference)
            violations = self.solver.contraction_check(result.log, problem, cfg, inst.reference)
        else:
            result = self.solver.run(problem, cfg)
            violations = []
        return result, violations, time.perf_counter() - t0

    def attempt(self, op):
        """Execute and check one operation, counting it."""
        self.attempted += 1
        inst = self.instances[op.index]
        try:
            result, violations, dt = self.execute(op)
        except Exception as e:  # a crash is a failed operation, not a crashed benchmark
            self.failures.append(f"{inst.optimum.name}/{op.variant}: {type(e).__name__}: {e}")
            return None, float("nan")
        problems = inst.check(result, violations)
        if problems:
            self.failures.append(f"{inst.optimum.name}/{op.variant}: " + "; ".join(problems))
        return result, dt

    def warm_up(self):
        """Two iterations of every plain operation, so lazy set-up in numpy
        and LAPACK is done before timing, and the gauge twice.  Not
        counted."""
        for kernel in self.gauges.values():
            kernel()
            kernel()
        for op in self.ops:
            if not op.certified:
                self.solver.run(self.problems[op.index], self.config(op, max_iters=2))

    def round(self):
        """One pass over every operation, each plain one
        ``self.plain_repeats`` times; per-op lists of seconds and gauge
        marks, iterations, and the bytes of retained snapshots."""
        times, marks, iters, record_bytes = {}, {}, {}, 0
        for op in self.ops:
            for _ in range(1 if op.certified else self.plain_repeats):
                result, dt = self.attempt(op)
                marks.setdefault(op, []).append(self.time_gauges())
                times.setdefault(op, []).append(dt)
            iters[op] = len(result.log) if result is not None else 0
            if op.certified and result is not None:
                log = result.log
                record_bytes += sum(a.nbytes for a in log.xi_states) + sum(a.nbytes for a in log.xi_preds)
        return times, marks, iters, record_bytes

    def peak_memory(self):
        """Mean over the certified operations, both variants, of each
        one's traced allocation peak.  The mean, not the largest, because
        on small problems a peak is mostly retained snapshots, so the
        largest would follow the iteration count of a single solve."""
        peaks = []
        tracemalloc.start()
        try:
            for op in self.ops:
                if op.certified:
                    tracemalloc.reset_peak()
                    self.attempt(op)
                    peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return statistics.fmean(peaks) / MB


def _median_sum(rounds, ops):
    return sum(statistics.median(t for r in rounds for t in r[op]) for op in ops)


def _repeat(step, seconds):
    """Call ``step`` at least once, and again while another call is
    expected to end within ``seconds`` of the start."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def _end_to_end(bench, seconds):
    bench.setup()
    bench.warm_up()
    rounds, raw_rounds, iters = [], [], {}

    def step():
        times, marks, counts, _ = bench.round()
        rounds.append({op: [bench.scaled(op.certified, *tm) for tm in zip(dts, marks[op])] for op, dts in times.items()})
        raw_rounds.append(times)
        iters.update(counts)
        bench.setup()

    _repeat(step, seconds)
    plain = [op for op in bench.ops if not op.certified]
    certified = [op for op in bench.ops if op.certified]
    solve_s = _median_sum(rounds, plain)
    total_iters = sum(iters[op] for op in plain)
    setup = [bench.scaled(False, dt, mark) for dt, mark in zip(bench.setup_times, bench.setup_marks)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (solve_s, "s"),
        "iters": (total_iters, "count"),
        "us_per_iter": (1e6 * solve_s / max(total_iters, 1), "us"),
        "certify_s": (_median_sum(rounds, certified), "s"),
        "peak_mem_mb": (bench.peak_memory(), "MB"),
    }
    detail = {
        "rounds": len(rounds),
        "setup_reps": len(bench.setup_times),
        "raw": {
            "setup_s": statistics.median(bench.setup_times),
            "solve_s": _median_sum(raw_rounds, plain),
            "certify_s": _median_sum(raw_rounds, certified),
        },
        "gauge_s": {kind: statistics.median(bench.gauge_times[c]) for kind, c in (("plain", False), ("certified", True))},
        "ops": [
            {"instance": bench.instances[op.index].optimum.name, "variant": op.variant, "certified": op.certified,
             "iters": iters[op], "seconds": [t for r in raw_rounds for t in r[op]]}
            for op in bench.ops
        ],
    }
    return metrics, detail


def _per_layer(bench, seconds):
    import layers

    tracer = layers.Tracer()
    plain = [op for op in bench.ops if not op.certified]
    bench.setup()
    bench.warm_up()
    untraced, traced, per_round = [], [], []

    def step():
        untraced.append(bench.round()[0])
        tracer.reset()
        tracer.install()
        try:
            bench.problems = bench.setup_once()
            times, _, _, record_bytes = bench.round()
        finally:
            tracer.uninstall()
        traced.append(times)
        figures = tracer.layer_metrics()
        figures["solver.record_mb"] = record_bytes / MB
        per_round.append(figures)

    _repeat(step, seconds)
    units = {"calls": "count", "inner_steps": "count", "dense_mb": "MB", "record_mb": "MB"}
    metrics = {}
    for name in per_round[0]:
        unit = units.get(name.rsplit(".", 1)[1], "s")
        metrics[name] = (statistics.median(r[name] for r in per_round), unit)
    metrics["trace.overhead_s"] = (_median_sum(traced, plain) - _median_sum(untraced, plain), "s")
    return metrics, {"rounds": len(traced), "absent": tracer.absent, "spans": tracer.spans()}


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "pcadmm" / "__init__.py").is_file():
        print(f"error: no pcadmm sources at {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    bench = Bench(args)
    measure = _per_layer if args.trace else _end_to_end
    metrics, detail = measure(bench, args.seconds)

    failed = len(bench.failures)
    correct = failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "raw" in detail:
        raw = ", ".join(f"{name} = {value:.6g} s" for name, value in detail["raw"].items())
        print(f"times above are at the gauge's reference speed; raw wall times: {raw}")
    for absent in detail.get("absent", []):
        print(f"absent: {absent} (its layer reads zero)")
    for msg in bench.failures[:20]:
        print(f"FAILED {msg}")
    print(f"attempted = {bench.attempted}, failed = {failed}, correct = {str(correct).lower()}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({**out, "args": vars(args), "failures": bench.failures, **detail}, fh, indent=1)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
