"""Per-layer tracing by wrapping module-level functions from outside.

A :class:`Tracer` replaces named functions in ``pcadmm``'s modules with
pass-through wrappers that time each call and attribute the time to a
span name.  Spans nest through a stack, so each span also knows how much
of its interval its traced children covered, which gives its self time.
Nothing under ``src/`` is edited: the wrappers are installed on the
imported module objects and removed again by :meth:`Tracer.uninstall`.

Only per-name aggregates are kept (calls, inclusive time, self time,
bytes of array results, and calls per parent span), so a run with
millions of inner calls stays small in memory.

A target whose module or attribute no longer exists -- because a later
change merged, renamed or removed it -- is recorded in ``absent`` and
skipped; the traced pass still completes and its spans read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span).  The span of a block solve is refined by
# route, see block_route.  Each name is patched in the module whose
# globals the caller reads it from at call time.
TARGETS = (
    ("pcadmm.solver", "run", "solver"),
    ("pcadmm.solver", "contraction_check", "solver.audit"),
    ("pcadmm.solver", "validate_problem", "model.validate"),
    ("pcadmm.model", "validate_problem", "model.validate"),
    ("pcadmm.solver", "feasibility_residual", "model.residual"),
    ("pcadmm.solver", "objective_value", "model.objective"),
    ("pcadmm.solver", "predict_pd", "predictor"),
    ("pcadmm.solver", "predict_dp", "predictor"),
    ("pcadmm.solver", "correct_pd", "corrector"),
    ("pcadmm.solver", "correct_dp", "corrector"),
    ("pcadmm.solver", "xi_from_aggregates", "matrices.xi"),
    ("pcadmm.solver", "build_h", "matrices.build"),
    ("pcadmm.solver", "build_g", "matrices.build"),
    ("pcadmm.predictor", "solve_block_subproblem", "prox.block"),
    ("pcadmm.predictor", "solve_lambda_subproblem", "prox.lambda"),
    ("pcadmm.prox", "project_set", "prox.project"),
)


def block_route(theta, set_spec, ortho_scaled):
    """The route a block solve takes, decided from the block's declared
    atom, set and ``ortho_scaled`` flag: ``exact`` (quadratic objective,
    free set), ``closed`` (ortho-scaled l1, zero or linear atom),
    ``custom``, or ``pg`` (projected gradient) otherwise."""
    atom = type(theta).__name__
    free = type(set_spec).__name__ == "Free"
    H = getattr(theta, "H", None)
    linear = atom == "Quadratic" and H is not None and not H.any()
    if atom == "Custom":
        return "custom"
    if atom == "Quadratic" and free and not linear:
        return "exact"
    if ortho_scaled and (atom in ("WeightedL1", "Zero") or linear):
        return "closed"
    if atom == "Quadratic" and free:
        return "exact"
    return "pg"


def _request_route(args, kwargs):
    req = args[0] if args else kwargs.get("req")
    try:
        return "prox." + block_route(req.theta, req.set, req.ortho_scaled)
    except AttributeError:
        return "prox.other"


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "nbytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nbytes = 0


class Tracer:
    """Installs timing wrappers on :data:`TARGETS` and aggregates spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent = []
        self._saved = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(int)  # (parent span, span) -> calls
        self._stack = []  # [span, child time] per open call

    def install(self):
        for module_name, attr, span in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _request_route(args, kwargs) if span == "prox.block" else span
            st = self._stack
            parent = st[-1][0] if st else None
            frame = [name, 0.0]
            st.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.pop()
                s = self.stats[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - frame[1]
                self.edges[(parent, name)] += 1
                if st:
                    st[-1][1] += dt
            nbytes = getattr(out, "nbytes", None)
            if isinstance(nbytes, int):
                self.stats[name].nbytes += nbytes
            return out

        return wrapper

    def layer_metrics(self):
        """Per-layer figures for one traced round (times in seconds)."""
        st = self.stats

        def get(name):
            return st[name] if name in st else Stat()

        pg = get("prox.pg")
        pg_projections = self.edges.get(("prox.pg", "prox.project"), 0)
        out = {}
        for route in ("exact", "closed", "pg"):
            s = get("prox." + route)
            out[f"prox.{route}.calls"] = s.calls
            out[f"prox.{route}.s"] = s.total_s
        # The projected-gradient loop projects once at its start and
        # once per inner step.
        out["prox.pg.inner_steps"] = max(pg_projections - pg.calls, 0)
        out["prox.lambda.calls"] = get("prox.lambda").calls
        out["prox.lambda.s"] = get("prox.lambda").total_s
        out["predictor.calls"] = get("predictor").calls
        out["predictor.self_s"] = get("predictor").self_s
        out["corrector.calls"] = get("corrector").calls
        out["corrector.s"] = get("corrector").total_s
        out["model.residual_s"] = get("model.residual").total_s
        out["model.objective_s"] = get("model.objective").total_s
        out["model.validate_s"] = get("model.validate").total_s
        out["matrices.xi_s"] = get("matrices.xi").total_s
        out["matrices.build_s"] = get("matrices.build").total_s
        out["matrices.dense_mb"] = get("matrices.build").nbytes / 1e6
        out["solver.self_s"] = get("solver").self_s
        out["solver.audit_self_s"] = get("solver.audit").self_s
        return out

    def spans(self):
        """The aggregated call tree, for the trace file."""
        return {
            "spans": {k: {"calls": v.calls, "total_s": v.total_s, "self_s": v.self_s, "bytes": v.nbytes} for k, v in self.stats.items()},
            "edges": [{"parent": p, "span": s, "calls": n} for (p, s), n in sorted(self.edges.items(), key=str)],
            "absent": list(self.absent),
        }
