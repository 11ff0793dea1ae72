"""In-memory span tracer for the lagdelay benchmark.

The tracer wraps public functions of the lagdelay modules. Each wrapper is
patched into every ``lagdelay`` namespace that binds the function (for
example ``build_phi`` is bound in ``basis``, ``analysis``, ``estimators``,
``design`` and ``cli``), so a call is recorded whichever import path it
takes. Spans are kept in memory and written out once, at the end of a run.

A span records its name, start, end, parent span, operation id, the class
of an exception that escaped it, and a small ``info`` value taken from the
call's arguments or result (rows evaluated, ML diagnostics, ...).
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent op error info")

OP_SPAN = "op"


def _usable(args, kwargs, result):
    return not result.ill_conditioned


def _rows(args, kwargs, result):
    return result.size // result.shape[-1]


def _ml_diagnostics(args, kwargs, result):
    d = result.diagnostics
    return (d["grid_points"], d["refine_evals"], d["converged"])


def _mc_samples(args, kwargs, result):
    return kwargs.get("mc_samples", args[5] if len(args) > 5 else None)


def _problem_size(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return (problem.n_samples, problem.k_model)


# (module, function, info hook); the span is named "<module>.<function>".
TRACED = (
    ("basis", "build_phi", _usable),
    ("basis", "eval_basis_matrix", _rows),
    ("delay_ops", "build_toeplitz", None),
    ("delay_ops", "markov_params", None),
    ("delay_ops", "assemble_ab", None),
    ("delay_ops", "closed_form_delay", None),
    ("simulate", "add_noise", None),
    ("simulate", "synthesize_input", None),
    ("simulate", "save_dataset", None),
    ("simulate", "load_dataset", None),
    ("estimators", "estimate_delay_proposed", None),
    ("estimators", "estimate_spectrum_ls", None),
    ("estimators", "estimate_markov", None),
    ("estimators", "estimate_delay_ml", _ml_diagnostics),
    ("estimators", "ml_negloglik", None),
    ("estimators", "estimate_delay_lag_spline", None),
    ("estimators", "project_spectrum_spline", None),
    ("estimators", "estimate_delay_freq_interp", None),
    ("estimators", "crlb", None),
    ("analysis", "run_monte_carlo", None),
    ("analysis", "markov_mse", None),
    ("analysis", "predict_bias_tau", _mc_samples),
    ("design", "optimize_design", _problem_size),
    ("cli", "cmd_design", None),
    ("cli", "cmd_benchmark", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_estimate", None),
    ("cli", "cmd_bias_predict", None),
)


class Tracer:
    """Records spans while installed and inside an ``operation`` block.

    Calls made outside an operation (output checks, warm-up) run the
    original function without recording anything.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = None
        self._patched = []

    def _call(self, name, fn, hook, args, kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        error = info = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if error is None and hook is not None:
                info = hook(args, kwargs, result)
            self.spans[idx] = Span(name, start, end, parent, self._op, error, info)
        return result

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Patch a wrapper into every lagdelay namespace binding a traced function."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "lagdelay" or key.startswith("lagdelay.")
        ]
        for module, func, hook in TRACED:
            orig = getattr(sys.modules[f"lagdelay.{module}"], func)
            wrapped = self._wrap(f"{module}.{func}", orig, hook)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapped)
                        self._patched.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def operation(self, op_id):
        """Root span for one benchmark operation; spans inside share ``op_id``."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(OP_SPAN, start, end, None, op_id, error, None)
            self._op = None

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["name", "start", "end", "parent", "op", "error", "info"])
            for s in self.spans:
                writer.writerow([s.name, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent, s.op,
                                 s.error or "", "" if s.info is None else s.info])


def self_times(spans):
    """Per span: (self seconds, seconds covered by its direct children)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start - c, c) for s, c in zip(spans, covered)]


# LagDelayError subclasses each estimator's code path can raise; anything
# else is counted under "other".
FAILURE_CLASSES = {
    "proposed": ("IllConditionedError", "SingularInputError", "DegenerateBError"),
    "ml": (),
    "lag_spline": ("SingularInputError", "DegenerateBError"),
    "freq_interp": ("FlatCorrelationError",),
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics of a traced run, per pass of the workload.

    Counts and self times are totals over the traced passes divided by the
    number of passes. ``baseline.*`` rows are mean inclusive durations per
    call and read 0 where the workload never makes the call.
    """
    times = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def durations(name, keep=lambda i: True):
        return [spans[i].end - spans[i].start for i in by_name[name] if keep(i)]

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for module, func, _ in TRACED:
        # cli.cmd_design is reported as cli.design
        idx = by_name[f"{module}.{func}"]
        key = f"{module}.{func.removeprefix('cmd_')}"
        put(f"{key}.calls", len(idx) / passes, "count")
        put(f"{key}.self_s", sum(times[i][0] for i in idx) / passes, "s")

    phi = [spans[i] for i in by_name["basis.build_phi"]]
    put("basis.build_phi.usable_frac", _mean([1.0 if s.info else 0.0 for s in phi]), "ratio")
    rows = sum(spans[i].info or 0 for i in by_name["basis.eval_basis_matrix"])
    put("basis.eval_basis_matrix.rows", rows / passes, "count")

    ml = [spans[i].info for i in by_name["estimators.estimate_delay_ml"] if spans[i].info]
    put("estimators.ml.grid_points", _mean([d[0] for d in ml]), "count")
    put("estimators.ml.refine_evals", _mean([d[1] for d in ml]), "count")
    put("estimators.ml.converged_frac", _mean([1.0 if d[2] else 0.0 for d in ml]), "ratio")

    for method, classes in FAILURE_CLASSES.items():
        errors = [spans[i].error for i in by_name[f"estimators.estimate_delay_{method}"]]
        errors = [e for e in errors if e is not None]
        for cls in classes:
            put(f"estimators.{method}.failures.{cls}", errors.count(cls) / passes, "count")
        other = sum(1 for e in errors if e not in classes)
        put(f"estimators.{method}.failures.other", other / passes, "count")

    # spans recorded while optimize_design is on the stack; parents always
    # precede their children in the span list
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            under[i] = under[s.parent] or spans[s.parent].name == "design.optimize_design"
    put("design.p_contexts",
        sum(under[i] for i in by_name["basis.build_phi"]) / passes, "count")
    put("design.objective_evals",
        sum(under[i] for i in by_name["delay_ops.build_toeplitz"]) / passes, "count")

    def ms(values):
        return 1e3 * _mean(values)

    with_phi_build = {spans[i].parent for i in by_name["basis.build_phi"]}
    put("baseline.build_phi_ms", ms(durations("basis.build_phi")), "ms")
    put("baseline.proposed_cached_ms", ms(durations(
        "estimators.estimate_delay_proposed", lambda i: i not in with_phi_build)), "ms")
    put("baseline.ml_ms", ms(durations("estimators.estimate_delay_ml")), "ms")
    put("baseline.lag_spline_ms", ms(durations("estimators.estimate_delay_lag_spline")), "ms")
    put("baseline.freq_interp_ms", ms(durations("estimators.estimate_delay_freq_interp")), "ms")
    put("baseline.markov_mse_ms", ms(durations("analysis.markov_mse")), "ms")
    put("baseline.predict_bias_tau_1e5_ms", ms(durations(
        "analysis.predict_bias_tau", lambda i: spans[i].info == 100_000)), "ms")
    put("baseline.optimize_design_72_s", _mean(durations(
        "design.optimize_design", lambda i: spans[i].info == (1667, 12))), "s")
    put("trace.spans", len(spans) / passes, "count")
    return out
