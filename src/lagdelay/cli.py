"""Command-line front end: design, simulate, estimate, benchmark, bias-predict,
basis-check.

Configs and reports are JSON, signals and histograms CSV; a report holds
each result type as the dict of its fields.  Every output embeds a content
hash of the fully resolved configuration so any published number can be
regenerated.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .analysis import BenchmarkConfig, markov_mse, predict_bias_tau, run_monte_carlo
from .basis import BasisConfig, build_phi
from .design import DesignProblem, optimize_design, validate_constraints
from .errors import DegenerateBError, InfeasibleDesignError, LagDelayError
from .estimators import ESTIMATORS, build_replicate_tables, crlb, estimate_delay
from .simulate import (
    InputDesign, _json_int, default_tau_max, load_dataset, make_dataset, save_dataset,
)

log = logging.getLogger("lagdelay")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_METHOD = 3


def config_hash(obj) -> str:
    """Short content hash of a canonicalized JSON-compatible object."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _sanitize(obj):
    """Make an object strictly JSON-serializable: no NaN, numpy type or dataclass."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(asdict(obj))
    return obj


def _write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(_sanitize(payload), f, indent=2, allow_nan=False)
        f.write("\n")


def _load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def _read(reader, path, data=None):
    """``reader`` applied to ``data``, by default the JSON of ``path``; a
    ValueError it raises, a constructor's range rule among them, names the
    file."""
    data = _load_json(path) if data is None else data
    try:
        return reader(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_methods(raw: str | list) -> tuple:
    """Estimator names from a comma-separated ``--methods`` value or a
    config list, each once; 'all' selects every estimator."""
    if isinstance(raw, str):
        if raw.strip().lower() == "all":
            return ESTIMATORS
        raw = raw.split(",")
    methods = tuple(dict.fromkeys(str(m).strip() for m in raw if str(m).strip()))
    for m in methods:
        if m not in ESTIMATORS:
            raise ValueError(f"unknown method {m!r}; choose from {ESTIMATORS} or 'all'")
    if not methods:
        raise ValueError("empty method list")
    return methods


def cmd_design(args) -> int:
    problem = _read(DesignProblem.from_dict, args.config)
    resolved = {**vars(problem), "p_grid": problem.p_grid.tolist()}
    design = optimize_design(problem)
    objective = markov_mse(
        design, problem.k_model, problem.noise_var, problem.tau_guess,
        n_samples=problem.n_samples,
    ).mse
    ok, violations = validate_constraints(design.u, design.energy_bound)
    payload = design.to_dict()
    payload["config_hash"] = config_hash(resolved)
    payload["objective"] = objective
    payload["constraints"] = {"ok": ok, "violations": violations}
    _write_json(args.out, payload)
    print(f"design written to {args.out}")
    print(f"  p = {design.p:.6g}, u = {np.round(design.u, 6).tolist()}")
    print(f"  objective (Markov MSE at tau_guess) = {objective:.6e}")
    print(f"  constraints ok = {ok}" + (f", violations = {violations}" if violations else ""))
    return EXIT_OK


def cmd_simulate(args) -> int:
    design = _read(InputDesign.from_dict, args.design)
    resolved = {
        "design": design.to_dict(),
        "tau": args.tau,
        "noise_var": args.noise_var,
        "seed": args.seed,
        "n_samples": args.n_samples,
    }
    ds = make_dataset(design, args.tau, args.noise_var, args.seed, args.n_samples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "dataset.csv"
    save_dataset(ds, csv_path, extra_meta={"config_hash": config_hash(resolved)})
    print(f"dataset written to {csv_path} ({ds.n_samples} samples, delta = {ds.delta:g})")
    return EXIT_OK


def cmd_estimate(args) -> int:
    design = _read(InputDesign.from_dict, args.design)
    ds = load_dataset(args.dataset)
    if abs(ds.delta - design.delta) > 1e-12 * design.delta:
        print(
            f"error: dataset sampling time {ds.delta:g} does not match design {design.delta:g}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    methods = _parse_methods(args.methods)
    k_model = args.k_model if args.k_model is not None else max(len(design.u) - 1, 2)
    tau_max = args.tau_max if args.tau_max is not None else default_tau_max(design, ds.n_samples)
    resolved = {
        "design": design.to_dict(),
        "dataset": str(args.dataset),
        "methods": list(methods),
        "k_model": k_model,
        "m_markov": args.m_markov,
        "tau_max": tau_max,
    }
    tables = build_replicate_tables(
        methods, design, delta=ds.delta, n_samples=ds.n_samples, k_model=k_model,
        tau_max=tau_max, m_markov=args.m_markov,
    )
    estimates, errors = {}, {}
    for method in methods:
        try:
            estimates[method] = estimate_delay(method, ds, tables)
        except LagDelayError as exc:
            errors[method] = f"{type(exc).__name__}: {exc}"
    crlb_report = None
    if ds.noise_var > 0:
        tau_ref = ds.true_tau if ds.true_tau is not None else design.tau_guess
        try:
            crlb_report = crlb(design, tau_ref, ds.noise_var, n_samples=ds.n_samples)
        except LagDelayError as exc:
            errors["crlb"] = f"{type(exc).__name__}: {exc}"
    report = {
        "config_hash": config_hash(resolved),
        "true_tau": ds.true_tau,
        "estimates": estimates,
        "errors": errors,
        "crlb": crlb_report,
    }
    _write_json(args.out, report)
    for method, est in estimates.items():
        print(f"{method:12s} tau_hat = {est.tau_hat:.9e}")
    for method, msg in errors.items():
        print(f"{method:12s} FAILED: {msg}")
    if crlb_report is not None:
        print(f"{'crlb':12s} bound   = {crlb_report.bound:.3e}")
    print(f"report written to {args.out}")
    return EXIT_OK if estimates else EXIT_NO_METHOD


def cmd_benchmark(args) -> int:
    cfg = _load_json(args.config)
    if "design" not in cfg:
        cfg["design"] = _load_json(cfg["design_path"])
    bench = _read(BenchmarkConfig.from_dict, args.config, cfg)
    if args.seed is None and cfg.get("seed") is None:
        print("error: benchmark seed is mandatory (config 'seed' or --seed)", file=sys.stderr)
        return EXIT_ERROR
    # a flag wins over its config key; a refused config value names the file
    seed = args.seed if args.seed is not None else _read(
        lambda d: _json_int(d, "seed"), args.config, cfg)
    replicates = args.replicates if args.replicates is not None else _read(
        lambda d: _json_int(d, "replicates") if "replicates" in d else 1000, args.config, cfg)
    methods = _parse_methods(args.methods) if args.methods else _read(
        lambda d: _parse_methods(d.get("methods", "all")), args.config, cfg)
    resolved = {"benchmark": bench.to_dict(), "methods": list(methods),
                "replicates": replicates, "seed": seed}
    # taken first, so an input with no information at the samples is
    # refused before any replicate runs
    crlb_value = None
    if bench.noise_var > 0:
        crlb_value = crlb(
            bench.design, bench.true_tau, bench.noise_var, n_samples=bench.n_samples
        ).bound
    started = time.perf_counter()
    stats = run_monte_carlo(bench, methods=methods, replicates=replicates,
                            seed=seed, workers=args.workers)
    runtime = time.perf_counter() - started
    # wall-clock runtime is the single nondeterministic report field; the
    # rest is bit-identical for any worker count
    report = {
        "config": resolved,
        "config_hash": config_hash(resolved),
        "seed": seed,
        "replicates": replicates,
        "per_method": stats.per_method,
        "histogram": stats.histogram,
        "crlb": crlb_value,
        "runtime_s": runtime,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    with open(out_dir / "histogram.csv", "w") as f:
        f.write("method,bin_left,bin_right,count\n")
        for m, h in stats.histogram.items():
            edges, counts = h["edges"], h["counts"]
            for i, count in enumerate(counts):
                f.write(f"{m},{edges[i]:.17g},{edges[i + 1]:.17g},{int(count)}\n")
    print(f"benchmark report written to {out_dir / 'report.json'} ({runtime:.1f} s)")
    for m, s in stats.per_method.items():
        print(
            f"  {m:12s} bias={s.bias:+.3e} var={s.var:.3e} "
            f"mse_raw={s.mse_raw:.3e} failures={s.failures}"
        )
    if crlb_value is not None:
        print(f"  {'crlb':12s} bound={crlb_value:.3e}")
    worst_failure = max(s.failures / replicates for s in stats.per_method.values())
    return EXIT_NO_METHOD if worst_failure > 0.5 else EXIT_OK


def cmd_bias_predict(args) -> int:
    design = _read(InputDesign.from_dict, args.design)
    k_model = args.k_model if args.k_model is not None else max(len(design.u) - 1, 2)
    resolved = {
        "design": design.to_dict(),
        "tau_check": args.tau_check,
        "noise_var": args.noise_var,
        "k_model": k_model,
        "m_markov": args.m_markov,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
    }
    pred = predict_bias_tau(
        design,
        args.noise_var,
        args.tau_check,
        k_model,
        m_markov=args.m_markov,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    payload = {
        **asdict(pred),
        "config_hash": config_hash(resolved),
        "tau_check": args.tau_check,
        "noise_var": args.noise_var,
    }
    _write_json(args.out, payload)
    print(f"predicted bias = {pred.predicted_bias:+.6e} (written to {args.out})")
    return EXIT_OK


def cmd_basis_check(args) -> int:
    """Build Phi for the given sampling, print its Gram deviation and
    cond(Phi); exit 1 when the basis is flagged, that is exactly when
    ``proposed``, ``markov_mse`` and ``design`` refuse it."""
    cfg = BasisConfig(p=args.p, num_funcs=args.num_funcs)
    phi = build_phi(cfg, args.delta, args.n_samples)
    gram_dev = np.abs(args.delta * phi.matrix.T @ phi.matrix - np.eye(cfg.num_funcs)).max()
    print(f"  [INFO] Gram deviation from identity: {gram_dev:.3e}")
    print(f"  [INFO] cond(Phi) = {phi.cond:.6e}" + (" (flagged)" if phi.ill_conditioned else ""))
    print(f"  [{'FAIL' if phi.ill_conditioned else 'PASS'}] condition number below threshold")
    return EXIT_ERROR if phi.ill_conditioned else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagdelay",
        description="Subsample time-delay estimation via continuous Laguerre spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="solve the experiment-design problem")
    p_design.add_argument("--config", required=True, help="design problem JSON")
    p_design.add_argument("--out", required=True, help="output design JSON path")

    p_sim = sub.add_parser("simulate", help="synthesize a noisy dataset")
    p_sim.add_argument("--design", required=True, help="input design JSON")
    p_sim.add_argument("--tau", type=float, required=True, help="true delay, seconds")
    p_sim.add_argument("--noise-var", type=float, default=0.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-samples", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_est = sub.add_parser("estimate", help="estimate the delay from a dataset")
    p_est.add_argument("--dataset", required=True, help="dataset CSV (JSON sidecar next to it)")
    p_est.add_argument("--design", required=True)
    p_est.add_argument("--methods", default="all")
    p_est.add_argument("--k-model", type=int, default=None)
    p_est.add_argument("--m-markov", type=int, default=None)
    p_est.add_argument("--tau-max", type=float, default=None)
    p_est.add_argument("--out", required=True, help="report JSON path")

    p_bench = sub.add_parser("benchmark", help="seeded Monte-Carlo comparison")
    p_bench.add_argument("--config", required=True, help="benchmark config JSON")
    p_bench.add_argument("--replicates", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--methods", default=None)
    p_bench.add_argument("--out", required=True, help="output directory")

    p_bias = sub.add_parser("bias-predict", help="predict the delay estimator bias")
    p_bias.add_argument("--design", required=True)
    p_bias.add_argument("--tau-check", type=float, required=True)
    p_bias.add_argument("--noise-var", type=float, required=True)
    p_bias.add_argument("--mc-samples", type=int, default=100_000)
    p_bias.add_argument("--seed", type=int, default=0)
    p_bias.add_argument("--k-model", type=int, default=None)
    p_bias.add_argument("--m-markov", type=int, default=None)
    p_bias.add_argument("--out", required=True)

    p_check = sub.add_parser("basis-check", help="run basis invariants, print cond(Phi)")
    p_check.add_argument("--p", type=float, required=True)
    p_check.add_argument("--num-funcs", type=int, required=True)
    p_check.add_argument("--delta", type=float, required=True)
    p_check.add_argument("--n-samples", type=int, required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LAGDELAY_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    # looked up at call time, so a patched or traced cmd_* is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InfeasibleDesignError, DegenerateBError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (LagDelayError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
