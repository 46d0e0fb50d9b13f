"""Command line entry points: run, bench, check-grad, sample-scenarios.

`main` loads the config once, with `--seed`, `--method` and `--out` as
overrides of its keys (`config.apply_flags`), and hands each handler
that `RunConfig`. Exit codes: 0 success, 2 configuration error, 3 solver
failure, 4 gradient-check failure. The TOPO_RISK_LOG environment
variable (error | info | debug) sets the log level; logs go to stderr,
results to stdout and the output directory.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import compliance as comp
from . import io as artifacts
from .auglag import phr
from .config import (apply_flags, build_mesh, build_model, build_problem, build_schedule,
                     load_config, sample_scenarios)
from .continuation import METHODS, run_continuation
from .errors import ConfigError, TopoRiskError
from .fea import StiffnessSystem, assemble
from .scenarios import save_scenarios_to_file, thin_svd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GRADCHECK = 4

GRAD_CHECK_MAX_ELEMENTS = 200
# check-grad draws its base design from [0.2, 0.8]; a larger central
# difference step would leave the design box [0, 1]
GRAD_CHECK_MAX_FD_STEP = 0.2
# bench times each row as the best of this many runs after a warm-up run: a
# single cold run mixes one-off costs into the route comparison
BENCH_REPEATS = 5
BENCH_STATISTICS = {"mu_C": comp.mean, "sigma_C": comp.std}

logger = logging.getLogger("toporisk")


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("TOPO_RISK_LOG", "error").lower()
    logging.basicConfig(level=levels.get(name, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    if name not in levels:
        logger.error("unknown TOPO_RISK_LOG value %r; using 'error'", name)


def _output_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from None
    return out


def cmd_run(cfg, args) -> int:
    out = _output_dir(cfg)
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    schedule = build_schedule(cfg)
    logger.info("run: kind=%s mesh=%s L=%d method=%s", cfg.kind, cfg.cells,
                model.n_scenarios, model.method)

    start = time.perf_counter()
    result = run_continuation(problem, schedule)
    wall = time.perf_counter() - start

    final = result.final
    report = {
        "schema_version": 1,
        "problem": cfg.kind,
        "method": model.method,
        "n_elements": model.mesh.n_elements,
        "n_scenarios": model.n_scenarios,
        "mu_C": final.stats.mean,
        "sigma_C": final.stats.std,
        "C_max": float(np.max(final.stats.C)),
        "C_min": float(np.min(final.stats.C)),
        "volume": final.volume,
        "total_solves": result.total_solves,
    }
    if cfg.scenario_source == "sample":
        report["seed"] = cfg.seed
    if cfg.kind == "max_compliance":
        report["C_t"] = "inf" if math.isinf(cfg.C_t) else cfg.C_t
    artifacts.write_report(out / "report.json", report)
    artifacts.write_history(out / "history.csv", result.history)
    artifacts.write_vtk(out / "density.vtk", model.mesh, final.field.physical)
    if model.mesh.dim == 2:
        artifacts.write_pgm(out / "density.pgm", model.mesh, final.field.physical)
    artifacts.write_report(out / "timing.json", {
        "wall_seconds": wall,
        "analyses": result.total_analyses,
        "total_solves": result.total_solves,
        "step_seconds": result.step_seconds,
    })

    print(f"problem: {cfg.kind}   method: {model.method}")
    print(f"mu_C = {final.stats.mean:.6g}   sigma_C = {final.stats.std:.6g}   "
          f"C_max = {report['C_max']:.6g}")
    print(f"volume = {final.volume:.6g}   solves = {result.total_solves}   "
          f"wall = {wall:.2f} s")
    print(f"artifacts written to {out}")
    return EXIT_OK


def _bench_one(statistic, function, method, system, model):
    """Evaluate one statistic and its design gradient; returns a row dict.

    The factorization is shared and excluded from the timing, matching a
    factorize-once workflow. The evaluation runs once to warm up, then
    `BENCH_REPEATS` times; the row reports the fastest of those.

    A route's runs stay consecutive: with threaded BLAS and a core kept
    busy by another process, an SVD run right after a naive run waited
    about 0.15 s in its first LAPACK call for a BLAS thread, so runs that
    take turns between the routes made the comparison less steady.
    """
    F = model.scenarios

    def evaluate():
        if method == "svd":
            stats = comp.compliances_svd(system, thin_svd(F))
        else:
            stats = comp.compliances_naive(system, F)
        value, w = function(stats)
        comp.weighted_gradient(stats, w, model.ke, model.mesh)
        return stats, value

    evaluate()
    seconds = math.inf
    for _ in range(BENCH_REPEATS):
        start = time.perf_counter()
        stats, value = evaluate()
        seconds = min(seconds, time.perf_counter() - start)
    return {"statistic": statistic, "method": method, "value": value,
            "seconds": seconds, "solves": stats.Q.shape[1]}


def cmd_bench(cfg, args) -> int:
    out = _output_dir(cfg)
    # the naive rows solve all L columns, whichever route the config picks,
    # so the model's memory gate counts them; the SVD rows make their own SVD
    model = build_model(cfg, method="naive")
    # full ground structure: the filter is row-stochastic, so x = 1 maps to
    # physical density 1 regardless of penalty and beta
    field = model.pipeline.apply(np.ones(model.mesh.n_elements), 1.0, 0.0)
    system = StiffnessSystem.factorize(assemble(model.mesh, model.ke, field.physical))

    rows = []
    for statistic, function in BENCH_STATISTICS.items():
        for method in METHODS:
            rows.append(_bench_one(statistic, function, method, system, model))

    for statistic in BENCH_STATISTICS:
        naive, svd = (r for r in rows if r["statistic"] == statistic)
        rel = abs(svd["value"] - naive["value"]) / max(abs(naive["value"]), 1e-300)
        if not rel <= 1e-9:  # a NaN gap disagrees too
            raise TopoRiskError(f"{statistic} disagrees between methods by {rel:.3e} relative")

    # the file first: a reader that stops early (`toporisk bench | head`)
    # must not cost the table
    lines = ["statistic,method,value,seconds,solves"]
    lines += [f"{r['statistic']},{r['method']},{r['value']!r},{r['seconds']!r},{r['solves']}"
              for r in rows]
    (out / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{'statistic':<10} {'method':<7} {'value':>16} {'seconds':>10} {'solves':>7}")
    for r in rows:
        print(f"{r['statistic']:<10} {r['method']:<7} {r['value']:>16.8e} "
              f"{r['seconds']:>10.4f} {r['solves']:>7}")
    print(f"bench table written to {out / 'bench.csv'}")
    return EXIT_OK


def _grad_check_functions(model, x, penalty, beta, rng):
    """The scalar maps checked against finite differences.

    Each is (function, volume weight) in one table: function(a) gives the
    map's (value, weights) at an analysis a, from the functions the
    optimizers call. Returns (value_fn, analytic_grads): value_fn(x) gives
    all values from one analysis; analytic_grads holds each map's
    `a.gradient(w, volume_weight)` at the base point.
    """
    L = model.n_scenarios
    w_fixed = rng.standard_normal(L)
    lam = rng.uniform(0.5, 1.5, size=L)
    r_pen = 0.5
    # the PHR term of scenario i kinks where C_i / norm + lam_i / (2 r) = ct;
    # a threshold between the two middle of those values clears the kinks most
    norm = float(np.max(model.analyze(np.ones(x.size), 1.0, 0.0).stats.C))
    base = model.analyze(x, penalty, beta)
    kinks = np.sort(base.stats.C / norm + lam / (2.0 * r_pen))
    ct = float(kinks[(L - 1) // 2] + kinks[L // 2]) / 2.0 if L > 1 \
        else float(kinks[0]) * 1.1

    table = {
        "mu_C": (lambda a: comp.mean(a.stats), 0.0),
        "var_C": (lambda a: comp.variance(a.stats), 0.0),
        "sigma_C": (lambda a: comp.std(a.stats), 0.0),
        "mu+2sigma": (lambda a: comp.mean_plus_m_std(a.stats, 2.0), 0.0),
        "w.C": (lambda a: (float(w_fixed @ a.stats.C), w_fixed), 0.0),
        # the arguments `auglag_minimize` passes to its Lagrangian
        "auglag": (lambda a: phr(a, lam, r_pen, ct, norm), 1.0),
    }

    def values(xv) -> dict:
        a = model.analyze(xv, penalty, beta)
        return {name: function(a)[0] for name, (function, _) in table.items()}

    # a gradient that overflows (var_C at loads of 1e140) fails the check
    # itself, by name, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = {name: base.gradient(function(base)[1], volume_weight=volume_weight)
                    for name, (function, volume_weight) in table.items()}
    return values, analytic


def _check_grad_flags(args) -> None:
    """Raise ConfigError on a check-grad flag the check cannot use; NaN and
    infinity fail every range."""
    h = args.fd_step
    flags = {
        "--penalty": (args.penalty, args.penalty >= 1.0, ">= 1"),
        "--beta": (args.beta, args.beta >= 0.0, ">= 0"),
        "--tol": (args.tol, args.tol > 0.0, "> 0"),
        "--fd-step": (h, 0.0 < h <= GRAD_CHECK_MAX_FD_STEP, f"in (0, {GRAD_CHECK_MAX_FD_STEP}]"),
    }
    for flag, (value, in_range, expected) in flags.items():
        if not (in_range and math.isfinite(value)):
            raise ConfigError(f"{flag} must be finite and {expected}, got {value}")


def cmd_check_grad(cfg, args) -> int:
    _check_grad_flags(args)
    n_elements = math.prod(cfg.cells)
    if n_elements > GRAD_CHECK_MAX_ELEMENTS:
        raise ConfigError(f"check-grad needs a small mesh (<= {GRAD_CHECK_MAX_ELEMENTS} "
                          f"elements); this one has {n_elements}")
    model = build_model(cfg)
    # a file source has no seed: its check draws from seed 0, the same point every run
    rng = np.random.default_rng(cfg.seed or 0)
    x = rng.uniform(0.2, 0.8, size=n_elements)
    h = args.fd_step

    values, analytic = _grad_check_functions(model, x, args.penalty, args.beta, rng)
    names = list(analytic)
    fd = {name: np.zeros(x.size) for name in names}
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        up, um = values(xp), values(xm)
        for name in names:
            fd[name][i] = (up[name] - um[name]) / (2.0 * h)

    errors = {}
    print(f"{'function':<10} {'max rel err':>12}")
    for name in names:
        scale = max(float(np.max(np.abs(analytic[name]))), 1e-300)
        errors[name] = float(np.max(np.abs(fd[name] - analytic[name]))) / scale
        print(f"{name:<10} {errors[name]:>12.3e}")
    worst = np.max(list(errors.values()))  # NaN if any error is
    print(f"overall max relative error: {worst:.3e} (tolerance {args.tol:g})")
    failed = [name for name, err in errors.items() if not err <= args.tol]  # NaN fails too
    if failed:
        print(f"gradient check FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    print("gradient check passed")
    return EXIT_OK


def cmd_sample_scenarios(cfg, args) -> int:
    if cfg.scenario_source != "sample":
        raise ConfigError("sample-scenarios needs a config with scenarios.source = \"sample\"")
    out = _output_dir(cfg)
    F = sample_scenarios(build_mesh(cfg), cfg.L, cfg.seed)
    path = out / "scenarios.csv"
    save_scenarios_to_file(F, path)
    print(f"wrote {F.n_scenarios} scenarios on {F.n_loaded} loaded DOFs "
          f"(rank {thin_svd(F).n_s}) to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporisk",
        description="Topology optimization of compliance statistics under "
                    "finitely many loading scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, method=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--seed", type=int, help="scenario sampler seed (overrides scenarios.seed)")
        if method:
            p.add_argument("--method", choices=METHODS,
                           help="compliance evaluation method (overrides method)")
        p.set_defaults(handler=handler, method=None)
        return p

    add_command("run", cmd_run, "solve the configured optimization problem", method=True)
    add_command("bench", cmd_bench, "time naive vs SVD statistics on the full design")
    p_check = add_command("check-grad", cmd_check_grad,
                          "compare gradients against finite differences", method=True)
    p_check.add_argument("--fd-step", type=float, default=1e-6,
                         help="central difference step (default 1e-6)")
    p_check.add_argument("--penalty", type=float, default=3.0)
    p_check.add_argument("--beta", type=float, default=4.0)
    p_check.add_argument("--tol", type=float, default=1e-4,
                         help="failure threshold on the max relative error")
    add_command("sample-scenarios", cmd_sample_scenarios, "write sampled scenarios as CSV")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_flags(load_config(args.config), args.seed, args.method, args.out)
        code = args.handler(cfg, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away; point stdout at devnull so that
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TopoRiskError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
