"""Configuration-driven experiment runner.

Usage: ``degen-control <config-file> [--out DIR] [--seed INT]``

One config file per run; the selected command writes comma-separated tables
plus a human-readable ``summary.txt`` into the output directory and prints
the summary to stdout. A fixed seed reproduces byte-identical outputs. Every
failure path exits nonzero with a final line ``ERROR <code>: <message>``;
exit status 2 flags hypothesis/validation failures and unreadable files, 3
solver failures, an allocation that fails (``ERROR OUT_OF_MEMORY``) and any
other exception (``ERROR INTERNAL``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import carleman, control, semilinear
from .coefficients import (BETA_CAP, COEFFICIENT_CATALOG, Case, constant_drift,
                           linear_beta, load_tabular_coefficient,
                           power_coefficient, validate_coefficient)
from .config import Config, parse_config
from .errors import DegenControlError, EnvelopeUnbounded, HypothesisViolated, OutOfMemory
from .mesh import build_grid, hardy_check, l2_norm
from .pde import LinearProblem, solve_forward


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_table(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_control_field(path, times, nodes, field: np.ndarray) -> None:
    """Write a space-time field as ``t,x,value`` rows, one row of ``field`` per time.

    Each x is formatted once, each t once per level, and a level's values in
    one ``%`` call (same bytes as ``f"{v:.17g}"``) and one write."""
    tails = [f",{x:.17g},%.17g\n" for x in nodes]
    with open(path, "w") as fh:
        fh.write("t,x,value\n")
        for t, row in zip(times, field):
            head = f"{t:.17g}"
            fh.write((head + head.join(tails)) % tuple(row.tolist()))


# -- builders -------------------------------------------------------------------

def build_coefficient(cfg: Config):
    kind = cfg.get_str("a.kind", default="power",
                       choices={"power", "table", "expr-catalog"})
    if kind == "power":
        return power_coefficient(cfg.get_float("a.alpha"))
    if kind == "table":
        case = cfg.get_str("a.case", default=None, choices={"WDP", "SDP"})
        return load_tabular_coefficient(cfg.get_str("a.path"),
                                        case=Case(case) if case else None)
    name = cfg.get_str("a.name", choices=set(COEFFICIENT_CATALOG))
    return COEFFICIENT_CATALOG[name]()


def build_drift(cfg: Config):
    kind = cfg.get_str("beta.kind", default="x", choices={"x", "zero", "scaled"})
    scale = (cfg.get_float("beta.scale", default=1.0) if kind == "scaled"
             else 0.0 if kind == "zero" else 1.0)
    return constant_drift(cfg.get_float("b.const", default=0.0),
                          cfg.get_float("c.const", default=0.0), beta=linear_beta(scale))


def build_initial_datum(cfg: Config, grid, rng):
    kind = cfg.get_str("y0.kind", default="sine", choices={"sine", "noise", "zero"})
    amp = cfg.get_float("y0.amplitude", default=1.0)
    if not np.isfinite(amp):
        # rejected for every kind, also zero, which does not use it
        raise ValueError(f"initial amplitude y0.amplitude must be finite, got {amp}")
    if kind == "zero":
        return np.zeros(grid.N)
    if kind == "noise":
        y0 = amp * rng.standard_normal(grid.N)
        y0[0] = y0[-1] = 0.0
        return y0
    return amp * np.sin(np.pi * grid.nodes)


def build_problem(cfg: Config, rng) -> LinearProblem:
    a = build_coefficient(cfg)
    drift = build_drift(cfg)
    grid = build_grid(cfg.get_int("grid.N", default=64),
                      cfg.get_float("grid.gamma", default=1.0))
    return LinearProblem(a=a, drift=drift,
                         T=cfg.get_float("T", default=0.5),
                         omega=cfg.get_pair("omega", default=(0.3, 0.9)),
                         grid=grid,
                         M=cfg.get_int("M", default=128),
                         y0=build_initial_datum(cfg, grid, rng))


def build_nonlinearity(cfg: Config, drift):
    """The configured catalog nonlinearity. ``drift`` is not read: the
    factored nonlinearity needs nothing of the drift, and the parameter stays
    for callers that pass it."""
    kind = cfg.get_str("nl.kind", default="zero",
                       choices={"zero", "sine", "tanh-grad", "mixed"})
    m = cfg.get_float("nl.m", default=1.0)
    if not np.isfinite(m):
        # rejected for every kind, also those that do not use m
        raise ValueError(f"nonlinearity constant nl.m must be finite, got {m}")
    if kind == "zero":
        return semilinear.zero_nonlinearity()
    if kind == "sine":
        return semilinear.sine_nonlinearity(m)
    if kind == "tanh-grad":
        return semilinear.tanh_grad_nonlinearity()
    return semilinear.mixed_nonlinearity(m)


# -- commands -------------------------------------------------------------------

def cmd_validate(cfg: Config, outdir: str, rng) -> list:
    a = build_coefficient(cfg)
    requested = cfg.get_str("a.case", default=None, choices={"WDP", "SDP"})
    report = validate_coefficient(a, Case(requested) if requested else a.case)
    # the CLI builds beta(x) = s x (s = 0 for beta.kind = zero), so
    # C_beta = sup |beta(x)/x| = |beta(1)| = |s|
    c_beta = abs(float(build_drift(cfg).beta(1.0)))
    if c_beta > BETA_CAP:
        raise EnvelopeUnbounded(
            f"C_beta = |beta.scale| = {c_beta:.3e} exceeds the cap {BETA_CAP:.3e}")
    grid = build_grid(cfg.get_int("grid.N", default=128),
                      cfg.get_float("grid.gamma", default=1.0))
    c_h = hardy_check(grid, a)
    lines = [f"{report.case_admissible.value}, K={_fmt(report.K)}"]
    lines += report.summary_lines()
    lines.append(f"C_beta = {_fmt(c_beta)}")
    lines.append(f"C_H = {_fmt(c_h)}")
    if not report.passed:
        _write_summary(outdir, lines)
        failed = [k for k, ok in report.clauses.items() if not ok]
        raise HypothesisViolated(f"validation clauses failed: {', '.join(failed)}")
    return lines


def cmd_solve(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    y = solve_forward(p)
    write_control_field(os.path.join(outdir, "trajectory.csv"), p.times, p.grid.nodes, y)
    # measured stability ratio sup_n ||y^n|| / ||y^0|| of the zero-filled datum
    norm0 = l2_norm(p.grid.weights, y[0])
    return [
        f"norm_y0 = {_fmt(l2_norm(p.grid.weights, p.y0))}",
        f"norm_yT = {_fmt(l2_norm(p.grid.weights, y[-1]))}",
        f"C_T = {_fmt(np.max(l2_norm(p.grid.weights, y)) / norm0 if norm0 > 0.0 else 0.0)}",
    ]


def cmd_control(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    res = control.hum_solve(p, cfg.get_float("epsilon", default=1e-6),
                            cg_tol=cfg.get_float("cg.tol", default=1e-10),
                            max_iters=cfg.get_int("cg.maxiter", default=500))
    write_table(os.path.join(outdir, "hum.csv"), "epsilon,norm_yT,cost,cg_iters",
                [(res.epsilon, res.norm_yT, res.cost, res.cg_iters)])
    write_control_field(os.path.join(outdir, "control.csv"), p.times[:-1],
                        p.grid.nodes, res.h)
    lines = [
        f"epsilon = {_fmt(res.epsilon)}",
        f"norm_yT = {_fmt(res.norm_yT)}",
        f"cost = {_fmt(res.cost)}",
        f"cg_iters = {res.cg_iters}",
        f"optimality_gap = {_fmt(res.optimality_gap)}",
    ]
    if res.cost_constant is not None:
        lines.append(f"cost_constant = {_fmt(res.cost_constant)}")
    return lines


def cmd_sweep(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    eps = cfg.get_float_list("epsilon.sweep",
                             default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    res = control.epsilon_sweep(p, eps)
    write_table(os.path.join(outdir, "sweep.csv"), "epsilon,norm_yT,cost,optimality_gap",
                [(r.epsilon, r.norm_yT, r.cost, r.optimality_gap) for r in res.rows])
    return [
        f"slope = {_fmt(res.slope)}",
        f"cost_ratio = {_fmt(res.cost_ratio)}",
    ]


def cmd_observability(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    rep = control.observability_estimate(
        p, cfg.get_int("samples", default=100),
        power_iters=cfg.get_int("power.iters", default=0), rng=rng)
    write_table(os.path.join(outdir, "observability.csv"), "sample,quotient",
                [(i, q) for i, q in enumerate(rep.quotients)])
    lines = [f"observability_quotient = {_fmt(rep.max_quotient)}",
             f"samples = {rep.samples}"]
    if rep.refined_quotient is not None:
        lines.append(f"refined_quotient = {_fmt(rep.refined_quotient)}")
    return lines


def cmd_carleman_audit(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    w = carleman.build_weights(p.a, p.omega, p.T,
                               c1=cfg.get_float("carleman.c1", default=1.0),
                               lam=cfg.get_float("carleman.lambda", default=2.0),
                               grid=p.grid)
    s_values = cfg.get_float_list("s.sweep", default=[1, 2, 4, 8, 16, 32])
    n_samples = cfg.get_int("samples", default=50)
    which = cfg.get_str("carleman.variant", default="both",
                        choices={"both", "lemma", "theorem"})
    variants = ("lemma", "theorem") if which == "both" else (which,)
    rows, lines = [], []
    for variant in variants:
        res = carleman.ratio_experiment(p, w, s_values, n_samples, variant, rng)
        rows.extend(res.rows())
        lines.append(f"s0[{variant}] = {_fmt(res.s0)}")
        lines.append(f"plateaued[{variant}] = {res.plateaued}")
        lines.append(f"max_ratio[{variant}] = {_fmt(max(res.max_ratios))}")
    write_table(os.path.join(outdir, "carleman.csv"),
                "s,variant,max_ratio,median_ratio,n_samples", rows)

    s_ref = s_values[len(s_values) // 2]
    cac = carleman.ratio_experiment(p, w, [s_ref], n_samples, "cacciopoli", rng)
    write_table(os.path.join(outdir, "cacciopoli.csv"),
                "s,max_ratio,median_ratio,n_samples",
                [(s_ref, cac.max_ratios[0], cac.median_ratios[0], n_samples)])
    lines.append(f"cacciopoli_max_ratio = {_fmt(cac.max_ratios[0])}")
    return lines


def cmd_semilinear(cfg: Config, outdir: str, rng) -> list:
    p = build_problem(cfg, rng)
    nl = build_nonlinearity(cfg, p.drift)
    eps = cfg.get_float("epsilon", default=1e-6)
    fp_tol = cfg.get_float("fp.tol", default=1e-6)
    max_fp = cfg.get_int("fp.maxiter", default=50)
    t0 = cfg.get_float("t0", default=0.0)
    rep = semilinear.picard_null_control(p, nl, eps, t0=t0, fp_tol=fp_tol,
                                         max_fp_iters=max_fp,
                                         cg_tol=cfg.get_float("cg.tol", default=1e-10),
                                         cg_max_iters=cfg.get_int("cg.maxiter", default=500))
    write_table(os.path.join(outdir, "iterations.csv"),
                "iter,increment,control_cost,norm_yT,cg_iters",
                [(k + 1, *row) for k, row in enumerate(zip(
                    rep.increments, rep.control_costs, rep.yT_norms, rep.cg_iters))])
    # the controlled phase runs on its own clock, of len(h) steps, from t0
    clock = np.linspace(0.0, p.T - rep.t0, len(rep.hum.h) + 1)[:-1] + rep.t0
    write_control_field(os.path.join(outdir, "control.csv"), clock, p.grid.nodes, rep.hum.h)
    lines = [
        f"iterations = {rep.iterations}",
        f"converged = {rep.converged}",
        f"residual = {_fmt(rep.residual)}",
        f"norm_yT = {_fmt(rep.hum.norm_yT)}",
        f"t0 = {_fmt(rep.t0)}",
    ]
    if rep.cost_constant is not None:
        lines.append(f"cost_constant = {_fmt(rep.cost_constant)}")
    return lines


_DISPATCH = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "control": cmd_control,
    "semilinear": cmd_semilinear,
    "carleman-audit": cmd_carleman_audit,
    "observability": cmd_observability,
    "sweep": cmd_sweep,
}


def _write_summary(outdir: str, lines) -> None:
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _out_of_memory(exc: MemoryError, cfg: Config | None) -> OutOfMemory:
    """``OutOfMemory`` with numpy's message, which gives the array's size
    and shape, and the config's grid.N and M as written, or "default"."""
    entries = cfg.entries if cfg is not None else {}
    sizes = ", ".join(f"{key} = {entries.get(key, 'default')}" for key in ("grid.N", "M"))
    return OutOfMemory(f"{str(exc) or 'out of memory'} (config {sizes})")


def run(config_path: str, outdir: str | None = None, seed: int | None = None) -> int:
    """Execute one configured experiment; returns the process exit status."""
    cfg = None
    try:
        cfg = parse_config(config_path)
        command = cfg.get_str("command", choices=set(_DISPATCH))
        out = outdir or cfg.get_str("out", default="out")
        os.makedirs(out, exist_ok=True)
        if seed is None:
            seed = cfg.get_int("seed", default=0)
        rng = np.random.default_rng(seed)
        lines = _DISPATCH[command](cfg, out, rng)
        lines.append(f"seed = {seed}")
        _write_summary(out, lines)
        for line in lines:
            print(line)
        return 0
    except DegenControlError as exc:
        print(f"ERROR {exc.code}: {exc}")
        return exc.exit_code
    except MemoryError as exc:
        err = _out_of_memory(exc, cfg)
        print(f"ERROR {err.code}: {err}")
        return err.exit_code
    except ValueError as exc:
        print(f"ERROR PRECONDITION: {exc}")
        return 2
    except OSError as exc:
        # a file named by the config (a.path) or the output directory
        print(f"ERROR CONFIG: {exc}")
        return 2
    except Exception as exc:
        # nothing above caught it, so it is a defect; keep the final-line contract
        print(f"ERROR INTERNAL: {type(exc).__name__}: {exc}")
        return 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="degen-control",
        description="Experiment runner for degenerate parabolic null control")
    ap.add_argument("config", help="path to a key = value config file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="RNG seed override")
    args = ap.parse_args(argv)
    return run(args.config, outdir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
