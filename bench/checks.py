"""Result checks of one pass and the comparison with the seed-0 reference.

Checks read only what a pass wrote to its output directory.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
# Relative tolerance against the seed-0 reference. Tightening cg.tol from
# 1e-10 to 1e-12 moves these results by at most 1.2e-9 relative.
REF_RTOL = 1e-6
# Absolute tolerances where the value is itself a small residual.
REF_ATOL = {"residual": 1e-8}


def read_summary(outdir: str) -> dict:
    values = {}
    with open(os.path.join(outdir, "summary.txt")) as fh:
        for line in fh:
            key, sep, val = line.rstrip("\n").partition(" = ")
            if sep:
                values[key] = val
    return values


def _csv_column(path: str, col: int) -> np.ndarray:
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return np.array([float(r.split(",")[col]) for r in rows])


def _cfg_float(body: str, key: str, default: float) -> float:
    for line in body.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return float(v)
    return default


def physical_results(command: str, outdir: str) -> dict:
    """The values compared with the reference at the default seed."""
    s = read_summary(outdir)
    if command == "control":
        return {"norm_yT": float(s["norm_yT"]), "cost": float(s["cost"])}
    if command == "sweep":
        return {"slope": float(s["slope"]), "cost_ratio": float(s["cost_ratio"])}
    if command == "observability":
        quotients = _csv_column(os.path.join(outdir, "observability.csv"), 1)
        return {"quotients": quotients.tolist(),
                "refined_quotient": float(s["refined_quotient"])}
    if command == "carleman-audit":
        return {k: float(s[k]) for k in
                ("max_ratio[lemma]", "max_ratio[theorem]", "cacciopoli_max_ratio")}
    if command == "semilinear":
        return {"residual": float(s["residual"]), "norm_yT": float(s["norm_yT"])}
    return {}


def _sine_norm(n_nodes: int) -> float:
    x = np.linspace(0.0, 1.0, n_nodes)
    w = np.full(n_nodes, 1.0 / (n_nodes - 1))
    w[0] = w[-1] = 0.5 / (n_nodes - 1)
    return float(np.sqrt(np.sum(w * np.sin(np.pi * x) ** 2)))


def seed_free_checks(command: str, body: str, outdir: str) -> list:
    """Checks that hold for any seed; returns the failures as text."""
    s = read_summary(outdir)
    bad = []
    if command == "control":
        # hum_solve's own bound is 10 cg_tol max(||y0||, ||y_free(T)||); the
        # free evolution is a contraction, so ||y0|| is the max.
        bound = 10.0 * _cfg_float(body, "cg.tol", 1e-10) \
            * _sine_norm(int(_cfg_float(body, "grid.N", 64)))
        gap = float(s["optimality_gap"])
        if not gap <= bound:
            bad.append(f"optimality gap {gap:.3e} > {bound:.3e}")
    elif command == "sweep":
        if not math.isfinite(float(s["slope"])):
            bad.append(f"sweep slope {s['slope']} is not finite")
    elif command == "observability":
        q = _csv_column(os.path.join(outdir, "observability.csv"), 1)
        if not (np.all(np.isfinite(q)) and np.all(q > 0.0)):
            bad.append("observability quotients not finite and positive")
    elif command == "carleman-audit":
        ratios = np.concatenate([
            _csv_column(os.path.join(outdir, "carleman.csv"), 2),
            _csv_column(os.path.join(outdir, "carleman.csv"), 3),
            _csv_column(os.path.join(outdir, "cacciopoli.csv"), 1)])
        if not np.all(np.isfinite(ratios)):
            bad.append("audit ratios not finite")
    elif command == "validate":
        if s.get("passed") != "True":
            bad.append("validate did not pass")
    elif command == "semilinear":
        tol = 10.0 * _cfg_float(body, "fp.tol", 1e-6)
        if s.get("converged") != "True":
            bad.append("semilinear did not converge")
        if not float(s["residual"]) <= tol:
            bad.append(f"semilinear residual {s['residual']} > {tol:.3e}")
    return bad


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_check(workload: str, name: str, got: dict, reference: dict) -> list:
    bad = []
    for key, want in reference.get(workload, {}).get(name, {}).items():
        if key not in got:
            bad.append(f"{name}: result {key} missing")
            continue
        g, w = np.asarray(got[key], dtype=float), np.asarray(want, dtype=float)
        tol = REF_RTOL * np.abs(w) + REF_ATOL.get(key, 1e-12)
        if g.shape != w.shape or not np.all(np.abs(g - w) <= tol):
            bad.append(f"{name}: {key} = {got[key]!r}, reference {want!r}")
    return bad
