"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

from degen_control.carleman import build_weights, c2_threshold, ratio_experiment
from degen_control.cli import main as cli_main
from degen_control.cli import write_control_field
from degen_control.coefficients import (Case, classical_coefficient,
                                        power_coefficient, validate_coefficient,
                                        zero_drift)
from degen_control.control import epsilon_sweep, hum_solve, observability_estimate
from degen_control.errors import HypothesisViolated
from degen_control.mesh import build_grid, l2_norm
from degen_control.pde import LinearProblem, solve_adjoint, solve_forward
from degen_control.semilinear import (picard_null_control, sine_nonlinearity,
                                      zero_nonlinearity)

OMEGA = (0.3, 0.9)


def _problem(a, N, M, T, y0=None, omega=OMEGA):
    grid = build_grid(N, 1.0)
    if y0 is None:
        y0 = np.sin(np.pi * grid.nodes)
    return LinearProblem(a=a, drift=zero_drift(), T=T, omega=omega, grid=grid,
                         M=M, y0=y0)


def test_criterion_1_hypothesis_gate():
    start = time.perf_counter()
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 1.9):
        expected_case = Case.WDP if alpha < 1.0 else Case.SDP
        report = validate_coefficient(power_coefficient(alpha), expected_case)
        assert abs(report.K - alpha) <= 1e-8
        assert report.case_admissible is expected_case
        assert report.passed
    with pytest.raises(HypothesisViolated):
        validate_coefficient(power_coefficient(2.0), Case.SDP)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: hypothesis gate (K = alpha +- 1e-8, "
          f"alpha = 2 rejected, {elapsed:.2f} s)")


def test_criterion_2_duality_exactness():
    rng = np.random.default_rng(12021)
    cases = [("WDP a=x^0.5", power_coefficient(0.5)),
             ("SDP a=x^1.5", power_coefficient(1.5)),
             ("a=1", classical_coefficient())]
    worst = 0.0
    for _label, a in cases:
        p = _problem(a, N=64, M=64, T=0.5)
        act = p.active()
        w = p.grid.weights[act]
        mask_w = w * p.omega_mask()[act]
        for _ in range(20):
            y0 = rng.standard_normal(p.grid.N)
            vT = rng.standard_normal(p.grid.N)
            h = rng.standard_normal((p.M, p.grid.N))
            y = solve_forward(dataclasses.replace(p, y0=y0), h)
            v = solve_adjoint(p, vT)
            t1 = float(np.sum(w * y[-1][act] * vT[act]))
            t2 = float(np.sum(w * y0[act] * v[0][act]))
            t3 = p.dt * float(np.sum(mask_w * h[:, act] * v[:-1][:, act]))
            rel = abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))
            worst = max(worst, rel)
            assert rel <= 1e-10
    # brute-force transpose equivalence on a small instance
    for a in (power_coefficient(0.5), power_coefficient(1.5)):
        p = _problem(a, N=12, M=12, T=0.5)
        act = p.active()
        idx = np.arange(p.grid.N)[act]
        n = idx.size
        F = np.zeros((n, n))
        G = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(p.grid.N)
            e[idx[j]] = 1.0
            F[:, j] = solve_forward(dataclasses.replace(p, y0=e))[-1][act]
            G[:, j] = solve_adjoint(p, e)[0][act]
        w = p.grid.weights[act]
        assert np.max(np.abs(G - (F.T * w[None, :]) / w[:, None])) <= 1e-12
    print(f"\n[PASS] criterion 2: duality exactness (worst relative residual "
          f"{worst:.2e} <= 1e-10; transpose match <= 1e-12)")


def test_criterion_3_heat_oracle_and_temporal_order():
    p = _problem(classical_coefficient(), N=128, M=256, T=0.1)
    traj = solve_forward(p)
    exact = np.exp(-np.pi ** 2 * p.T) * np.sin(np.pi * p.grid.nodes)
    err = float(np.max(np.abs(traj[-1] - exact)))
    assert err <= 2e-3

    errs = []
    for M in (32, 64, 128):
        pM = _problem(classical_coefficient(), N=256, M=M, T=0.1)
        e = np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * pM.grid.nodes)
        errs.append(np.max(np.abs(solve_forward(pM)[-1] - e)))
    slope = float(np.polyfit(np.log([0.1 / 32, 0.1 / 64, 0.1 / 128]),
                             np.log(errs), 1)[0])
    assert abs(slope - 1.0) <= 0.2
    print(f"\n[PASS] criterion 3: heat oracle (max err {err:.2e} <= 2e-3, "
          f"temporal order {slope:.2f} in 1 +- 0.2)")


def test_criterion_4_weight_validity():
    a = power_coefficient(0.5)
    grid = build_grid(128, 1.0)
    w = build_weights(a, OMEGA, T=0.5, grid=grid)
    assert w.c2 == pytest.approx(0.7, abs=1e-12)
    assert w.c2 > c2_threshold(a) == pytest.approx(2 / 3)
    assert w.kappa_minus == pytest.approx(0.5, abs=1e-15)
    assert w.kappa_plus == pytest.approx(0.7, abs=1e-15)
    psi = w.psi_deg(grid.nodes)
    assert np.all(psi > 0.0)
    region = grid.nodes[(grid.nodes > w.kappa_plus) & (grid.nodes < OMEGA[1])]
    assert region.size > 0
    assert np.all(np.abs(w.eta_prime(region)) > 0.0)
    print("\n[PASS] criterion 4: weight validity (c2 = 0.7 > 2/3, kappa = "
          "(0.5, 0.7), psi_deg > 0, eta' != 0 on (kappa+, 0.9))")


def test_criterion_5_carleman_boundedness_audit():
    start = time.perf_counter()
    s_values = [1, 2, 4, 8, 16, 32]
    T_audit = 3.0
    summary = []
    for label, a in (("WDP", power_coefficient(0.5)),
                     ("SDP", power_coefficient(1.5))):
        for variant in ("lemma", "theorem"):
            max_by_N = {}
            for N in (64, 128):
                p = _problem(a, N=N, M=128, T=T_audit, y0=np.zeros(N))
                w = build_weights(a, OMEGA, T=T_audit, lam=0.5, grid=p.grid)
                res = ratio_experiment(p, w, s_values, 50, variant,
                                       np.random.default_rng(7))
                assert all(np.isfinite(r) and r > 0.0 for r in res.max_ratios)
                max_by_N[N] = res.max_ratios
            for m64, m128 in zip(max_by_N[64], max_by_N[128]):
                assert abs(m128 - m64) <= 0.20 * m64
            summary.append(f"{label}/{variant} C={max(max_by_N[128]):.3g}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 5: Carleman audit finite and refinement-stable "
          f"<= 20% ({'; '.join(summary)}; {elapsed:.1f} s)")


def test_criterion_6_observability_stability():
    vals = {}
    for label, a in (("a=1", classical_coefficient()),
                     ("a=x^0.5", power_coefficient(0.5)),
                     ("a=x^1.5", power_coefficient(1.5))):
        per_n = {}
        for N in (64, 128):
            p = _problem(a, N=N, M=128, T=0.5, y0=np.zeros(N))
            rep = observability_estimate(p, 100, power_iters=10,
                                         rng=np.random.default_rng(11))
            assert np.isfinite(rep.max_quotient) and rep.max_quotient > 0.0
            per_n[N] = rep.max_quotient
        assert abs(per_n[128] - per_n[64]) <= 0.25 * per_n[64]
        vals[label] = per_n[128]
    print(f"\n[PASS] criterion 6: observability quotient finite over 100 "
          f"samples, stable <= 25% (quotients: "
          + ", ".join(f"{k}={v:.3g}" for k, v in vals.items()) + ")")


def test_criterion_7_null_control_sweep():
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    cg_tol = 1e-10
    lines = []
    for label, a in (("a=1", classical_coefficient()),
                     ("a=x^0.5", power_coefficient(0.5))):
        start = time.perf_counter()
        p = _problem(a, N=64, M=128, T=0.5)
        y0n = l2_norm(p.grid.weights, p.y0)
        res = epsilon_sweep(p, eps_list)
        assert 0.35 <= res.slope <= 0.65
        assert res.cost_ratio <= 10.0
        for row in res.rows:
            assert row.optimality_gap <= 10.0 * cg_tol * y0n
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0
        lines.append(f"{label}: slope {res.slope:.3f}, cost ratio "
                     f"{res.cost_ratio:.2f}, {elapsed:.1f} s")
    print("\n[PASS] criterion 7: null-control sweep (" + "; ".join(lines) + ")")


def test_criterion_8_semilinear_fixed_point(tmp_path):
    a = power_coefficient(0.5)
    nl = sine_nonlinearity(0.5)
    costs = {}
    for N in (64, 128):
        p = _problem(a, N=N, M=128, T=0.5)
        rep = picard_null_control(p, nl, epsilon=1e-6)
        assert rep.converged
        assert rep.iterations <= 20
        for first, second in zip(rep.increments[:-1], rep.increments[1:]):
            assert second <= 0.5 * first
        assert rep.residual <= 1e-5
        costs[N] = rep.cost_constant
    assert abs(costs[128] - costs[64]) <= 0.25 * costs[64]

    # f == 0 reduces to the linear control, matching table bytes
    p = _problem(a, N=64, M=128, T=0.5)
    rep0 = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6)
    hum = hum_solve(p, 1e-6)
    assert rep0.iterations <= 2
    assert np.array_equal(rep0.hum.h, hum.h)
    path_a = tmp_path / "picard_control.csv"
    path_b = tmp_path / "hum_control.csv"
    write_control_field(path_a, p.times[:-1], p.grid.nodes, rep0.hum.h)
    write_control_field(path_b, p.times[:-1], p.grid.nodes, hum.h)
    assert path_a.read_bytes() == path_b.read_bytes()
    print(f"\n[PASS] criterion 8: semilinear fixed point (iters <= 20, "
          f"geometric increments, residual <= 1e-5, C stable "
          f"{abs(costs[128] - costs[64]) / costs[64]:.2%}; f=0 bit-for-bit)")


def test_criterion_9_two_phase_control():
    rng = np.random.default_rng(7)
    a = power_coefficient(0.5)
    grid = build_grid(64, 1.0)
    y0 = rng.standard_normal(grid.N)
    y0[[0, -1]] = 0.0
    p = LinearProblem(a=a, drift=zero_drift(), T=0.5, omega=OMEGA, grid=grid,
                      M=128, y0=y0)
    nl = sine_nonlinearity(0.5)
    rep = picard_null_control(p, nl, epsilon=1e-6, t0=p.T / 4)
    assert rep.converged
    p_single = dataclasses.replace(p, T=p.T - rep.t0, M=p.M - 32,
                                   y0=rep.phase1_final)
    single = picard_null_control(p_single, nl, epsilon=1e-6)
    ratio = rep.hum.norm_yT / single.hum.norm_yT
    assert 0.5 <= ratio <= 2.0
    print(f"\n[PASS] criterion 9: two-phase control (final-state ratio "
          f"{ratio:.3f} within 2x of single-phase from y(t0))")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
command = observability
a.kind = power
a.alpha = 0.5
grid.N = 64
M = 64
T = 0.5
omega = 0.3,0.9
samples = 25
power.iters = 5
""")

    def run(outdir):
        assert cli_main([str(cfg), "--out", str(outdir), "--seed", "424242"]) == 0
        digests = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    first = run(tmp_path / "r1")
    second = run(tmp_path / "r2")
    assert first == second and len(first) >= 2
    print("\n[PASS] criterion 10: determinism (byte-identical tables across "
          "two seeded runs)")
