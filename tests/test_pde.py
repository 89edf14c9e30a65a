import dataclasses

import numpy as np
import pytest

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control import pde
from degen_control.cli import cmd_solve
from degen_control.config import Config
from degen_control.control import hum_solve
from degen_control.errors import SolverBreakdown
from degen_control.mesh import build_grid, l2_norm
from degen_control.pde import LinearProblem, solve_adjoint, solve_forward

from conftest import heat_problem, make_problem


def duality_residual(p, y0, h, vT):
    """|<y(T), vT> - <y0, v(0)> - sum_n dt <h^n, v^n>_omega|, zero up to
    round-off because the adjoint is the exact transpose of the forward map."""
    act = p.active()
    w = p.grid.weights[act]
    y = solve_forward(dataclasses.replace(p, y0=y0), h)
    v = solve_adjoint(p, vT)
    t_final = float(np.sum(w * y.final()[act] * vT[act]))
    t_init = float(np.sum(w * y0[act] * v.states[0][act]))
    t_ctrl = p.dt * float(np.sum(w * p.omega_mask()[act] * h[:, act] * v.states[:-1, act]))
    return abs(t_final - t_init - t_ctrl)


def test_heat_oracle():
    # closed-form heat decay e^{-pi^2 t} sin(pi x)
    p = heat_problem(N=128, M=256, T=0.1)
    traj = solve_forward(p)
    exact = np.exp(-np.pi ** 2 * p.T) * np.sin(np.pi * p.grid.nodes)
    assert np.max(np.abs(traj.final() - exact)) <= 2e-3


def test_zero_data_stays_zero():
    p = make_problem(y0=np.zeros(65), N=65)
    traj = solve_forward(p)
    assert np.all(traj.states == 0.0)
    v = solve_adjoint(p, np.zeros(p.grid.N))
    assert np.all(v.states == 0.0)


def test_superposition(rng):
    p = make_problem(N=48, M=32, b0=0.4, c0=0.3)
    h1 = rng.standard_normal((p.M, p.grid.N))
    h2 = rng.standard_normal((p.M, p.grid.N))
    y0 = rng.standard_normal(p.grid.N)
    full = solve_forward(dataclasses.replace(p, y0=y0), h1 + h2)
    part = solve_forward(dataclasses.replace(p, y0=y0), h1).states \
        + solve_forward(dataclasses.replace(p, y0=np.zeros(p.grid.N)), h2).states
    scale = np.max(np.abs(full.states))
    assert np.max(np.abs(full.states - part)) <= 1e-12 * scale


def test_selfadjoint_case_reverses_in_time(rng):
    # with b = c = 0 the operator is self-adjoint, so the backward adjoint
    # trajectory is the forward trajectory of the same data, time-reversed
    p = heat_problem(N=64, M=32, T=0.2)
    vT = rng.standard_normal(p.grid.N)
    vT[0] = vT[-1] = 0.0
    back = solve_adjoint(p, vT)
    forth = solve_forward(dataclasses.replace(p, y0=vT))
    assert np.allclose(back.states, forth.states[::-1], rtol=1e-12, atol=1e-14)


def test_adjoint_initial_norm_bounded(rng):
    p = make_problem(N=48, M=48, b0=0.3, c0=0.2)
    ratios = []
    for _ in range(100):
        vT = rng.standard_normal(p.grid.N)
        vT[0] = vT[-1] = 0.0
        v = solve_adjoint(p, vT)
        ratios.append(l2_norm(p.grid, v.states[0]) / l2_norm(p.grid, vT))
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < 10.0


def test_duality_trivial():
    p = make_problem(N=32, M=16)
    vT = np.sin(np.pi * p.grid.nodes)
    assert duality_residual(p, np.zeros(p.grid.N), np.zeros((p.M, p.grid.N)),
                            vT) == 0.0


@pytest.mark.parametrize("a", [classical_coefficient(), power_coefficient(0.5),
                               power_coefficient(1.5)])
def test_duality_random_inputs(a, rng):
    p = make_problem(a=a, N=64, M=64, b0=0.2, c0=0.1)
    act = p.active()
    w = p.grid.weights[act]
    for _ in range(5):
        y0 = rng.standard_normal(p.grid.N)
        vT = rng.standard_normal(p.grid.N)
        h = rng.standard_normal((p.M, p.grid.N))
        res = duality_residual(p, y0, h, vT)
        y = solve_forward(dataclasses.replace(p, y0=y0), h)
        scale = abs(float(np.sum(w * y.final()[act] * vT[act])))
        assert res <= 1e-10 * max(scale, 1e-12)


def test_duality_on_graded_grid(rng):
    # node grading changes the quadrature weights; the transpose construction
    # must keep the identity exact regardless
    p = make_problem(a=power_coefficient(1.5), N=64, M=64, gamma=2.0,
                     b0=0.3, c0=0.2, T=0.4, y0=np.zeros(64))
    act = p.active()
    w = p.grid.weights[act]
    for _ in range(5):
        y0 = rng.standard_normal(p.grid.N)
        vT = rng.standard_normal(p.grid.N)
        h = rng.standard_normal((p.M, p.grid.N))
        res = duality_residual(p, y0, h, vT)
        y = solve_forward(dataclasses.replace(p, y0=y0), h)
        scale = abs(float(np.sum(w * y.final()[act] * vT[act])))
        assert res <= 1e-10 * max(scale, 1e-12)


def test_transpose_equivalence_brute_force():
    # the v(0) map must equal W^-1 F^T W for the y0 -> y(T) map F
    for a in (power_coefficient(0.5), power_coefficient(1.5)):
        p = make_problem(a=a, N=12, M=12, b0=0.5, c0=0.25)
        act = p.active()
        n = act.size
        F = np.zeros((n, n))
        G = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(p.grid.N)
            e[act[j]] = 1.0
            F[:, j] = solve_forward(dataclasses.replace(p, y0=e)).final()[act]
            G[:, j] = solve_adjoint(p, e).states[0][act]
        w = p.grid.weights[act]
        expected = (F.T * w[None, :]) / w[:, None]
        assert np.max(np.abs(G - expected)) <= 1e-12


def test_unconditional_stability():
    g = build_grid(64, 1.0)
    y0 = np.sin(np.pi * g.nodes)
    for M in (8, 80, 800):
        p = LinearProblem(a=power_coefficient(0.5), drift=constant_drift(1.0, 0.0),
                          T=0.5, omega=(0.3, 0.9), grid=g, M=M, y0=y0)
        traj = solve_forward(p)
        assert traj.sup_l2() <= l2_norm(g, y0) * (1.0 + 1e-12)


def test_temporal_order_one():
    errs = []
    for M in (32, 64, 128):
        p = heat_problem(N=256, M=M, T=0.1)
        traj = solve_forward(p)
        exact = np.exp(-np.pi ** 2 * p.T) * np.sin(np.pi * p.grid.nodes)
        errs.append(np.max(np.abs(traj.final() - exact)))
    slope = np.polyfit(np.log([0.1 / 32, 0.1 / 64, 0.1 / 128]), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.2


@pytest.mark.parametrize("b0,c0", [(0.0, 1.0), (2.0, 1.0), (0.0, -1.0)])
def test_manufactured_steady_state_with_drift(b0, c0):
    # y = sin(pi x) solves y_t - y_xx + b y + x c y_x = h with
    # h = pi^2 sin(pi x) + b sin(pi x) + pi c x cos(pi x); the forward run
    # must hold that profile (source applied on a control region covering
    # every interior node)
    N, M, T = 128, 256, 0.2
    g = build_grid(N, 1.0)
    p = LinearProblem(a=classical_coefficient(), drift=constant_drift(b0, c0),
                      T=T, omega=(1e-9, 1.0 - 1e-9), grid=g, M=M,
                      y0=np.sin(np.pi * g.nodes))
    x = g.nodes
    h_row = (np.pi ** 2 + b0) * np.sin(np.pi * x) \
        + np.pi * c0 * x * np.cos(np.pi * x)
    traj = solve_forward(p, np.tile(h_row, (M, 1)))
    assert np.max(np.abs(traj.final() - np.sin(np.pi * x))) <= 5e-3


def test_solver_breakdown():
    null_a = DegeneracyCoefficient(
        eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        K=0.0, case=Case.WDP, label="null")
    g = build_grid(16, 1.0)
    M = 16
    drift = constant_drift(-M / 0.5, 0.0)   # makes I + dt A vanish exactly
    p = LinearProblem(a=null_a, drift=drift, T=0.5, omega=(0.3, 0.9), grid=g,
                      M=M, y0=np.sin(np.pi * g.nodes))
    with pytest.raises(SolverBreakdown):
        solve_forward(p)
    with pytest.raises(SolverBreakdown):
        solve_adjoint(p, p.y0)


def test_problem_invariants():
    g = build_grid(16, 1.0)
    y0 = np.zeros(16)
    a = power_coefficient(0.5)
    with pytest.raises(ValueError):
        LinearProblem(a=a, drift=zero_drift(), T=0.5, omega=(0.9, 0.3),
                      grid=g, M=16, y0=y0)
    with pytest.raises(ValueError):
        LinearProblem(a=a, drift=zero_drift(), T=-1.0, omega=(0.3, 0.9),
                      grid=g, M=16, y0=y0)
    with pytest.raises(ValueError):
        LinearProblem(a=a, drift=zero_drift(), T=0.5, omega=(0.3, 0.9),
                      grid=g, M=4, y0=y0)
    with pytest.raises(ValueError):
        LinearProblem(a=a, drift=zero_drift(), T=0.5, omega=(0.3, 0.9),
                      grid=g, M=16, y0=np.zeros(8))


def test_drift_table_must_cover_every_time_node():
    # the step to t_{k+1} reads row k+1, so a table needs M + 1 rows; one
    # with M rows would leave the last step without coefficients
    g = build_grid(16, 1.0)
    kwargs = dict(a=power_coefficient(0.5), T=0.5, omega=(0.3, 0.9), grid=g, M=16,
                  y0=np.zeros(16))
    for name in ("b", "c"):
        for shape in ((16, 16), (18, 16), (17, 15), (15,), (1, 16)):
            drift = dataclasses.replace(zero_drift(), **{name: np.zeros(shape)})
            with pytest.raises(ValueError, match=f"drift {name} must be"):
                LinearProblem(drift=drift, **kwargs)
        for shape in ((17, 16), (16,)):
            LinearProblem(drift=dataclasses.replace(zero_drift(), **{name: np.ones(shape)}),
                          **kwargs)


def test_replace_resets_step_cache():
    p = make_problem(N=24, M=16)
    solve_forward(p)        # populates the factor cache
    p2 = dataclasses.replace(p, drift=constant_drift(5.0, 0.0))
    assert p2._cache == {}
    r1 = solve_forward(p).final()
    r2 = solve_forward(p2).final()
    assert not np.allclose(r1, r2)


@pytest.mark.parametrize("time_dependent", [False, True])
def test_step_matrix_factored_once_per_time_level(monkeypatch, time_dependent):
    factorizations = []
    real_dgttrf = pde.dgttrf

    def counting_dgttrf(*args, **kwargs):
        factorizations.append(1)
        return real_dgttrf(*args, **kwargs)

    monkeypatch.setattr(pde, "dgttrf", counting_dgttrf)
    p = make_problem(N=24, M=16, b0=0.3, c0=0.2)
    if time_dependent:
        p = p.with_drift(dataclasses.replace(p.drift, b=np.full((p.M + 1, p.grid.N), p.drift.b)))
    hum_solve(p, 1e-4)
    # one forward and one adjoint factorisation per distinct time level
    assert len(factorizations) == (2 * p.M if time_dependent else 2)


@pytest.mark.parametrize("table", [False, True], ids=["constant", "table"])
@pytest.mark.parametrize("with_src", [False, True], ids=["no-src", "src"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_march_matches_stepwise_reference(monkeypatch, rng, adjoint, with_src, table):
    p = make_problem(N=24, M=16, b0=0.3, c0=0.2)
    if table:
        b = 0.3 * (1.0 + 0.5 * np.sin(p.times))[:, None] * np.ones(p.grid.N)
        p = p.with_drift(dataclasses.replace(p.drift, b=b))
    n = p.active().size
    u = rng.standard_normal(n)
    src = rng.standard_normal((p.M, n)) if with_src else None
    u_in, src_in = u.copy(), None if src is None else src.copy()

    # the step recursion of march's docstring, one fresh solution per step
    factors = pde._step_factors(p, adjoint)
    ref = np.empty((p.M + 1, n))
    ref[p.M if adjoint else 0] = u
    for k in (range(p.M - 1, -1, -1) if adjoint else range(p.M)):
        prev, new = (k + 1, k) if adjoint else (k, k + 1)
        rhs = ref[prev] if src is None else ref[prev] + p.dt * src[k]
        ref[new] = pde._step_solve(factors[k], rhs)

    rhs_dims = []
    real_dgttrs = pde.dgttrs

    def counting_dgttrs(*args, **kwargs):
        rhs_dims.append(np.ndim(args[5]))
        return real_dgttrs(*args, **kwargs)

    monkeypatch.setattr(pde, "dgttrs", counting_dgttrs)
    states = pde.march(p, u, src, adjoint)
    assert np.array_equal(states, ref)
    assert np.array_equal(u, u_in)
    assert src is None or np.array_equal(src, src_in)
    # one single-column solve per step, in place in the output
    assert rhs_dims == [1] * p.M


def test_stability_ratio_reported(tmp_path):
    # solve reports C_T = sup_n ||y^n|| / ||y^0||: 1 for a decaying heat
    # profile, 0 for a zero datum
    ratios = {}
    for kind in ("sine", "zero"):
        cfg = Config({"a.kind": "expr-catalog", "a.name": "classical",
                      "grid.N": "32", "M": "16", "T": "0.1", "y0.kind": kind})
        last = cmd_solve(cfg, str(tmp_path), np.random.default_rng(0))[-1]
        assert last.startswith("C_T = ")
        ratios[kind] = float(last.split(" = ")[1])
    assert ratios["sine"] == pytest.approx(1.0, abs=1e-12)
    assert ratios["zero"] == 0.0


def test_trajectory_norms_are_consistent(rng):
    p = make_problem(N=32, M=16)
    traj = solve_forward(dataclasses.replace(p, y0=rng.standard_normal(p.grid.N)))
    # L^2(Q) by the trapezoid rule in time, which z_norm adds the energy to
    tw = np.full(p.M + 1, p.dt)
    tw[[0, -1]] = 0.5 * p.dt
    l2_Q = np.sqrt(np.sum(tw * np.sum(p.grid.weights * traj.states ** 2, axis=1)))
    assert traj.z_norm(p.a) >= l2_Q > 0.0
    assert traj.sup_l2() > 0.0
