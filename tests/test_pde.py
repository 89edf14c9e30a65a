import dataclasses

import numpy as np
import pytest

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control import pde
from degen_control.control import hum_solve
from degen_control.errors import SolverBreakdown
from degen_control.mesh import build_grid, l2_norm
from degen_control.pde import (LinearProblem, duality_residual, solve_adjoint,
                               solve_forward)

from conftest import heat_problem, make_problem


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
    full = solve_forward(p.with_y0(y0), h1 + h2)
    part = solve_forward(p.with_y0(y0), h1).states \
        + solve_forward(p.with_y0(np.zeros(p.grid.N)), h2).states
    scale = np.max(np.abs(full.states))
    assert np.max(np.abs(full.states - part)) <= 1e-12 * scale


def test_selfadjoint_case_reverses_in_time(rng):
    # with b = c = 0 the operator is self-adjoint, so the backward adjoint
    # trajectory is the forward trajectory of the same data, time-reversed
    p = heat_problem(N=64, M=32, T=0.2)
    vT = rng.standard_normal(p.grid.N)
    vT[0] = vT[-1] = 0.0
    back = solve_adjoint(p, vT)
    forth = solve_forward(p.with_y0(vT))
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
        y = solve_forward(p.with_y0(y0), h)
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
        y = solve_forward(p.with_y0(y0), h)
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
            F[:, j] = solve_forward(p.with_y0(e)).final()[act]
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
    p = p.with_drift(dataclasses.replace(p.drift, time_dependent=time_dependent))
    hum_solve(p, 1e-4)
    # one forward and one adjoint factorisation per distinct time level
    assert len(factorizations) == (2 * p.M if time_dependent else 2)


def test_stability_ratio_reported():
    p = heat_problem(N=32, M=16)
    traj = solve_forward(p)
    assert traj.stability_ratio == pytest.approx(1.0, abs=1e-12)
    zero = solve_forward(p.with_y0(np.zeros(p.grid.N)))
    assert zero.stability_ratio == 0.0


def test_trajectory_norms_are_consistent(rng):
    p = make_problem(N=32, M=16)
    traj = solve_forward(p.with_y0(rng.standard_normal(p.grid.N)))
    assert traj.z_norm(p.a) >= traj.l2_Q() > 0.0
    assert traj.sup_l2() > 0.0
