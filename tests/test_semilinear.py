import dataclasses

import numpy as np
import pytest

from degen_control import mesh, pde, semilinear
from degen_control.control import hum_solve
from degen_control.errors import NoFixedPoint, UnboundedFrozenCoefficient
from degen_control.mesh import l2_norm
from degen_control.pde import Trajectory, solve_forward
from degen_control.semilinear import (Nonlinearity, freeze_coefficients,
                                      mixed_nonlinearity, picard_null_control,
                                      semilinear_forward, semilinear_residual,
                                      sine_nonlinearity, tanh_grad_nonlinearity,
                                      zero_nonlinearity)

from conftest import heat_problem, make_problem


def _const_traj(p, values):
    states = np.tile(values, (p.M + 1, 1))
    return Trajectory(grid=p.grid, times=p.times, states=states)


def test_freeze_sine_at_zero_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    b_f, c_f = freeze_coefficients(z, sine_nonlinearity(3.0))
    assert np.allclose(b_f, 3.0)          # sinc(0) = 1
    assert np.all(c_f == 0.0)


def test_freeze_tanh_grad_linear_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, 2.0 * p.grid.nodes)   # slope 2 everywhere
    b_f, c_f = freeze_coefficients(z, tanh_grad_nonlinearity())
    assert np.all(b_f == 0.0)
    expect = np.tanh(2.0) / 2.0
    assert np.allclose(c_f, expect, atol=1e-12)
    # constant in time
    assert np.allclose(c_f, c_f[0][None, :])


def test_freeze_zero_nonlinearity():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    b_f, c_f = freeze_coefficients(z, zero_nonlinearity())
    assert np.all(b_f == 0.0) and np.all(c_f == 0.0)


def test_freeze_cap_violation():
    runaway = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 7.0),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=1.0, c_cap=0.0)
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    with pytest.raises(UnboundedFrozenCoefficient):
        freeze_coefficients(z, runaway)


def test_nonlinearity_vanishes_at_origin():
    # f = b~ s + c~ beta p with beta(x) = x: the factors take their finite
    # limits m and 1 at s = p = 0, so f vanishes there
    nl = mixed_nonlinearity(0.7)
    x = np.linspace(0, 1, 9)
    zero = np.zeros_like(x)
    b = nl.b_factor(x, 0.3, zero, zero)
    c = nl.c_factor(x, 0.3, zero, zero)
    assert np.all(b == 0.7) and np.all(c == 1.0)
    assert np.all(b * zero + c * x * zero == 0.0)


def test_picard_zero_nonlinearity_reduces_to_linear():
    p = make_problem(N=48, M=48)
    rep = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6)
    hum = hum_solve(p, 1e-6)
    assert rep.t0 == 0.0                # no coast unless t0 is given
    assert rep.iterations == 2          # second pass confirms the first
    assert rep.converged
    assert np.array_equal(rep.hum.h, hum.h)
    assert rep.increments[-1] == 0.0


def test_picard_constant_reaction_two_iterations():
    const_b = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 0.3),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=0.3, c_cap=0.0)
    p = make_problem(N=48, M=48)
    rep = picard_null_control(p, const_b, epsilon=1e-6)
    assert rep.iterations == 2
    assert rep.converged


def test_picard_sine_converges_geometrically():
    p = make_problem(N=48, M=64)
    rep = picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6)
    assert rep.converged
    assert rep.iterations <= 20
    for a, b in zip(rep.increments[:-1], rep.increments[1:]):
        assert b <= 0.5 * a
    assert rep.residual <= 1e-5
    # control cost stays uniformly bounded across iterations
    y0n = l2_norm(p.grid, p.y0)
    assert max(rep.control_costs) <= 10.0 * y0n ** 2
    assert rep.cost_constant is not None


@pytest.mark.parametrize("nl", [tanh_grad_nonlinearity(), mixed_nonlinearity(0.5)])
def test_picard_gradient_nonlinearities_converge(nl):
    p = make_problem(N=48, M=64)
    rep = picard_null_control(p, nl, epsilon=1e-6)
    assert rep.converged
    assert rep.iterations <= 20
    assert rep.residual <= 1e-5


def test_picard_strong_degeneracy_converges():
    from degen_control.coefficients import power_coefficient
    p = make_problem(a=power_coefficient(1.5), N=48, M=64)
    rep = picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6)
    assert rep.converged
    assert rep.residual <= 1e-5


def test_picard_zero_datum():
    p = make_problem(N=32, M=16, y0=np.zeros(32))
    rep = picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6)
    assert rep.converged
    assert rep.hum.norm_yT == 0.0
    assert np.all(rep.hum.h == 0.0)


def test_picard_stress_never_silently_wrong():
    p = make_problem(N=32, M=32)
    try:
        rep = picard_null_control(p, sine_nonlinearity(50.0), epsilon=1e-6,
                                  max_fp_iters=8)
    except NoFixedPoint:
        return
    assert (not rep.converged) or rep.residual <= 1e-5


def test_semilinear_residual_detects_wrong_pair(rng):
    p = make_problem(N=32, M=32)
    nl = sine_nonlinearity(0.5)
    rep = picard_null_control(p, nl, epsilon=1e-6)
    assert semilinear_residual(p, nl, rep.hum.trajectory, rep.hum.h) <= 1e-5
    corrupted = Trajectory(grid=p.grid, times=p.times,
                           states=rep.hum.trajectory.states +
                           0.1 * rng.standard_normal(rep.hum.trajectory.states.shape))
    assert semilinear_residual(p, nl, corrupted, rep.hum.h) > 1e-2


def test_one_assembly_per_linear_problem_and_one_call_per_factor(monkeypatch):
    real_assemble = mesh.assemble_operator
    assemblies = []

    def counting_assemble(*args, **kwargs):
        assemblies.append(1)
        return real_assemble(*args, **kwargs)

    for module in (pde, semilinear):
        monkeypatch.setattr(module, "assemble_operator", counting_assemble)
    p = make_problem(N=32, M=24)
    rep = picard_null_control(p, mixed_nonlinearity(0.5), epsilon=1e-6)
    assert rep.iterations >= 2
    # the initial forward solve, one HUM solve per Picard step, the residual
    assert len(assemblies) == rep.iterations + 2

    factor_calls = []

    def counted(name, factor):
        def wrapped(*args):
            factor_calls.append(name)
            return factor(*args)
        return wrapped

    zero = zero_nonlinearity()
    nl = dataclasses.replace(zero, b_factor=counted("b", zero.b_factor),
                             c_factor=counted("c", zero.c_factor))
    b_f, c_f = freeze_coefficients(rep.hum.trajectory, nl)
    assert sorted(factor_calls) == ["b", "c"]
    assert b_f.shape == c_f.shape == (p.M + 1, p.grid.N)
    assert not np.any(b_f) and not np.any(c_f)


def test_semilinear_forward_matches_linear_for_zero_nl():
    p = make_problem(N=48, M=32)
    traj_semi = semilinear_forward(p, zero_nonlinearity())
    traj_lin = solve_forward(p)
    assert np.allclose(traj_semi.states, traj_lin.states, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("nl,N,T", [(sine_nonlinearity(-10.0), 64, 1.0),
                                     (mixed_nonlinearity(0.5), 48, 0.5)],
                         ids=["sine-10", "mixed-0.5"])
def test_coast_phase_solves_the_discrete_semilinear_equation(nl, N, T):
    # each coast step is its own fixed point, so the uncontrolled trajectory
    # satisfies the discrete semilinear equation at every level
    p = make_problem(N=N, M=32, T=T)
    traj = semilinear_forward(p, nl)
    assert semilinear_residual(p, nl, traj, np.zeros((p.M, p.grid.N))) <= 1e-9


def test_coast_phase_fails_closed():
    # the coast phase of a 64 x 64 run with T = 2, t0 = 1: every step's inner
    # iteration spends its budget on the stiff sine nonlinearity
    p = make_problem(N=64, M=32, T=1.0)
    p = dataclasses.replace(p, y0=3.0 * p.y0)
    with pytest.raises(NoFixedPoint, match="coast step 1"):
        semilinear_forward(p, sine_nonlinearity(-30.0))


def test_coast_phase_checks_the_caps():
    # the coast freezes through freeze_coefficients, so a factor above its
    # cap fails there as it does in the Picard loop
    runaway = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 2.0),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=1.0, c_cap=0.0)
    p = make_problem(N=32, M=16)
    with pytest.raises(UnboundedFrozenCoefficient):
        semilinear_forward(p, runaway)


def test_two_phase_zero_datum():
    p = make_problem(N=48, M=64, y0=np.zeros(48))
    rep = picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6, t0=0.125)
    assert rep.hum.norm_yT == 0.0
    assert np.all(rep.hum.h == 0.0)


def test_two_phase_matches_single_phase_from_smoothed_datum(rng):
    # rough datum, no nonlinearity: phase 2 equals the control run that
    # starts from the coasted state
    p = heat_problem(N=48, M=64, T=0.5)
    y0 = rng.standard_normal(p.grid.N)
    y0[[0, -1]] = 0.0
    p = dataclasses.replace(p, y0=y0)
    rep = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=p.T / 4)
    p_single = dataclasses.replace(p, T=p.T - rep.t0, M=p.M - 16,
                                   y0=rep.phase1_final)
    hum = hum_solve(p_single, 1e-6)
    assert rep.hum.norm_yT <= hum.norm_yT * (1.0 + 1e-9)
    assert rep.hum.norm_yT >= hum.norm_yT * (1.0 - 1e-9)


def test_two_phase_domain_guards():
    p = make_problem(N=32, M=32)
    with pytest.raises(ValueError):
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=p.T)
    with pytest.raises(ValueError):
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=-0.1)
    with pytest.raises(ValueError):
        # split leaves fewer than 8 steps in a phase
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=0.01)
