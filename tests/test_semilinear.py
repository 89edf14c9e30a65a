import dataclasses

import numpy as np
import pytest

from degen_control import mesh, pde, semilinear
from degen_control.coefficients import linear_beta
from degen_control.control import hum_solve
from degen_control.errors import NoFixedPoint, UnboundedFrozenCoefficient
from degen_control.mesh import l2_norm
from degen_control.pde import Trajectory, solve_forward
from degen_control.semilinear import (Nonlinearity, freeze_coefficients,
                                      mixed_nonlinearity, picard_null_control,
                                      semilinear_forward, semilinear_residual,
                                      sine_nonlinearity, tanh_grad_nonlinearity,
                                      two_phase_control, validate_nonlinearity,
                                      zero_nonlinearity)

from conftest import heat_problem, make_problem


def _const_traj(p, values):
    states = np.tile(values, (p.M + 1, 1))
    return Trajectory(grid=p.grid, times=p.times, states=states, case=p.case)


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
        b_cap=1.0, c_cap=0.0, lipschitz_L=7.0, name="runaway")
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    with pytest.raises(UnboundedFrozenCoefficient):
        freeze_coefficients(z, runaway)
    with pytest.raises(UnboundedFrozenCoefficient):
        validate_nonlinearity(runaway)


def test_validate_nonlinearity_catalog():
    for nl in (zero_nonlinearity(), sine_nonlinearity(0.5),
               tanh_grad_nonlinearity(), mixed_nonlinearity(0.5)):
        report = validate_nonlinearity(nl, beta=linear_beta(1.0))
        assert report["lipschitz_observed"] <= nl.lipschitz_L * (1 + 1e-9) + 1e-12


def test_validate_nonlinearity_rejects_understated_lipschitz():
    lying = Nonlinearity(
        b_factor=sine_nonlinearity(1.0).b_factor,
        c_factor=sine_nonlinearity(1.0).c_factor,
        b_cap=1.0, c_cap=0.0, lipschitz_L=0.05, name="lying")
    with pytest.raises(ValueError):
        validate_nonlinearity(lying)


def test_nonlinearity_vanishes_at_origin():
    nl = mixed_nonlinearity(0.7)
    x = np.linspace(0, 1, 9)
    val = nl.f(linear_beta(1.0), x, 0.3, np.zeros_like(x), np.zeros_like(x))
    assert np.all(val == 0.0)


def test_picard_zero_nonlinearity_reduces_to_linear():
    p = make_problem(N=48, M=48)
    rep = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6)
    hum = hum_solve(p, 1e-6)
    assert rep.iterations == 2          # second pass confirms the first
    assert rep.converged
    assert np.array_equal(rep.h, hum.h)
    assert rep.increments[-1] == 0.0


def test_picard_constant_reaction_two_iterations():
    const_b = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 0.3),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=0.3, c_cap=0.0, lipschitz_L=0.3, name="const")
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
    assert rep.final_norm_yT == 0.0
    assert np.all(rep.h == 0.0)


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
    assert semilinear_residual(p, nl, rep.trajectory, rep.h) <= 1e-5
    corrupted = Trajectory(grid=p.grid, times=p.times,
                           states=rep.trajectory.states +
                           0.1 * rng.standard_normal(rep.trajectory.states.shape),
                           case=p.case)
    assert semilinear_residual(p, nl, corrupted, rep.h) > 1e-2


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
    b_f, c_f = freeze_coefficients(rep.trajectory, nl)
    assert sorted(factor_calls) == ["b", "c"]
    assert b_f.shape == c_f.shape == (p.M + 1, p.grid.N)
    assert not np.any(b_f) and not np.any(c_f)


def test_semilinear_forward_matches_linear_for_zero_nl():
    p = make_problem(N=48, M=32)
    traj_semi = semilinear_forward(p, zero_nonlinearity())
    traj_lin = solve_forward(p)
    assert np.allclose(traj_semi.states, traj_lin.states, rtol=1e-12, atol=1e-15)


def test_two_phase_zero_t0_is_identical():
    p = make_problem(N=48, M=48)
    nl = sine_nonlinearity(0.5)
    rep_direct = picard_null_control(p, nl, epsilon=1e-6)
    rep_two = two_phase_control(p, nl, t0=0.0, epsilon=1e-6)
    assert rep_two.t0 == 0.0
    assert rep_two.increments == rep_direct.increments
    assert np.array_equal(rep_two.h, rep_direct.h)


def test_two_phase_zero_datum():
    p = make_problem(N=48, M=64, y0=np.zeros(48))
    rep = two_phase_control(p, sine_nonlinearity(0.5), t0=0.125, epsilon=1e-6)
    assert rep.final_norm_yT == 0.0
    assert np.all(rep.h == 0.0)


def test_two_phase_matches_single_phase_from_smoothed_datum(rng):
    # rough datum, no nonlinearity: phase 2 equals the control run that
    # starts from the coasted state
    p = heat_problem(N=48, M=64, T=0.5)
    y0 = rng.standard_normal(p.grid.N)
    y0[[0, -1]] = 0.0
    p = p.with_y0(y0)
    rep = two_phase_control(p, zero_nonlinearity(), t0=p.T / 4, epsilon=1e-6)
    import dataclasses
    p_single = dataclasses.replace(p, T=p.T - rep.t0, M=p.M - 16,
                                   y0=rep.phase1_final)
    hum = hum_solve(p_single, 1e-6)
    assert rep.final_norm_yT <= hum.norm_yT * (1.0 + 1e-9)
    assert rep.final_norm_yT >= hum.norm_yT * (1.0 - 1e-9)


def test_two_phase_domain_guards():
    p = make_problem(N=32, M=32)
    with pytest.raises(ValueError):
        two_phase_control(p, zero_nonlinearity(), t0=p.T, epsilon=1e-6)
    with pytest.raises(ValueError):
        two_phase_control(p, zero_nonlinearity(), t0=-0.1, epsilon=1e-6)
    with pytest.raises(ValueError):
        # split leaves fewer than 8 steps in a phase
        two_phase_control(p, zero_nonlinearity(), t0=0.01, epsilon=1e-6)
