import dataclasses

import numpy as np
import pytest

from degen_control import mesh, pde, semilinear
from degen_control.coefficients import power_coefficient
from degen_control.control import diffusion_preconditioner, hum_solve
from degen_control.errors import (NoConvergence, NoFixedPoint, NonFiniteIntegral,
                                  UnboundedFrozenCoefficient)
from degen_control.mesh import hardy_check, l2_norm
from degen_control.pde import solve_forward
from degen_control.semilinear import (Nonlinearity, freeze_coefficients,
                                      frozen_problem, mixed_nonlinearity,
                                      picard_null_control,
                                      semilinear_forward, semilinear_residual,
                                      sine_nonlinearity, tanh_grad_nonlinearity,
                                      zero_nonlinearity)

from conftest import heat_problem, make_problem


def _const_traj(p, values):
    return np.tile(values, (p.M + 1, 1))


def test_freeze_sine_at_zero_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    b_f, c_f = freeze_coefficients(p.grid.nodes, p.times, z, sine_nonlinearity(3.0))
    assert np.allclose(b_f, 3.0)          # sinc(0) = 1
    assert np.all(c_f == 0.0)


def test_freeze_tanh_grad_linear_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, 2.0 * p.grid.nodes)   # slope 2 everywhere
    b_f, c_f = freeze_coefficients(p.grid.nodes, p.times, z, tanh_grad_nonlinearity())
    assert np.all(b_f == 0.0)
    expect = np.tanh(2.0) / 2.0
    assert np.allclose(c_f, expect, atol=1e-12)
    # constant in time
    assert np.allclose(c_f, c_f[0][None, :])


def test_freeze_zero_nonlinearity():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    b_f, c_f = freeze_coefficients(p.grid.nodes, p.times, z, zero_nonlinearity())
    assert np.all(b_f == 0.0) and np.all(c_f == 0.0)


def test_freeze_cap_violation():
    runaway = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 7.0),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=1.0, c_cap=0.0)
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    with pytest.raises(UnboundedFrozenCoefficient):
        freeze_coefficients(p.grid.nodes, p.times, z, runaway)


@pytest.mark.parametrize("nl", [sine_nonlinearity(0.5), tanh_grad_nonlinearity()],
                         ids=["sine", "tanh-grad"])
def test_freeze_rejects_a_nonfinite_state(nl):
    # a NaN would pass the sine cap check as a NaN b, and tanh-grad would
    # freeze its NaN slope to c = 1; both name the time of the bad level
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    z[3, 7] = np.nan
    with pytest.raises(NonFiniteIntegral, match=f"at t = {p.times[3]:.6g}"):
        freeze_coefficients(p.grid.nodes, p.times, z, nl)


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


def _drift_problem(drift, N, M):
    """make_problem with b = 0.3 and c = 0.2 held as ``drift`` says: "none"
    is b = c = 0, and "vector" and "table" hold the constants in the other
    shapes the drift takes."""
    if drift == "none":
        return make_problem(N=N, M=M)
    p = make_problem(N=N, M=M, b0=0.3, c0=0.2)
    shape = {"constant": (), "vector": (N,), "table": (M + 1, N)}[drift]
    return p.with_drift(dataclasses.replace(p.drift, b=np.full(shape, 0.3),
                                            c=np.full(shape, 0.2)))


DRIFTS = ["none", "constant", "vector", "table"]


def test_picard_zero_nonlinearity_reduces_to_linear():
    # the frozen factors add to the linear b and c, so with f = 0 the loop
    # is the linear control of the whole equation, under the loop's
    # preconditioner
    for drift in DRIFTS:
        p = _drift_problem(drift, N=48, M=48)
        rep = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6)
        hum = hum_solve(p, 1e-6, precond=diffusion_preconditioner(p, 1e-6))
        assert rep.t0 == 0.0, drift            # no coast unless t0 is given
        assert rep.iterations == 2, drift      # second pass confirms the first
        assert rep.converged, drift
        assert np.array_equal(rep.hum.h, hum.h), drift
        assert rep.increments[-1] == 0.0, drift


def test_picard_warm_start_spends_fewer_cg_iterations(monkeypatch):
    # the first step starts cold, as a lone hum_solve of its frozen problem
    # under the loop's preconditioner does; every later step starts from the
    # previous vhatT
    p = make_problem(N=48, M=64)
    nl = mixed_nonlinearity(0.5)
    rep = picard_null_control(p, nl, epsilon=1e-6)
    zero_traj = _const_traj(p, np.zeros(p.grid.N))
    z = solve_forward(frozen_problem(p, zero_traj, nl))
    first = hum_solve(frozen_problem(p, z, nl), 1e-6,
                      precond=diffusion_preconditioner(p, 1e-6))
    assert rep.cg_iters[0] == first.cg_iters
    monkeypatch.setattr(semilinear, "hum_solve",
                        lambda *args, x0=None, **kwargs: hum_solve(*args, **kwargs))
    cold = picard_null_control(p, nl, epsilon=1e-6)
    assert rep.converged and cold.converged
    assert len(rep.cg_iters) == rep.iterations and len(cold.cg_iters) == cold.iterations
    assert cold.cg_iters[0] == first.cg_iters
    assert sum(rep.cg_iters) < sum(cold.cg_iters)


def test_picard_pcg_count_does_not_grow_with_the_grid():
    # the first Picard step's frozen problem at alpha = 1.5 on a graded grid:
    # plain CG needs more iterations at every refinement, CG preconditioned
    # by the diffusion's penalised Gramian about as many, to the same control
    counts = {"cg": [], "pcg": []}
    nl = mixed_nonlinearity(0.5)
    for N in (64, 128, 256):
        p = make_problem(a=power_coefficient(1.5), N=N, M=N, gamma=2.0)
        z = solve_forward(frozen_problem(p, _const_traj(p, np.zeros(N)), nl))
        frozen = frozen_problem(p, z, nl)
        cg = hum_solve(frozen, 1e-6, cg_tol=1e-12)
        pcg = hum_solve(frozen, 1e-6, cg_tol=1e-12,
                        precond=diffusion_preconditioner(p, 1e-6))
        counts["cg"].append(cg.cg_iters)
        counts["pcg"].append(pcg.cg_iters)
        assert np.max(np.abs(pcg.h - cg.h)) <= 1e-9 * np.max(np.abs(cg.h)), N
    assert counts["cg"][0] < counts["cg"][1] < counts["cg"][2], counts
    assert max(counts["pcg"]) - min(counts["pcg"]) <= 2, counts
    assert 5 * max(counts["pcg"]) < counts["cg"][0], counts


def test_picard_warm_start_keeps_the_cg_budget():
    p = make_problem(N=32, M=32)
    with pytest.raises(NoConvergence):
        picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6, cg_max_iters=2)


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
    y0n = l2_norm(p.grid.weights, p.y0)
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
    corrupted = (rep.hum.trajectory
                 + 0.1 * rng.standard_normal(rep.hum.trajectory.shape))
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
    b_f, c_f = freeze_coefficients(p.grid.nodes, p.times, rep.hum.trajectory, nl)
    assert sorted(factor_calls) == ["b", "c"]
    assert b_f.shape == c_f.shape == (p.M + 1, p.grid.N)
    assert not np.any(b_f) and not np.any(c_f)


def test_semilinear_forward_matches_linear_for_zero_nl():
    # the coast adds its frozen row to row n+1 of the linear b and c
    for drift in DRIFTS:
        p = _drift_problem(drift, N=48, M=32)
        assert np.array_equal(semilinear_forward(p, zero_nonlinearity()),
                              solve_forward(p)), drift


@pytest.mark.parametrize("nl,N,T", [(sine_nonlinearity(-10.0), 64, 1.0),
                                     (mixed_nonlinearity(0.5), 48, 0.5)],
                         ids=["sine-10", "mixed-0.5"])
def test_coast_phase_solves_the_discrete_semilinear_equation(nl, N, T):
    # each coast step is its own fixed point, so the uncontrolled trajectory
    # satisfies the discrete semilinear equation at every level
    p = make_problem(N=N, M=32, T=T)
    traj = semilinear_forward(p, nl)
    assert semilinear_residual(p, nl, traj, np.zeros((p.M, p.grid.N))) <= 1e-9


def test_coast_phase_evaluates_a_once():
    # the diffusion bands are built once per coast; each inner iteration
    # assembles only its frozen drift onto them
    p = make_problem(N=32, M=16)
    calls = []

    def counted(x, _eval=p.a.eval):
        calls.append(1)
        return _eval(x)

    p = dataclasses.replace(p, a=dataclasses.replace(p.a, eval=counted))
    semilinear_forward(p, mixed_nonlinearity(0.5))
    assert len(calls) == 1


def test_coast_phase_fails_closed():
    # the coast phase of a 64 x 64 run with T = 2, t0 = 1: every step's inner
    # iteration spends its budget on the stiff sine nonlinearity
    p = make_problem(N=64, M=32, T=1.0)
    p = dataclasses.replace(p, y0=3.0 * p.y0)
    with pytest.raises(NoFixedPoint, match="coast step 1"):
        semilinear_forward(p, sine_nonlinearity(-30.0))


def test_coast_phase_rejects_an_overflowed_state():
    # a frozen b just above -(1/dt + lambda_1) leaves the step matrix a smallest
    # eigenvalue near 1e-9, so one step takes a finite 1e300 datum past the
    # largest double; the step is named, not spent on inner iterations of inf
    p = make_problem(N=32, M=16)
    p = dataclasses.replace(p, y0=1e300 * p.y0)
    m = -(1.0 / p.dt + 1.0 / hardy_check(p.grid, p.a)) * (1.0 - 1e-9)
    amplifier = Nonlinearity(b_factor=lambda x, t, s, q: np.full(np.shape(s), m),
                             c_factor=lambda x, t, s, q: np.zeros(np.shape(s)),
                             b_cap=abs(m), c_cap=0.0)
    with pytest.raises(NonFiniteIntegral, match="coast step 1: state at t = 0.03125"):
        semilinear_forward(p, amplifier)


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


def test_coast_then_control_zero_datum():
    p = make_problem(N=48, M=64, y0=np.zeros(48))
    rep = picard_null_control(p, sine_nonlinearity(0.5), epsilon=1e-6, t0=0.125)
    assert rep.hum.norm_yT == 0.0
    assert np.all(rep.hum.h == 0.0)


def test_coast_then_control_matches_hum_from_coasted_state(rng):
    # rough datum, no nonlinearity: the control on (t0, T) equals the control
    # run that starts from the coasted state
    p = heat_problem(N=48, M=64, T=0.5)
    y0 = rng.standard_normal(p.grid.N)
    y0[[0, -1]] = 0.0
    p = dataclasses.replace(p, y0=y0)
    rep = picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=p.T / 4)
    p_single = dataclasses.replace(p, T=p.T - rep.t0, M=p.M - 16,
                                   y0=rep.phase1_final)
    hum = hum_solve(p_single, 1e-6, precond=diffusion_preconditioner(p_single, 1e-6))
    assert rep.hum.norm_yT <= hum.norm_yT * (1.0 + 1e-9)
    assert rep.hum.norm_yT >= hum.norm_yT * (1.0 - 1e-9)


def test_coast_then_control_cuts_drift_tables():
    # an (M+1, N) b table of 0.2 gives what b = 0.2 as a number gives
    p = make_problem(N=32, M=32, b0=0.2)
    table = p.with_drift(dataclasses.replace(p.drift, b=np.full((33, 32), 0.2)))
    nl = sine_nonlinearity(0.5)
    rep = picard_null_control(table, nl, epsilon=1e-6, t0=0.25)
    ref = picard_null_control(p, nl, epsilon=1e-6, t0=0.25)
    assert rep.converged and ref.converged and rep.iterations == ref.iterations
    for got, want in ((rep.phase1_final, ref.phase1_final), (rep.hum.h, ref.hum.h),
                      (rep.hum.trajectory, ref.hum.trajectory)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the coast reads rows 1..M1 = 16 and the control phase the rows after
    rows = np.where(np.arange(33)[:, None] <= 16, 0.2, 0.7) * np.ones(32)
    split = picard_null_control(p.with_drift(dataclasses.replace(p.drift, b=rows)),
                                nl, epsilon=1e-6, t0=0.25)
    np.testing.assert_array_equal(split.phase1_final, ref.phase1_final)
    late = dataclasses.replace(p, T=p.T - split.t0, M=16, y0=split.phase1_final,
                               drift=dataclasses.replace(p.drift, b=0.7))
    np.testing.assert_allclose(split.hum.h, picard_null_control(late, nl, 1e-6).hum.h,
                               rtol=1e-12, atol=0.0)


def test_coast_split_of_a_huge_horizon_does_not_overflow():
    # M t0 = 3.2e308 overflows where M (t0 / T) = 3.2 does not; the split
    # is then too short, which is bad input
    p = make_problem(N=32, M=32, T=1e308)
    with pytest.raises(ValueError, match=r"split gave 3 \+ 29"):
        picard_null_control(p, mixed_nonlinearity(0.5), epsilon=1e-6, t0=1e307)


def test_coast_then_control_rejects_bad_t0():
    p = make_problem(N=32, M=32)
    with pytest.raises(ValueError):
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=p.T)
    with pytest.raises(ValueError):
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=-0.1)
    with pytest.raises(ValueError):
        # t0 leaves fewer than 8 steps in the coast
        picard_null_control(p, zero_nonlinearity(), epsilon=1e-6, t0=0.01)
