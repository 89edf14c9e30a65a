import dataclasses
import re

import numpy as np
import pytest

from degen_control import mesh, pde, semilinear
from degen_control.coefficients import power_coefficient
from degen_control.control import (diffusion_preconditioner, epsilon_sweep, gramian,
                                   hum_solve)
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

from conftest import frozen_bands, heat_problem, make_problem, time_drift, traced_peak


def _const_traj(p, values):
    return np.tile(values, (p.M + 1, 1))


def test_freeze_sine_at_zero_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    b_f, c_f = freeze_coefficients(p.grid, p.times, z, sine_nonlinearity(3.0))
    assert np.allclose(b_f, 3.0)          # sinc(0) = 1
    assert np.all(c_f == 0.0)


def test_freeze_tanh_grad_linear_state():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, 2.0 * p.grid.nodes)   # slope 2 everywhere
    b_f, c_f = freeze_coefficients(p.grid, p.times, z, tanh_grad_nonlinearity())
    assert np.all(b_f == 0.0)
    expect = np.tanh(2.0) / 2.0
    assert np.allclose(c_f, expect, atol=1e-12)
    # constant in time
    assert np.allclose(c_f, c_f[0][None, :])


def test_freeze_zero_nonlinearity():
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    b_f, c_f = freeze_coefficients(p.grid, p.times, z, zero_nonlinearity())
    assert np.all(b_f == 0.0) and np.all(c_f == 0.0)


def test_freeze_cap_violation():
    runaway = Nonlinearity(
        b_factor=lambda x, t, s, p: np.full_like(np.asarray(x, dtype=float), 7.0),
        c_factor=lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float)),
        b_cap=1.0, c_cap=0.0)
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.zeros(p.grid.N))
    with pytest.raises(UnboundedFrozenCoefficient):
        freeze_coefficients(p.grid, p.times, z, runaway)


def _nan_factor(order):
    """A nonlinearity whose factor of the given order is NaN on finite input."""
    nan = lambda x, t, s, p: np.full(np.shape(s), np.nan)
    zero = lambda x, t, s, p: np.zeros(np.shape(s))
    return Nonlinearity(b_factor=nan if order == "zero-order" else zero,
                        c_factor=nan if order == "first-order" else zero,
                        b_cap=1.0, c_cap=1.0)


@pytest.mark.parametrize("order", ["zero-order", "first-order"])
def test_freeze_rejects_a_nan_factor(order):
    # a NaN peak compares False with the cap, so the check asks peak <= cap
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    with pytest.raises(UnboundedFrozenCoefficient, match=f"frozen {order} coefficient"):
        freeze_coefficients(p.grid, p.times, z, _nan_factor(order))


@pytest.mark.parametrize("order", ["zero-order", "first-order"])
def test_coast_phase_rejects_a_nan_factor(order):
    # named as the factor's fault, not as a state that is no longer finite
    p = make_problem(N=32, M=16)
    with pytest.raises(UnboundedFrozenCoefficient, match=f"frozen {order} coefficient"):
        semilinear_forward(p, _nan_factor(order))


@pytest.mark.parametrize("nl", [sine_nonlinearity(0.5), tanh_grad_nonlinearity()],
                         ids=["sine", "tanh-grad"])
def test_freeze_rejects_a_nonfinite_state(nl):
    # a NaN would pass the sine cap check as a NaN b, and tanh-grad would
    # freeze its NaN slope to c = 1; both name the time of the bad level
    p = make_problem(N=32, M=16)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    z[3, 7] = np.nan
    with pytest.raises(NonFiniteIntegral, match=f"at t = {p.times[3]:.6g}"):
        freeze_coefficients(p.grid, p.times, z, nl)


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
    """(p, nl, q): make_problem with b = 0.3 and c = 0.2 held as ``drift``
    says, a nonlinearity nl whose Picard loop and coast on p are the linear
    ones of q. "none" is b = c = 0, and "vector" holds the constants as
    (N,) vectors, each with nl = 0 and q = p. "table" adds b and c that vary
    in time: nl is their factors of t alone, which freeze to the same values
    along every state, and q is p with them (``time_drift``)."""
    if drift == "none":
        p = make_problem(N=N, M=M)
        return p, zero_nonlinearity(), p
    p = make_problem(N=N, M=M, b0=0.3, c0=0.2)
    if drift == "table":
        q = time_drift(p, b=lambda t: 0.1 * np.sin(20.0 * t),
                       c=lambda t: 0.1 * np.cos(20.0 * t))
        return p, q.drift.nl, q
    if drift == "vector":
        p = p.with_drift(dataclasses.replace(p.drift, b=np.full(N, 0.3), c=np.full(N, 0.2)))
    return p, zero_nonlinearity(), p


DRIFTS = ["none", "constant", "vector", "table"]


def test_picard_zero_nonlinearity_reduces_to_linear():
    # the frozen factors add to the linear b and c, so with f = 0, or f of
    # t alone, the loop is the linear control of the whole equation, under
    # the loop's preconditioner
    for drift in DRIFTS:
        p, nl, q = _drift_problem(drift, N=48, M=48)
        rep = picard_null_control(p, nl, epsilon=1e-6)
        hum = hum_solve(q, 1e-6, precond=diffusion_preconditioner(p, 1e-6))
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


def test_picard_growing_increments_raise_no_fixed_point():
    # a factor that doubles at each freeze, within its cap, moves each frozen
    # problem further than the last: the increments grow to the budget. A
    # freeze calls the factor once per block of levels, the first at t_1
    p = make_problem(N=32, M=32)
    freezes = []

    def doubling(x, t, s, q):
        if t[0, 0] == p.times[1]:
            freezes.append(None)
        return np.full(np.shape(s), -(2.0 ** len(freezes)))

    nl = Nonlinearity(b_factor=doubling, c_factor=lambda x, t, s, q: np.zeros(np.shape(s)),
                      b_cap=1e3, c_cap=0.0)
    with pytest.raises(NoFixedPoint, match="increments grew .* after 4 outer steps"):
        picard_null_control(p, nl, epsilon=1e-3, max_fp_iters=4)
    assert len(freezes) == 5    # the zero state, then one freeze per outer step


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
    # a frozen problem's levels are assembled a block at a time, through
    # one mesh._assembler per problem: count the levels each one assembles
    real_assembler = mesh._assembler
    assemblies = []

    def counting_assembler(*args):
        assemble, levels = real_assembler(*args), []
        assemblies.append(levels)

        def counted(b, c):
            bands = assemble(b, c)
            levels.append(len(bands[1]))
            return bands
        return counted

    monkeypatch.setattr(pde, "_assembler", counting_assembler)
    p = make_problem(N=32, M=40)
    rep = picard_null_control(p, mixed_nonlinearity(0.5), epsilon=1e-6)
    assert rep.iterations >= 2
    # the initial forward solve, one HUM solve per Picard step, the residual;
    # each assembles every one of its M levels once, in blocks
    assert len(assemblies) == rep.iterations + 2
    for levels in assemblies:
        assert sum(levels) == p.M and max(levels) == pde.LEVEL_BLOCK

    factor_calls = []

    def counted(name, factor):
        def wrapped(*args):
            factor_calls.append(name)
            return factor(*args)
        return wrapped

    zero = zero_nonlinearity()
    nl = dataclasses.replace(zero, b_factor=counted("b", zero.b_factor),
                             c_factor=counted("c", zero.c_factor))
    b_f, c_f = freeze_coefficients(p.grid, p.times, rep.hum.trajectory, nl)
    assert sorted(factor_calls) == ["b", "c"]
    assert b_f.shape == c_f.shape == (p.M + 1, p.grid.N)
    assert not np.any(b_f) and not np.any(c_f)
    # a frozen problem calls each factor once per block of the M levels its steps read
    factor_calls.clear()
    frozen_problem(p, rep.hum.trajectory, nl)
    assert sorted(factor_calls) == ["b", "b", "c", "c"]


def test_semilinear_forward_matches_linear_for_zero_nl():
    # the coast adds its frozen row at t_{n+1} to the linear b and c, and
    # factors its steps through march's kernel: LDL^T of W M_k without a
    # first-order term, of its symmetriser times M_k with one
    for drift in DRIFTS:
        p, nl, q = _drift_problem(drift, N=48, M=32)
        assert pde._step_factors(q)[0] == ("ldl-w" if drift == "none" else "ldl-rho"), drift
        assert np.array_equal(semilinear_forward(p, nl), solve_forward(q)), drift


@pytest.mark.parametrize("c0", [0.0, 0.2])
def test_semilinear_forward_matches_linear_on_lu_steps(c0, monkeypatch):
    # b = -2/dt leaves 1 + dt b = -1, a negative pivot on every level, so
    # march and the coast both fall back to pivoted LU
    kinds = []

    def recorded(kind, factors, row):
        kinds.append(kind)
        return pde._step_solve(kind, factors, row)

    monkeypatch.setattr(semilinear, "_step_solve", recorded)
    p = make_problem(N=24, M=16)
    p = p.with_drift(dataclasses.replace(p.drift, b=-2.0 / p.dt, c=c0))
    assert pde._step_factors(p)[0] == "lu"
    assert np.array_equal(semilinear_forward(p, zero_nonlinearity()), solve_forward(p))
    assert len(kinds) >= p.M and set(kinds) == {"lu"}


@pytest.mark.parametrize("nl,N,T", [(sine_nonlinearity(-10.0), 64, 1.0),
                                     (mixed_nonlinearity(0.5), 48, 0.5)],
                         ids=["sine-10", "mixed-0.5"])
def test_coast_phase_solves_the_discrete_semilinear_equation(nl, N, T):
    # each coast step is its own fixed point, so the uncontrolled trajectory
    # satisfies the discrete semilinear equation at every level
    p = make_problem(N=N, M=32, T=T)
    traj = semilinear_forward(p, nl)
    assert semilinear_residual(p, nl, traj, np.zeros((p.M, p.grid.N))) <= 1e-9


def test_coast_phase_work_per_inner_iteration(monkeypatch):
    # each inner iteration freezes its one level, factors one step matrix and
    # solves it once; a is evaluated and the assembler built once per coast
    p = make_problem(a=power_coefficient(1.5), N=40, M=24, gamma=2.0, b0=0.4, c0=-1.0)
    counts = {"a": 0, "b": 0, "c": 0, "freeze": 0, "dpttrf": 0, "dpttrs": 0,
              "dgttrf": 0, "dgttrs": 0, "assemble": 0}

    def counted(name, fn, check=None):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if check is not None:
                check(*args)
            return fn(*args, **kwargs)
        return wrapped

    def one_level(x, t, s, q):
        assert np.shape(t) == (1, 1) and np.shape(s) == np.shape(q) == (1, p.grid.N)

    nl = mixed_nonlinearity(2.0)
    nl = dataclasses.replace(nl, b_factor=counted("b", nl.b_factor, one_level),
                             c_factor=counted("c", nl.c_factor, one_level))
    p = dataclasses.replace(p, a=dataclasses.replace(p.a, eval=counted("a", p.a.eval)))
    monkeypatch.setattr(semilinear, "freeze_coefficients",
                        counted("freeze", semilinear.freeze_coefficients))
    monkeypatch.setattr(semilinear, "_assembler",
                        counted("assemble", semilinear._assembler))
    for name in ("dpttrf", "dpttrs", "dgttrf", "dgttrs"):
        monkeypatch.setattr(pde, name, counted(name, getattr(pde, name)))
    traj = semilinear_forward(p, nl)
    inner = counts["freeze"]
    assert inner > 2 * p.M                  # the mixed factors take several per step
    # c != 0 on every step: each is symmetrised and factored LDL^T, none LU
    assert counts["b"] == counts["c"] == counts["dpttrf"] == counts["dpttrs"] == inner
    assert counts["dgttrf"] == counts["dgttrs"] == 0
    assert counts["a"] == counts["assemble"] == 1
    assert np.all(np.isfinite(traj))


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


def test_picard_step_holds_about_six_space_time_arrays():
    # a step needs z and y, h, and the d, e and p factor stacks: 6 arrays of
    # (M+1) N doubles. A frozen problem's drift reads z by reference and is
    # frozen, assembled and factored a block of levels at a time, so no
    # frozen b or c table exists, and the control's cost is taken before the
    # rerun allocates y. The bound leaves a margin of 1.5 for the block
    # temporaries around them (6.9 arrays at the peak), and counts arrays,
    # not seconds
    p = make_problem(N=128, M=128)
    y0 = np.random.default_rng(0).standard_normal(p.grid.N)
    y0[0] = y0[-1] = 0.0
    p = dataclasses.replace(p, y0=y0)
    rep, peak = traced_peak(picard_null_control, p, mixed_nonlinearity(0.5), 1e-3,
                            t0=0.1, fp_tol=1e-8)
    assert rep.converged
    assert peak <= 7.5 * (p.M + 1) * p.grid.N * 8, peak / ((p.M + 1) * p.grid.N * 8)


def _zero_factor(x, t, s, q):
    return np.zeros(np.shape(s))


def _on_levels(p, early, late, last_early=3, first_late=50):
    """A factor that is ``early`` on the levels up to t_3, ``late`` on those
    from t_50 (from 0.7 T where M < 50), and 0 between."""
    t_late = p.times[first_late] if p.M >= first_late else 0.7 * p.T

    def factor(x, t, s, q):
        on = np.where(t <= p.times[last_early], early, np.where(t >= t_late, late, 0.0))
        return on * np.ones(np.shape(s))
    return factor


def _frozen_cases(p):
    """kind -> a nonlinearity whose frozen problem on p has factors of that
    kind: sine freezes no first-order term; mixed does; a c~ that starts
    late restarts the levels as ldl-rho, and a b~ with 1 + dt b = -1 late
    restarts them as LU."""
    pivot = -2.0 / p.dt - 0.3
    return {"ldl-w": sine_nonlinearity(0.5),
            "ldl-rho": mixed_nonlinearity(0.5),
            "ldl-rho-late": Nonlinearity(_zero_factor, _on_levels(p, 0.0, 1.0), 0.0, 1.0),
            "lu": Nonlinearity(_on_levels(p, 0.0, pivot), _zero_factor, abs(pivot), 0.0)}


@pytest.mark.parametrize("M", [16, 70])
@pytest.mark.parametrize("case", ["ldl-w", "ldl-rho", "ldl-rho-late", "lu"])
def test_frozen_factors_are_the_factors_of_explicit_tables(case, M):
    # a frozen problem is frozen, assembled and factored a block at a time,
    # in one block of levels and across block boundaries, also where a
    # later block restarts the levels with another kind: every level's
    # factors have the bits of freezing all levels at once, assembling them
    # in one call and factoring them at once. Its linear b is an (N,) vector
    p = make_problem(N=32, M=M, b0=0.3, c0=0.0 if case in ("ldl-w", "lu") else -0.7)
    b = 0.3 * (1.0 + 0.5 * np.sin(40.0 * p.grid.nodes))
    p = p.with_drift(dataclasses.replace(p.drift, b=b))
    z = np.random.default_rng(3).standard_normal((p.M + 1, p.grid.N))
    q = frozen_problem(p, z, _frozen_cases(p)[case])
    got_kind, got = pde._step_factors(q)
    want_kind, want = pde._factor_steps(*frozen_bands(q), q.dt, q.grid.weights[q.active()])
    assert got_kind == want_kind == case.removesuffix("-late")
    assert len(got) == len(want) == p.M
    for level_got, level_want in zip(got, want):
        assert len(level_got) == len(level_want)
        for a, b in zip(level_got, level_want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_frozen_drift_describes_its_problem():
    # a frozen problem reads z by reference, is time-dependent even where
    # the frozen values are constant, so the dense paths refuse it, and a
    # copy with an empty factor cache refreezes to the same factors
    p = make_problem(N=32, M=40, b0=0.3)
    z = _const_traj(p, np.zeros(p.grid.N))
    q = frozen_problem(p, z, sine_nonlinearity(0.5))
    assert q.drift.z is z and q.drift.time_dependent and q._cache
    with pytest.raises(ValueError, match="time-independent"):
        gramian(q)
    with pytest.raises(ValueError, match="time-independent"):
        epsilon_sweep(q, [1e-2, 1e-3, 1e-4, 1e-5])
    kind, factors = pde._step_factors(q)
    again = dataclasses.replace(q, y0=q.y0.copy())
    assert again._cache == {}
    assert pde._step_factors(again)[0] == kind == "ldl-w"
    for level_got, level_want in zip(pde._step_factors(again)[1], factors):
        for a, b in zip(level_got, level_want):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="frozen states must be"):
        frozen_problem(p, z[:-1], sine_nonlinearity(0.5))


def test_frozen_problem_raises_the_first_fault_in_time():
    # each block of levels is frozen and its caps checked before the next:
    # a broken cap names the peak of its own block, and beats a state that
    # is not finite in a later block; a state that is not finite beats a cap
    # broken in a later block. Level 0, which no step reads, is not frozen
    p = make_problem(N=32, M=70)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    z *= (1.0 + np.arange(p.M + 1.0))[:, None]
    state = Nonlinearity(lambda x, t, s, q: s, _zero_factor, b_cap=20.0, c_cap=0.0)
    first_block = f"reaches {np.max(z[1:pde.LEVEL_BLOCK + 1]):.6g} "
    with pytest.raises(UnboundedFrozenCoefficient, match=first_block):
        frozen_problem(p, z, state)
    with pytest.raises(UnboundedFrozenCoefficient, match=f"reaches {np.max(z):.6g} "):
        freeze_coefficients(p.grid, p.times, z, state)
    at_zero = Nonlinearity(_on_levels(p, 30.0, 0.0, last_early=0), _zero_factor, 20.0, 0.0)
    frozen_problem(p, z, at_zero)
    late_cap = Nonlinearity(_on_levels(p, 0.0, 30.0), _zero_factor, 20.0, 0.0)
    z[50, 7] = np.nan
    with pytest.raises(UnboundedFrozenCoefficient, match=first_block):
        frozen_problem(p, z, state)
    for nl in (late_cap, sine_nonlinearity(0.5)):
        with pytest.raises(NonFiniteIntegral, match=f"at t = {p.times[50]:.6g}$"):
            frozen_problem(p, z, nl)


@pytest.mark.parametrize("late", ["step-matrix", "upwind"])
def test_a_broken_cap_beats_a_later_assembly_or_factor_error(late):
    # the first levels break a cap; from t_50 on either dt b = 1.4e309
    # overflows the step matrix (T = 1e300) or beta c / h overflows the
    # assembly. The first block's caps are checked before the later block is
    # frozen, also in the residual; with the caps kept, the later error raises
    if late == "step-matrix":
        p = make_problem(N=32, M=70, T=1e300)
        b, c, order, error = _on_levels(p, 0.0, 1e11), _on_levels(p, 2.0, 0.0), 1, "the step"
    else:
        p = make_problem(N=32, M=70)
        b, c, order, error = _on_levels(p, 2.0, 0.0), _on_levels(p, 0.0, 1e308), 0, "the upwind"
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    h = np.zeros((p.M, p.grid.N))
    caps = [1e11, 1.0] if order else [1.0, 1e308]
    broken = Nonlinearity(b, c, *caps)
    with pytest.raises(UnboundedFrozenCoefficient, match=("zero-order", "first-order")[order]):
        frozen_problem(p, z, broken)
    with pytest.raises(UnboundedFrozenCoefficient):
        semilinear_residual(p, broken, z, h)
    caps[order] = 2.0
    with pytest.raises(NonFiniteIntegral, match=error):
        frozen_problem(p, z, Nonlinearity(b, c, *caps))


@pytest.mark.parametrize("first", ["factor-error", "nonfinite-state"])
def test_the_earlier_of_a_factor_error_and_a_nonfinite_state_raises(first):
    # dt b = 1.4e309 overflows the step matrices of the levels up to t_3, or
    # of those from t_50; a state that is not finite at t_68, or at t_2,
    # raises where it comes later, named by its time, and is not reached
    # where the factor error comes first
    p = make_problem(N=32, M=70, T=1e300)
    z = _const_traj(p, np.sin(np.pi * p.grid.nodes))
    early, late = (1e11, 0.0) if first == "factor-error" else (0.0, 1e11)
    nl = Nonlinearity(_on_levels(p, early, late), _zero_factor, b_cap=1e11, c_cap=0.0)
    with pytest.raises(NonFiniteIntegral, match="the step matrix"):
        frozen_problem(p, z, nl)
    bad = 68 if first == "factor-error" else 2
    z[bad, 7] = np.nan
    message = "the step matrix" if first == "factor-error" else \
        re.escape(f"at t = {p.times[bad]:.6g}") + "$"
    with pytest.raises(NonFiniteIntegral, match=message):
        frozen_problem(p, z, nl)


def test_blocked_sums_keep_the_one_shot_bits():
    # the residual and the Picard increment's norm, formed a block of levels
    # at a time, against the same formulas on all levels at once, on the
    # bands of all levels frozen at once
    p = make_problem(N=32, M=70, c0=0.4)
    rng = np.random.default_rng(5)
    nl = mixed_nonlinearity(0.5)
    y = rng.standard_normal((p.M + 1, p.grid.N))
    h = rng.standard_normal((p.M, p.grid.N)) * p.omega_mask()
    act = p.active()
    sub, diag, sup, _ = frozen_bands(frozen_problem(p, y, nl))
    ya = y[:, act]
    Ay = diag * ya[1:]
    Ay[..., 1:] += sub[..., 1:] * ya[1:, :-1]
    Ay[..., :-1] += sup[..., :-1] * ya[1:, 1:]
    r = (ya[1:] - ya[:-1]) / p.dt + Ay - h[:, act] * p.omega_mask()[act]
    residual = (float(np.sqrt(p.dt * float(np.sum(p.grid.weights[act] * r * r))))
                / l2_norm(p.grid.weights, p.y0))
    assert semilinear_residual(p, nl, y, h) == residual
    tw = np.full(p.M + 1, p.dt)
    tw[0] = tw[-1] = 0.5 * p.dt
    sq = np.sum(p.grid.weights * y * y, axis=1) + mesh.dirichlet_energy(p.grid, p.a, y)
    assert semilinear._z_norm(p, y) == float(np.sqrt(np.sum(tw * sq)))


_OWNED = np.full((16, 32), 0.25)    # a factor's own array, returned as it is


def test_freezing_leaves_an_array_a_factor_returns_unmodified():
    p = make_problem(N=32, M=16, b0=0.3)
    owned = Nonlinearity(lambda x, t, s, q: _OWNED, lambda x, t, s, q: _OWNED,
                         b_cap=1.0, c_cap=1.0)
    before = _OWNED.copy()
    frozen_problem(p, np.zeros((p.M + 1, p.grid.N)), owned)
    assert picard_null_control(p, owned, epsilon=1e-6).converged
    assert _OWNED.tobytes() == before.tobytes()
