import dataclasses
import warnings

import numpy as np
import pytest

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control import pde, semilinear
from degen_control.cli import cmd_solve
from degen_control.config import Config
from degen_control.control import hum_solve
from degen_control.errors import SolverBreakdown
from degen_control.mesh import build_grid, l2_norm
from degen_control.pde import LinearProblem, solve_adjoint, solve_forward

from conftest import frozen_bands, heat_problem, make_problem, time_drift, traced_peak


def duality_residual(p, y0, h, vT):
    """|<y(T), vT> - <y0, v(0)> - sum_n dt <h^n, v^n>_omega|, zero up to
    round-off because the adjoint is the exact transpose of the forward map."""
    act = p.active()
    w = p.grid.weights[act]
    y = solve_forward(dataclasses.replace(p, y0=y0), h)
    v = solve_adjoint(p, vT)
    t_final = float(np.sum(w * y[-1][act] * vT[act]))
    t_init = float(np.sum(w * y0[act] * v[0][act]))
    t_ctrl = p.dt * float(np.sum(w * p.omega_mask()[act] * h[:, act] * v[:-1, act]))
    return abs(t_final - t_init - t_ctrl)


def test_heat_oracle():
    # closed-form heat decay e^{-pi^2 t} sin(pi x)
    p = heat_problem(N=128, M=256, T=0.1)
    traj = solve_forward(p)
    exact = np.exp(-np.pi ** 2 * p.T) * np.sin(np.pi * p.grid.nodes)
    assert np.max(np.abs(traj[-1] - exact)) <= 2e-3


def test_zero_data_stays_zero():
    p = make_problem(y0=np.zeros(65), N=65)
    traj = solve_forward(p)
    assert np.all(traj == 0.0)
    v = solve_adjoint(p, np.zeros(p.grid.N))
    assert np.all(v == 0.0)


def test_superposition(rng):
    p = make_problem(N=48, M=32, b0=0.4, c0=0.3)
    h1 = rng.standard_normal((p.M, p.grid.N))
    h2 = rng.standard_normal((p.M, p.grid.N))
    y0 = rng.standard_normal(p.grid.N)
    full = solve_forward(dataclasses.replace(p, y0=y0), h1 + h2)
    part = solve_forward(dataclasses.replace(p, y0=y0), h1) \
        + solve_forward(dataclasses.replace(p, y0=np.zeros(p.grid.N)), h2)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(full - part)) <= 1e-12 * scale


def test_selfadjoint_case_reverses_in_time(rng):
    # with b = c = 0 the operator is self-adjoint, so the backward adjoint
    # trajectory is the forward trajectory of the same data, time-reversed
    p = heat_problem(N=64, M=32, T=0.2)
    vT = rng.standard_normal(p.grid.N)
    vT[0] = vT[-1] = 0.0
    back = solve_adjoint(p, vT)
    forth = solve_forward(dataclasses.replace(p, y0=vT))
    assert np.allclose(back, forth[::-1], rtol=1e-12, atol=1e-14)


def test_adjoint_initial_norm_bounded(rng):
    p = make_problem(N=48, M=48, b0=0.3, c0=0.2)
    ratios = []
    for _ in range(100):
        vT = rng.standard_normal(p.grid.N)
        vT[0] = vT[-1] = 0.0
        v = solve_adjoint(p, vT)
        ratios.append(l2_norm(p.grid.weights, v[0]) / l2_norm(p.grid.weights, vT))
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
        scale = abs(float(np.sum(w * y[-1][act] * vT[act])))
        assert res <= 1e-13 * max(scale, 1e-12)


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
        scale = abs(float(np.sum(w * y[-1][act] * vT[act])))
        assert res <= 1e-13 * max(scale, 1e-12)


def test_transpose_equivalence_brute_force():
    # the v(0) map must equal W^-1 F^T W for the y0 -> y(T) map F
    for a in (power_coefficient(0.5), power_coefficient(1.5)):
        p = make_problem(a=a, N=12, M=12, b0=0.5, c0=0.25)
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
        expected = (F.T * w[None, :]) / w[:, None]
        assert np.max(np.abs(G - expected)) <= 1e-12


def test_unconditional_stability():
    g = build_grid(64, 1.0)
    y0 = np.sin(np.pi * g.nodes)
    for M in (8, 80, 800):
        p = LinearProblem(a=power_coefficient(0.5), drift=constant_drift(1.0, 0.0),
                          T=0.5, omega=(0.3, 0.9), grid=g, M=M, y0=y0)
        traj = solve_forward(p)
        assert np.max(l2_norm(g.weights, traj)) <= l2_norm(g.weights, y0) * (1.0 + 1e-12)


def test_temporal_order_one():
    errs = []
    for M in (32, 64, 128):
        p = heat_problem(N=256, M=M, T=0.1)
        traj = solve_forward(p)
        exact = np.exp(-np.pi ** 2 * p.T) * np.sin(np.pi * p.grid.nodes)
        errs.append(np.max(np.abs(traj[-1] - exact)))
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
    assert np.max(np.abs(traj[-1] - np.sin(np.pi * x))) <= 5e-3


def test_solver_breakdown():
    null_a = DegeneracyCoefficient(
        eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        primitive=lambda x: np.full(np.shape(x), np.inf),   # int tau/0 diverges
        K=0.0, sigma=0.0, case=Case.WDP, label="null")
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


def test_a_drift_b_or_c_of_two_dimensions_is_refused():
    # a linear b or c is a number or a nodal vector; one that varies in time
    # is a factor of (x, t), frozen, so a table of any shape is refused
    g = build_grid(16, 1.0)
    kwargs = dict(a=power_coefficient(0.5), T=0.5, omega=(0.3, 0.9), grid=g, M=16,
                  y0=np.zeros(16))
    for name in ("b", "c"):
        for shape in ((17, 16), (16, 16), (1, 16), (15,)):
            drift = dataclasses.replace(zero_drift(), **{name: np.zeros(shape)})
            with pytest.raises(ValueError, match=f"drift {name} must be a number or an"):
                LinearProblem(drift=drift, **kwargs)
        LinearProblem(drift=dataclasses.replace(zero_drift(), **{name: np.ones(16)}), **kwargs)


def test_replace_resets_step_cache():
    p = make_problem(N=24, M=16)
    solve_forward(p)        # populates the factor cache
    p2 = dataclasses.replace(p, drift=constant_drift(5.0, 0.0))
    assert p2._cache == {}
    r1 = solve_forward(p)[-1]
    r2 = solve_forward(p2)[-1]
    assert not np.allclose(r1, r2)


def _counting(monkeypatch, names, record):
    """Wrap each LAPACK routine of ``names`` that pde calls so that every
    call appends ``record(name, args)`` to the returned list."""
    calls = []
    for name in names:
        def counted(*args, _real=getattr(pde, name), _name=name, **kwargs):
            calls.append(record(_name, args))
            return _real(*args, **kwargs)
        monkeypatch.setattr(pde, name, counted)
    return calls


@pytest.mark.parametrize("time_dependent", [False, True])
def test_step_matrix_factored_once_per_time_level(monkeypatch, time_dependent):
    factorizations = _counting(monkeypatch, ("dgttrf", "dpttrf"), lambda name, args: name)
    p = make_problem(N=24, M=16, b0=0.3, c0=0.2)
    if time_dependent:
        p = time_drift(p)
    hum_solve(p, 1e-4)
    # one factorisation per distinct time level, shared by both directions
    assert len(factorizations) == (p.M if time_dependent else 1)


def _with_b_table(p):
    """p with b (1 + 0.5 sin t) for its b."""
    return time_drift(p, b=lambda t: 0.5 * p.drift.b * np.sin(t))


def _replay_in_u(p, u, src, adjoint, step):
    """A step recursion on the active nodes, one fresh solution per step:
    the state of each level is ``step(k, prev + dt src[k])``, and the adjoint
    runs in u = W v (the forward recursion with w = 1 is exact)."""
    act = p.active()
    w = p.grid.weights[act] if adjoint else np.ones(p.grid.nodes[act].size)
    ref = np.empty((p.M + 1, w.size))
    ref[p.M if adjoint else 0] = u[act] * w
    for k in (range(p.M - 1, -1, -1) if adjoint else range(p.M)):
        prev, new = (k + 1, k) if adjoint else (k, k + 1)
        rhs = ref[prev] if src is None else ref[prev] + p.dt * src[k, act] * w
        ref[new] = step(k, rhs)
    return ref / w


def _lu_replay(p, factors, u, src, adjoint):
    """The LU step recursion of march's docstring: the adjoint solves with
    the transposed forward factors."""
    trans = "T" if adjoint else "N"
    return _replay_in_u(p, u, src, adjoint,
                        lambda k, rhs: pde.dgttrs(*factors[k], rhs, trans)[0])


def _rho_adjoint_replay(p, factors, u, src):
    """The adjoint step on LDL^T factors of S_k = P_k M_k where P_k is not
    W: M_k^-T = P_k S_k^-1, so u <- p_k S_k^-1 u in u = W v."""
    def step(k, rhs):
        d, e, pk = factors[k]
        return pde.dpttrs(d, e, rhs)[0] * pk
    return _replay_in_u(p, u, src, True, step)


def _ldl_replay(p, factors, u, src, adjoint):
    """The forward LDL^T step recursion, which W-symmetric steps take in
    both directions: S_k solved on P_k (prev + dt src[k])."""
    act = p.active()
    ref = np.empty((p.M + 1, act.stop - act.start))
    ref[p.M if adjoint else 0] = u[act]
    for k in (range(p.M - 1, -1, -1) if adjoint else range(p.M)):
        prev, new = (k + 1, k) if adjoint else (k, k + 1)
        rhs = ref[prev] if src is None else p.dt * src[k, act] + ref[prev]
        d, e, pk = factors[k]
        ref[new] = pde.dpttrs(d, e, rhs * pk)[0]
    return ref


@pytest.mark.parametrize("drift", ["constant", "table", "drift-free-constant",
                                   "drift-free-table"])
@pytest.mark.parametrize("with_src", [False, True], ids=["no-src", "src"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_march_matches_stepwise_reference(monkeypatch, rng, adjoint, with_src, drift):
    # with beta c = 0 the step matrices are W-symmetric and march takes LDL^T
    # factors of W M_k in both directions; with beta c != 0 it takes LDL^T
    # factors of P_k M_k, forward as above and adjoint in u = W v; either way
    # it replays that recursion bit for bit
    drift_free = drift.startswith("drift-free")
    p = make_problem(N=24, M=16, b0=0.3, c0=0.0 if drift_free else 0.2)
    if drift.endswith("table"):
        p = _with_b_table(p)
    act = p.active()
    u = rng.standard_normal(p.grid.N)
    src = rng.standard_normal((p.M, p.grid.N)) if with_src else None
    u_in, src_in = u.copy(), None if src is None else src.copy()

    kind, factors = pde._step_factors(p)
    assert kind == ("ldl-w" if drift_free else "ldl-rho")
    if kind == "ldl-rho" and adjoint:
        ref = _rho_adjoint_replay(p, factors, u, src)
    else:
        ref = _ldl_replay(p, factors, u, src, adjoint)

    # the right-hand side is dgttrs' sixth argument and dpttrs' third
    rhs_dims = _counting(monkeypatch, ("dgttrs", "dpttrs"),
                         lambda name, args: np.ndim(args[5 if name == "dgttrs" else 2]))
    states = pde.march(p, u, src, adjoint)
    assert states.shape == (p.M + 1, p.grid.N)
    assert np.array_equal(states[:, act], ref)
    outside = np.ones(p.grid.N, dtype=bool)
    outside[act] = False
    assert np.all(states[:, outside] == 0.0)
    assert np.array_equal(u, u_in)
    assert src is None or np.array_equal(src, src_in)
    # one single-column solve per step, in place in the output
    assert rhs_dims == [1] * p.M


def _lu_factors(p):
    """The pivoted LU factors of p's step matrices I + dt A_k, one per step,
    as ``_factor_steps`` forms them where it falls back to LU: of one level,
    or of every level of a frozen problem at once."""
    sub, diag, sup, _ = (frozen_bands(p) if p.drift.time_dependent
                         else pde.assemble_operator(p.grid, p.a, p.drift))
    bands = (p.dt * sub[..., 1:], 1.0 + p.dt * diag, p.dt * sup[..., :-1])
    levels = zip(*bands) if diag.ndim == 2 else [bands]
    factors = [pde.dgttrf(*level)[:-1] for level in levels]
    return factors * (p.M // len(factors))


@pytest.mark.parametrize("table", [False, True], ids=["constant", "table"])
@pytest.mark.parametrize("with_src", [False, True], ids=["no-src", "src"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_ldl_march_matches_lu_replay(rng, adjoint, with_src, table):
    # the LDL^T sweep is the same map as the pivoted-LU one, to round-off
    p = make_problem(N=24, M=16, b0=0.3)
    if table:
        p = _with_b_table(p)
    assert pde._step_factors(p)[0] == "ldl-w"
    u = rng.standard_normal(p.grid.N)
    src = rng.standard_normal((p.M, p.grid.N)) if with_src else None
    ref = _lu_replay(p, _lu_factors(p), u, src, adjoint)
    got = pde.march(p, u, src, adjoint)[:, p.active()]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _with_c_table(p):
    """p with c (1 + 0.5 sin 3t) for its c."""
    return time_drift(p, c=lambda t: 0.5 * p.drift.c * np.sin(3.0 * t))


@pytest.mark.parametrize("table", [False, True], ids=["constant", "table"])
@pytest.mark.parametrize("c0", [2.0, -2.0, 20.0, -20.0])
@pytest.mark.parametrize("alpha,gamma", [(0.5, 1.0), (1.5, 2.0)],
                         ids=["WDP-uniform", "SDP-graded"])
@pytest.mark.parametrize("with_src", [False, True], ids=["no-src", "src"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_symmetrised_march_matches_lu_replay(rng, adjoint, with_src, alpha, gamma, c0,
                                             table):
    # with a first-order term the step matrices are symmetrised by rho W
    # and factored LDL^T, and the sweep is the pivoted-LU one to round-off
    p = make_problem(a=power_coefficient(alpha), N=64, M=32, gamma=gamma, b0=0.3, c0=c0)
    if table:
        p = _with_c_table(p)
    assert pde._step_factors(p)[0] == "ldl-rho"
    u = rng.standard_normal(p.grid.N)
    src = rng.standard_normal((p.M, p.grid.N)) if with_src else None
    ref = _lu_replay(p, _lu_factors(p), u, src, adjoint)
    got = pde.march(p, u, src, adjoint)[:, p.active()]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_duality_on_the_symmetrised_path(rng):
    # a c that varies in time gives each level its own symmetriser; the adjoint is still
    # the exact W-transpose of the forward map
    p = _with_c_table(make_problem(a=power_coefficient(1.5), N=64, M=64, gamma=2.0,
                                   b0=0.3, c0=-2.0, T=0.4))
    assert p.drift.time_dependent and pde._step_factors(p)[0] == "ldl-rho"
    act = p.active()
    w = p.grid.weights[act]
    for _ in range(5):
        y0 = rng.standard_normal(p.grid.N)
        vT = rng.standard_normal(p.grid.N)
        h = rng.standard_normal((p.M, p.grid.N))
        res = duality_residual(p, y0, h, vT)
        y = solve_forward(dataclasses.replace(p, y0=y0), h)
        scale = abs(float(np.sum(w * y[-1][act] * vT[act])))
        assert res <= 1e-13 * max(scale, 1e-12)


@pytest.mark.parametrize("table", [False, True], ids=["constant", "table"])
def test_duality_on_the_ldl_path(rng, table):
    p = make_problem(a=power_coefficient(1.5), N=64, M=64, gamma=2.0, b0=0.3, T=0.4)
    if table:
        p = _with_b_table(p)
    assert pde._step_factors(p)[0] == "ldl-w"
    act = p.active()
    w = p.grid.weights[act]
    for _ in range(5):
        y0 = rng.standard_normal(p.grid.N)
        vT = rng.standard_normal(p.grid.N)
        h = rng.standard_normal((p.M, p.grid.N))
        res = duality_residual(p, y0, h, vT)
        y = solve_forward(dataclasses.replace(p, y0=y0), h)
        scale = abs(float(np.sum(w * y[-1][act] * vT[act])))
        assert res <= 1e-13 * max(scale, 1e-12)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_drift_free_step_with_a_negative_pivot_takes_lu(monkeypatch, rng, adjoint):
    # 1 + dt b = -1 leaves W(I + dt A) indefinite, so dpttrf meets a
    # nonpositive pivot and every level takes pivoted LU, with its old bits
    p = make_problem(N=24, M=16, T=0.5)
    p = p.with_drift(dataclasses.replace(p.drift, b=-2.0 / p.dt))
    tried = _counting(monkeypatch, ("dpttrf", "dpttrs"), lambda name, args: name)
    kind, factors = pde._step_factors(p)
    assert kind == "lu" and tried == ["dpttrf"]
    u = rng.standard_normal(p.grid.N)
    src = rng.standard_normal((p.M, p.grid.N))
    for s in (None, src):
        ref = _lu_replay(p, factors, u, s, adjoint)
        assert np.array_equal(pde.march(p, u, s, adjoint)[:, p.active()], ref)
        assert np.all(np.isfinite(ref))
    assert tried == ["dpttrf"]


def _lu_fallback_case(case):
    """A drift problem that LU must still step: 1 + dt b = -1, where S_k
    meets a nonpositive pivot, or a symmetriser that overflows (alpha = 1.5
    and c = -1e5 on 128 nodes) or underflows (c = 1e4 on 256 nodes)."""
    if case == "negative-pivot":
        p = make_problem(N=24, M=16, T=0.5, c0=0.2)
        return p.with_drift(dataclasses.replace(p.drift, b=-2.0 / p.dt))
    N, c0 = (128, -1e5) if case == "overflow" else (256, 1e4)
    return make_problem(a=power_coefficient(1.5), N=N, M=16, gamma=2.0, c0=c0)


@pytest.mark.parametrize("case", ["negative-pivot", "overflow", "underflow"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_drift_step_without_a_symmetric_form_takes_lu(monkeypatch, rng, adjoint, case):
    # no dpttrf is tried where the symmetriser is out of range, and every
    # level takes pivoted LU, with its old bits and without a warning
    p = _lu_fallback_case(case)
    tried = _counting(monkeypatch, ("dpttrf", "dpttrs"), lambda name, args: name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, factors = pde._step_factors(p)
        assert kind == "lu"
        u = rng.standard_normal(p.grid.N)
        src = rng.standard_normal((p.M, p.grid.N))
        for s in (None, src):
            ref = _lu_replay(p, factors, u, s, adjoint)
            assert np.array_equal(pde.march(p, u, s, adjoint)[:, p.active()], ref)
            assert np.all(np.isfinite(ref))
    assert tried == (["dpttrf"] if case == "negative-pivot" else [])


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
    # L^2(Q) by the trapezoid rule in time, which _z_norm adds the energy to
    tw = np.full(p.M + 1, p.dt)
    tw[[0, -1]] = 0.5 * p.dt
    l2_Q = np.sqrt(np.sum(tw * np.sum(p.grid.weights * traj ** 2, axis=1)))
    assert semilinear._z_norm(p, traj) >= l2_Q > 0.0
    assert np.max(l2_norm(p.grid.weights, traj)) > 0.0


def _table_case(case, M):
    if case == "b-table":
        return _with_b_table(make_problem(N=24, M=M, b0=0.3))
    if case == "c-table":
        return _with_c_table(make_problem(a=power_coefficient(1.5), N=48, M=M, gamma=2.0,
                                          b0=0.3, c0=-2.0))
    if case.startswith("negative-pivot"):
        # 1 + dt b = -1 on the one level t_50, in the second block
        p = make_problem(N=24, M=M, c0=2.0 if case.endswith("rho") else 0.0)
        return time_drift(p, b=lambda t: np.where(t == p.times[50], -2.0 / p.dt, 0.3))
    p = make_problem(N=24, M=M, b0=0.3, c0=2.0)
    if case == "upwinded-late":
        # no level before t_41 is upwinded
        return time_drift(p, c=lambda t: np.where(t < p.times[41], -2.0, 0.0))
    # upwinded early only: the later levels are symmetrised by rho W all the same
    return time_drift(p, c=lambda t: np.where(t >= p.times[20], -2.0, 0.0))


@pytest.mark.parametrize("M", [64, 70])
@pytest.mark.parametrize("case,kind", [("b-table", "ldl-w"), ("c-table", "ldl-rho"),
                                       ("negative-pivot-w", "lu"),
                                       ("negative-pivot-rho", "lu"),
                                       ("upwinded-late", "ldl-rho"),
                                       ("upwinded-early", "ldl-rho")])
def test_table_factors_in_blocks_keep_the_one_shot_bits(case, kind, M):
    # a time-dependent drift's levels are frozen, assembled and factored a
    # block at a time; the kind is still one decision for all levels, and
    # every factor has the bits of factoring all levels at once, also where
    # a later block restarts the levels as ldl-rho or as LU, and where M is
    # no multiple of the block length
    p = _table_case(case, M)
    assert p.M > pde.LEVEL_BLOCK and p.drift.time_dependent
    want_kind, want = pde._factor_steps(*frozen_bands(p), p.dt, p.grid.weights[p.active()])
    got_kind, got = pde._step_factors(p)
    assert got_kind == want_kind == kind
    assert len(got) == len(want) == p.M
    for level_got, level_want in zip(got, want):
        assert len(level_got) == len(level_want)
        for a, b in zip(level_got, level_want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_table_factors_hold_the_factor_stacks_and_one_block():
    # a c that varies in time keeps the d, e and p factor stacks of its M
    # levels, 3 M n doubles, plus about 400 bytes of Python objects per
    # level. Freezing, assembling and factoring a block of LEVEL_BLOCK
    # levels at a time adds the frozen values, bands and temporaries of one
    # block, about 7 block-sized arrays; the bound allows 8. Assembling all
    # levels at once peaked at about 7 M n doubles.
    p = _with_c_table(make_problem(N=128, M=256, b0=0.3, c0=2.0))
    _with_c_table(make_problem(N=16, M=8, c0=2.0))      # first-call costs
    p = dataclasses.replace(p, y0=p.y0)                 # the same problem, not yet factored
    (kind, factors), peak = traced_peak(pde._step_factors, p)
    n = p.grid.N - 2
    assert kind == "ldl-rho" and len(factors) == p.M
    stacks, block = 8 * 3 * p.M * n, 8 * 8 * pde.LEVEL_BLOCK * n
    assert peak <= stacks + block + 512 * p.M, (peak - stacks) / (8 * pde.LEVEL_BLOCK * n)
