import dataclasses

import numpy as np
import pytest

from degen_control import pde
from degen_control.control import (ObservabilityReport, _cg,
                                   _gramian_apply_active, diffusion_preconditioner,
                                   epsilon_sweep, gramian, hum_solve,
                                   observability_estimate)
from degen_control.coefficients import power_coefficient
from degen_control.errors import NoConvergence, NonFiniteIntegral, NotSPD
from degen_control.mesh import l2_norm
from degen_control.pde import solve_adjoint, solve_forward

from conftest import heat_problem, make_problem


def test_gramian_zero_maps_to_zero():
    p = make_problem(N=32, M=16)
    act = p.active()
    assert np.all(_gramian_apply_active(p, act, np.zeros(p.grid.nodes[act].size)) == 0.0)


def test_gramian_symmetry_and_quadratic_form(rng):
    p = make_problem(N=48, M=32, b0=0.2)
    act = p.active()
    w = p.grid.weights[act]
    mask_w = w * p.omega_mask()[act]
    for _ in range(5):
        u = rng.standard_normal(p.grid.N)
        v = rng.standard_normal(p.grid.N)
        u[[0, -1]] = v[[0, -1]] = 0.0
        Lu = _gramian_apply_active(p, act, u[act])
        Lv = _gramian_apply_active(p, act, v[act])
        s_uv = float(np.sum(w * Lu * v[act]))
        s_vu = float(np.sum(w * u[act] * Lv))
        assert s_uv == pytest.approx(s_vu, rel=1e-11, abs=1e-14)
        # <Lam u, u> equals the control-region energy of the adjoint states
        adj = solve_adjoint(p, u)
        energy = p.dt * float(np.sum(mask_w * adj[:-1][:, act] ** 2))
        s_uu = float(np.sum(w * Lu * u[act]))
        assert s_uu == pytest.approx(energy, rel=1e-11)
        assert s_uu >= 0.0


@pytest.mark.parametrize("alpha, M", [
    pytest.param(alpha, M, id=f"{case}-{M}")
    for case, alpha in (("WDP", 0.5), ("SDP", 1.5)) for M in (8, 13, 37)])
def test_gramian_matches_marched_operators(alpha, M):
    # odd M exercise the binary decomposition's "plus one step" branch
    p = make_problem(a=power_coefficient(alpha), N=40, M=M, b0=0.2, c0=-1.0)
    act = p.active()
    n = p.grid.nodes[act].size
    w = p.grid.weights[act]
    B, E = gramian(p)
    assert B.shape == E.shape == (n, n)
    assert np.array_equal(B, B.T)
    eye = np.eye(n)
    Lam = np.column_stack([_gramian_apply_active(p, act, eye[:, j]) for j in range(n)])
    E_marched = np.column_stack([pde.march(p, e, adjoint=True)[0, act]
                                 for e in np.eye(p.grid.N)[act]])
    assert np.linalg.norm(B / w[:, None] - Lam) <= 1e-13 * np.linalg.norm(Lam)
    assert np.linalg.norm(E - E_marched) <= 1e-13 * np.linalg.norm(E_marched)


def test_hum_zero_datum():
    p = make_problem(N=32, M=16, y0=np.zeros(32))
    res = hum_solve(p, 1e-6)
    assert np.all(res.h == 0.0)
    assert np.all(res.vhatT == 0.0)
    assert np.all(res.yT == 0.0)
    assert res.cg_iters == 0
    assert res.cost == 0.0


def test_hum_heat_reaches_small_final_state():
    p = heat_problem(N=64, M=128, T=0.5)
    res = hum_solve(p, 1e-6)
    y0n = l2_norm(p.grid.weights, p.y0)
    assert res.norm_yT <= 1e-3 * y0n
    assert res.optimality_gap <= 10.0 * 1e-10 * y0n
    # energy functional decreases monotonically along CG
    hist = np.array(res.cg_energy_history)
    assert np.all(np.diff(hist) <= 1e-15)


def test_hum_matches_dense_oracle(rng):
    # brute-force solve of (Lam + eps I) x = -y_free(T) on a small instance
    p = make_problem(N=24, M=16, b0=0.1)
    act = p.active()
    n = p.grid.nodes[act].size
    eps = 1e-4
    Lam = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        Lam[:, j] = _gramian_apply_active(p, act, e)
    rhs = -solve_forward(p)[-1][act]
    x_dense = np.linalg.solve(Lam + eps * np.eye(n), rhs)
    res = hum_solve(p, eps, cg_tol=1e-12)
    assert np.max(np.abs(res.vhatT[act] - x_dense)) <= 1e-6 * np.max(np.abs(x_dense))


def test_hum_optimality_identity_and_duality_consistency(rng):
    p = make_problem(N=48, M=48)
    res = hum_solve(p, 1e-5)
    act = p.active()
    w = p.grid.weights[act]
    # for arbitrary test terminal data the duality identity holds with the
    # computed control
    for _ in range(3):
        test_w = rng.standard_normal(p.grid.N)
        test_w[[0, -1]] = 0.0
        v_w = solve_adjoint(p, test_w)
        t1 = float(np.sum(w * res.yT[act] * test_w[act]))
        t2 = float(np.sum(w * p.y0[act] * v_w[0][act]))
        mask_w = w * p.omega_mask()[act]
        t3 = p.dt * float(np.sum(mask_w * res.h[:, act] * v_w[:-1][:, act]))
        scale = max(abs(t1), abs(t2), abs(t3))
        assert abs(t1 - t2 - t3) <= 1e-9 * scale


def test_hum_on_graded_grid_strong_degeneracy():
    p = make_problem(a=power_coefficient(1.5), N=64, M=128, gamma=2.0)
    res = hum_solve(p, 1e-6)
    y0n = l2_norm(p.grid.weights, p.y0)
    assert res.norm_yT <= 0.05 * y0n
    assert res.optimality_gap <= 10.0 * 1e-10 * y0n


def test_epsilon_monotone_decrease_for_weak_degeneracy():
    p = make_problem(N=48, M=64)
    sw = epsilon_sweep(p, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    norms = [r.norm_yT for r in sw.rows]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert 0.3 <= sw.slope <= 0.7
    assert sw.cost_ratio <= 10.0


def test_sweep_zero_datum_all_rows_zero():
    p = make_problem(N=32, M=16, y0=np.zeros(32))
    sw = epsilon_sweep(p, [1e-2, 1e-3, 1e-4, 1e-5])
    assert all(r.norm_yT == 0.0 and r.cost == 0.0 for r in sw.rows)


def test_sweep_preconditions():
    p = make_problem(N=32, M=16)
    with pytest.raises(ValueError):
        epsilon_sweep(p, [1e-2, 1e-3, 1e-4])
    with pytest.raises(ValueError):
        epsilon_sweep(p, [1e-4, 1e-3, 1e-2, 1e-5])
    with pytest.raises(ValueError):
        epsilon_sweep(p, [1e-2, float("nan"), 1e-4, 1e-5])


def _counted_sweep(monkeypatch, p, eps):
    solves = []
    real_dgttrs = pde.dgttrs

    def counting_dgttrs(*args, **kwargs):
        solves.append(1)
        return real_dgttrs(*args, **kwargs)

    monkeypatch.setattr(pde, "dgttrs", counting_dgttrs)
    return epsilon_sweep(p, eps), len(solves)


def test_sweep_shares_one_krylov_space(monkeypatch):
    # one multi-column transposed solve on diag(w) for the dense Gramian's
    # one-step adjoint matrix, one free forward sweep, then one backward and
    # one forward sweep per penalty; the linear solves themselves march nothing
    p = make_problem(N=32, M=16)
    eps = [1e-2, 1e-3, 1e-4, 1e-5]
    _, solves = _counted_sweep(monkeypatch, p, eps)
    assert solves == 1 + p.M * (1 + 2 * len(eps)) == 145


def test_hum_solve_count_closed_form(monkeypatch):
    # a time-independent problem factors once; then every sweep is M solves:
    # the free forward sweep, one backward and one forward sweep per CG
    # iteration, and the adjoint and forward sweeps that build the control
    calls = {"dgttrf": 0, "dgttrs": 0}
    for name in calls:
        def counting(*args, _real=getattr(pde, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pde, name, counting)
    p = make_problem(N=32, M=24, b0=0.2, c0=0.1)
    res = hum_solve(p, 1e-6)
    assert res.cg_iters > 0
    assert calls == {"dgttrf": 1, "dgttrs": p.M * (1 + 2 * res.cg_iters + 2)}


def test_dense_paths_refuse_drift_tables():
    # binary powering needs one step matrix for every level; a drift table
    # takes hum_solve's matrix-free path instead
    p = make_problem(N=32, M=16, b0=0.2)
    p = p.with_drift(dataclasses.replace(p.drift, b=np.full((p.M + 1, p.grid.N), 0.2)))
    assert p.drift.time_dependent
    with pytest.raises(ValueError, match="time-independent"):
        gramian(p)
    with pytest.raises(ValueError, match="time-independent"):
        epsilon_sweep(p, [1e-2, 1e-3, 1e-4, 1e-5])
    with pytest.raises(ValueError, match="time-independent"):
        observability_estimate(p, 4, 0, np.random.default_rng(0))


@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["WDP", "SDP"])
def test_sweep_rows_match_hum_solve(alpha):
    # the eigendecomposed ladder against one matrix-free CG solve per rung
    p = make_problem(a=power_coefficient(alpha), N=40, M=32, b0=0.2, c0=-1.0)
    eps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    for row in epsilon_sweep(p, eps).rows:
        res = hum_solve(p, row.epsilon)
        assert row.norm_yT == pytest.approx(res.norm_yT, rel=1e-8)
        assert row.cost == pytest.approx(res.cost, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["WDP", "SDP"])
def test_sweep_rejects_penalties_below_round_off(alpha):
    # B's smallest eigenvalues sit far below 1e-14, so the ladder's last
    # rungs leave (Lam + eps I) positive definite only within round-off
    p = make_problem(a=power_coefficient(alpha), N=32, M=16)
    with pytest.raises(NotSPD):
        epsilon_sweep(p, [1e-13, 1e-14, 1e-15, 1e-16])


def test_hum_rejects_bad_epsilon():
    p = make_problem(N=32, M=16)
    for epsilon in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hum_solve(p, epsilon)


def test_cg_not_spd():
    rhs = np.ones(4)
    inner = lambda u, v: float(u @ v)
    with pytest.raises(NotSPD):
        _cg(lambda u: -u, rhs, inner, 1e-10, 50)


def test_cg_no_convergence_reports_history():
    rhs = np.array([1.0, 1.0])
    A = np.diag([1.0, 1e-12])
    inner = lambda u, v: float(u @ v)
    with pytest.raises(NoConvergence) as exc:
        _cg(lambda u: A @ u, rhs, inner, 1e-14, 1)
    assert len(exc.value.residual_history) >= 1


def _spd_system():
    """SPD A with spectrum in [0.1, 1], a right-hand side and the inner product."""
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = Q @ np.diag(np.geomspace(0.1, 1.0, 60)) @ Q.T
    return A, rng.standard_normal(60), lambda u, v: float(u @ v)


def test_cg_solves_each_shifted_system():
    A, rhs, inner = _spd_system()
    for sigma in [1e-2, 1.0, 1e-4, 1e-1]:
        A_sigma = A + sigma * np.eye(60)
        x, iters, res_hist, energy_hist = _cg(lambda u: A_sigma @ u, rhs, inner,
                                              1e-10, 500)
        assert len(res_hist) == len(energy_hist) == iters + 1
        assert np.all(np.diff(energy_hist) <= 0.0)
        assert energy_hist[-1] == pytest.approx(0.5 * x @ A_sigma @ x - rhs @ x, rel=1e-9)
        exact = np.linalg.solve(A_sigma, rhs)
        assert np.linalg.norm(x - exact) <= 1e-6 * np.linalg.norm(exact)


def test_cg_warm_start_that_meets_the_rule_returns_it():
    A, rhs, inner = _spd_system()
    x0 = np.linalg.solve(A, rhs)
    applies = []

    def apply_op(u):
        applies.append(1)
        return A @ u

    x, iters, res_hist, energy_hist = _cg(apply_op, rhs, inner, 1e-10, 500, x0=x0)
    assert iters == 0 and len(applies) == 1      # only the residual of x0
    assert np.array_equal(x, x0) and x is not x0
    assert res_hist[0] <= 1e-10 * np.linalg.norm(rhs)
    assert len(energy_hist) == 1


def test_cg_warm_start_keeps_the_stopping_rule_and_descends():
    A, rhs, inner = _spd_system()
    tol = 1e-10
    x0 = np.linalg.solve(A, rhs) + 1e-3 * np.random.default_rng(4).standard_normal(60)
    x, iters, res_hist, energy_hist = _cg(lambda u: A @ u, rhs, inner, tol, 500, x0=x0)
    _, cold_iters, _, _ = _cg(lambda u: A @ u, rhs, inner, tol, 500)
    assert 0 < iters < cold_iters
    # measured against ||rhs||, not against the smaller ||r_0||
    assert np.linalg.norm(rhs - A @ x) <= tol * np.linalg.norm(rhs)
    assert res_hist[0] == pytest.approx(np.linalg.norm(rhs - A @ x0), rel=1e-12)
    assert energy_hist[0] == pytest.approx(0.5 * x0 @ A @ x0 - rhs @ x0, rel=1e-12)
    assert np.all(np.diff(energy_hist) <= 0.0)
    assert energy_hist[-1] == pytest.approx(0.5 * x @ A @ x - rhs @ x, rel=1e-9)


def test_pcg_on_a_weighted_system_matches_a_dense_solve():
    # A = W^-1 S with S SPD is self-adjoint in the weighted inner product, and
    # so is its Jacobi preconditioner; every iterate's residual and energy
    # are the recorded ones, which a rerun stopping there returns
    rng = np.random.default_rng(5)
    n = 40
    w = rng.uniform(0.5, 2.0, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    D = np.geomspace(1.0, 100.0, n)
    S = D[:, None] * (Q @ np.diag(np.geomspace(0.1, 1.0, n)) @ Q.T) * D[None, :]
    A = S / w[:, None]
    rhs = rng.standard_normal(n)
    inner = lambda u, v: float(np.sum(w * u * v))
    jacobi = np.diag(A).copy()
    apply_op, precond = (lambda u: A @ u), (lambda r: r / jacobi)
    x, iters, res_hist, energy_hist = _cg(apply_op, rhs, inner, 1e-10, 500,
                                          precond=precond)
    _, cg_iters, _, _ = _cg(apply_op, rhs, inner, 1e-10, 500)
    assert 0 < iters < cg_iters
    exact = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - exact) <= 1e-7 * np.linalg.norm(exact)
    assert len(res_hist) == len(energy_hist) == iters + 1
    assert np.all(np.diff(energy_hist) <= 0.0)
    norm_rhs = np.sqrt(inner(rhs, rhs))
    for k in range(1, iters + 1):
        tol = res_hist[k] * (1.0 + 1e-12) / norm_rhs
        xk, j, res_k, energy_k = _cg(apply_op, rhs, inner, tol, 500, precond=precond)
        assert j <= k and res_k == res_hist[:j + 1] and energy_k == energy_hist[:j + 1]
        r = rhs - A @ xk
        assert abs(res_hist[j] - np.sqrt(inner(r, r))) <= 1e-12 * norm_rhs + 1e-8 * res_hist[j]
        assert energy_hist[j] == pytest.approx(0.5 * inner(xk, A @ xk) - inner(rhs, xk),
                                               rel=1e-9)


@pytest.mark.parametrize("alpha, gamma", [(0.5, 1.0), (1.5, 2.0)], ids=["WDP", "SDP"])
def test_diffusion_preconditioner_inverts_the_penalised_gramian(alpha, gamma):
    # at eps = 1e-6 every mode is coupled, so P (Lam_0 + eps I) = eps I against
    # the dense gramian; a larger eps couples only the smooth modes, and P
    # stays self-adjoint in the weighted inner product with spectrum in (0, 1]
    p = make_problem(a=power_coefficient(alpha), N=32, M=32, gamma=gamma)
    act = p.active()
    w = p.grid.weights[act]
    n = w.size
    B, _ = gramian(p)
    eye = np.eye(n)
    sw = np.sqrt(w)
    for eps, tol in ((1e-6, 1e-10), (1e-2, 0.02)):
        P = diffusion_preconditioner(p, eps)
        PA = np.column_stack([P(col) for col in (B / w[:, None] + eps * eye).T])
        assert np.max(np.abs(PA / eps - eye)) <= tol, eps
        S = sw[:, None] * np.column_stack([P(col) for col in eye]) / sw[None, :]
        assert np.max(np.abs(S - S.T)) <= 1e-14, eps
        spectrum = np.linalg.eigvalsh(0.5 * (S + S.T))
        assert spectrum[0] > 0.0 and spectrum[-1] <= 1.0 + 1e-12, eps
    # the drift is not read, and no mode needs coupling at a penalty this large
    drifted = make_problem(a=power_coefficient(alpha), N=32, M=32, gamma=gamma,
                           b0=30.0, c0=-2.0)
    r = np.random.default_rng(6).standard_normal(n)
    assert np.array_equal(diffusion_preconditioner(drifted, 1e-6)(r),
                          diffusion_preconditioner(p, 1e-6)(r))
    assert diffusion_preconditioner(p, 1e3) is None


@pytest.mark.parametrize("x0", [np.zeros(59), np.zeros((60, 1)),
                                np.full(60, np.nan), np.full(60, np.inf)],
                         ids=["short", "column", "nan", "inf"])
def test_cg_rejects_a_bad_initial_guess(x0):
    A, rhs, inner = _spd_system()
    with pytest.raises(ValueError, match="initial guess"):
        _cg(lambda u: A @ u, rhs, inner, 1e-10, 500, x0=x0)


def test_hum_warm_start_from_its_own_solution():
    p = make_problem(N=32, M=16)
    cold = hum_solve(p, 1e-6)
    warm = hum_solve(p, 1e-6, x0=cold.vhatT)
    assert cold.cg_iters > 0 and warm.cg_iters == 0
    assert np.array_equal(warm.vhatT, cold.vhatT) and np.array_equal(warm.h, cold.h)
    for x0 in (np.zeros(p.grid.N - 1), np.full(p.grid.N, np.nan)):
        with pytest.raises(ValueError, match="initial guess"):
            hum_solve(p, 1e-6, x0=x0)


def test_hum_no_convergence():
    p = heat_problem(N=48, M=32, T=0.5)
    with pytest.raises(NoConvergence):
        hum_solve(p, 1e-8, cg_tol=1e-12, max_iters=2)


def test_observability_basic_and_max_dominates(rng):
    p = make_problem(N=48, M=48)
    rep = observability_estimate(p, 25, power_iters=6, rng=rng)
    assert isinstance(rep, ObservabilityReport)
    assert np.isfinite(rep.max_quotient)
    assert rep.max_quotient >= max(rep.quotients)
    assert len(rep.quotients) == 25


def test_observability_supported_sample_attains_its_quotient(rng):
    # short horizon, terminal datum supported inside the control region
    p = heat_problem(N=48, M=32, T=0.05)
    act = p.active()
    w = p.grid.weights[act]
    mask_w = w * p.omega_mask()[act]
    vT = np.where(p.omega_mask(), np.sin(np.pi * p.grid.nodes), 0.0)
    adj = solve_adjoint(p, vT)
    num = float(np.sum(w * adj[0][act] ** 2))
    den = p.dt * float(np.sum(mask_w * adj[:-1][:, act] ** 2))
    quotient = num / den
    assert np.isfinite(quotient) and quotient > 0.0


def test_observability_refinement_stability_sqrt():
    vals = {}
    for N in (64, 128):
        p = make_problem(N=N, M=64, y0=np.zeros(N))
        rep = observability_estimate(p, 30, power_iters=8,
                                     rng=np.random.default_rng(11))
        vals[N] = rep.max_quotient
    assert abs(vals[128] - vals[64]) <= 0.25 * vals[64]


def test_observability_zero_denominator():
    # a control region with no grid node would zero every quotient's
    # denominator; the problem refuses it at construction
    with pytest.raises(ValueError, match="omega"):
        make_problem(N=8, M=8, omega=(0.501, 0.502), y0=np.zeros(8))


@pytest.mark.parametrize("b0", [1e12, 1e200])
def test_observability_underflowed_quotient_is_named(rng, b0):
    # a strong drift sweeps the adjoint out of the grid: at b = 1e12 u'Au
    # underflows to 0 (the maximum read 0), at 1e200 u'Bu does too (0/0)
    p = make_problem(N=16, M=16, b0=b0)
    with pytest.raises(NonFiniteIntegral, match="numerator u'Au of sample 0 underflowed"):
        observability_estimate(p, 5, power_iters=0, rng=rng)
