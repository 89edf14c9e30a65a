import dataclasses

import numpy as np
import pytest
import scipy.integrate

from degen_control import carleman, pde
from degen_control.carleman import (SourceSplit, beta_divergence, build_weights,
                                    c2_threshold, calibrate_s0,
                                    carleman_functionals, random_smooth_field,
                                    ratio_experiment, solve_terminal_source,
                                    _check_points, _sample_field,
                                    random_space_time_field)
from degen_control.coefficients import Case, power_coefficient
from degen_control.errors import NonFiniteIntegral, WeightInvalid
from degen_control.mesh import build_grid
from degen_control.pde import Trajectory

from conftest import make_problem

SQRT = power_coefficient(0.5)
GRID = build_grid(64, 1.0)


def test_c2_default_exceeds_threshold():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    assert c2_threshold(SQRT) == pytest.approx(2 / 3)
    assert w.c2 == pytest.approx(0.7, abs=1e-12)
    assert w.c2 > c2_threshold(SQRT)


def test_kappa_formulas():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    assert w.kappa_minus == pytest.approx(0.5, abs=1e-15)
    assert w.kappa_plus == pytest.approx(0.7, abs=1e-15)
    width = w.kappa_plus - w.kappa_minus
    assert w.omega_prime[0] == pytest.approx(w.kappa_minus + width / 4)
    assert w.omega_prime[1] == pytest.approx(w.kappa_plus - width / 4)


def _check_psi_deg_closed_form(alpha, c2):
    # int_0^x tau^(1 - alpha) dtau = x^(2 - alpha) / (2 - alpha)
    g = build_grid(128, 1.0)
    w = build_weights(power_coefficient(alpha), (0.3, 0.9), T=1.0, c2=c2, grid=g)
    xs = np.concatenate([_check_points(g), g.nodes, g.faces])
    exact = c2 - xs ** (2.0 - alpha) / (2.0 - alpha)
    assert np.allclose(w.psi_deg(xs), exact, rtol=0.0, atol=1e-13)
    assert w.psi_deg(1.0) == pytest.approx(c2 - 1.0 / (2.0 - alpha), abs=1e-13)


def test_psi_deg_quadrature_against_closed_form():
    _check_psi_deg_closed_form(0.5, 1.0)


def test_psi_deg_quadrature_against_closed_form_strong_degeneracy():
    _check_psi_deg_closed_form(1.5, 3.0)


def _closed_form_eta(w, x, alpha):
    """eta at x from the closed-form psi_deg of a(x) = x^alpha."""
    return w.eta(x, w.c1 * (w.c2 - x ** (2.0 - alpha) / (2.0 - alpha)))


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_weights_match_closed_form_on_fine_grids(alpha):
    # the gaps next to x = 0 are tiny, so quad's default absolute tolerance
    # would leave them about 1e-4 relative error; the weights' grid pass
    # uses a relative tolerance only
    for N in (128, 256):
        g = build_grid(N, 1.0)
        w = build_weights(power_coefficient(alpha), (0.3, 0.9), T=1.0, grid=g)
        assert np.allclose(w.eta_nodes, _closed_form_eta(w, g.nodes, alpha),
                           rtol=0.0, atol=1e-13)
        assert np.allclose(w.eta_faces, _closed_form_eta(w, g.faces, alpha),
                           rtol=0.0, atol=1e-13)


def test_theta_value_and_blowup():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    assert float(w.theta(0.5)) == pytest.approx(256.0)
    theta = w.theta(np.array([0.5, 0.1, 0.01, 0.001]))
    assert np.all(np.diff(theta) > 0.0)
    # the log weight -2 s eta theta (here s = 1) falls as theta grows, because eta > 0
    assert float(w.eta(0.5)) > 0.0
    logs = -2.0 * float(w.eta(0.5)) * theta
    assert np.all(np.diff(logs) < 0.0)


def test_theta_symmetric_about_midpoint():
    w = build_weights(SQRT, (0.3, 0.9), T=0.8, grid=GRID)
    ts = np.array([0.1, 0.2, 0.3])
    assert np.allclose(w.theta(ts), w.theta(0.8 - ts), rtol=1e-14)


def test_cutoff_and_blend_values():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    assert float(w.xi(w.kappa_minus)) == 1.0
    assert float(w.xi(w.kappa_plus)) == 0.0
    xs = np.linspace(0, 1, 101)
    assert np.all((w.xi(xs) >= 0.0) & (w.xi(xs) <= 1.0))
    # on the pure degenerate branch eta equals psi_deg
    assert float(w.eta(w.kappa_minus)) == pytest.approx(w.psi_deg(w.kappa_minus))
    assert float(w.eta(0.2)) == pytest.approx(w.psi_deg(0.2))
    # on the pure classical branch eta equals psi_cls
    assert float(w.eta(0.8)) == pytest.approx(float(w.psi_cls(0.8)))


def test_blend_is_c1_across_cutoff_interval():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    for x0 in (w.kappa_minus, w.kappa_plus):
        for delta in (1e-4, 1e-6):
            jump = abs(float(w.eta(x0 + delta)) - float(w.eta(x0 - delta)))
            djump = abs(float(w.eta_prime(x0 + delta)) - float(w.eta_prime(x0 - delta)))
            assert jump <= 200.0 * delta
            assert djump <= 2e4 * delta
    # analytic derivative agrees with central differences
    xs = np.linspace(0.05, 0.95, 37)
    fd = (w.eta(xs + 1e-7) - w.eta(xs - 1e-7)) / 2e-7
    assert np.allclose(w.eta_prime(xs), fd, rtol=1e-5, atol=1e-5)


def test_rho_shape():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    assert float(w.rho(0.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(w.rho(1.0)) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(0.01, 0.99, 99)
    assert np.all(w.rho(xs) > 0.0)
    assert float(w.rho(w.rho_peak)) == pytest.approx(1.0)
    ap, bp = w.omega_prime
    outside = np.concatenate([np.linspace(0.01, ap - 0.01, 20),
                              np.linspace(bp + 0.01, 0.99, 20)])
    assert np.all(np.abs(w.rho_prime(outside)) > 0.0)


def test_eta_prime_nonzero_beyond_cutoff():
    g = build_grid(128, 1.0)
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=g)
    region = g.nodes[(g.nodes > w.kappa_plus) & (g.nodes < 0.9)]
    assert np.all(np.abs(w.eta_prime(region)) > 0.0)


def test_weight_positivity_guard():
    with pytest.raises(WeightInvalid):
        build_weights(SQRT, (0.3, 0.9), T=1.0, c2=0.01, grid=GRID)


def test_flat_classical_profile_is_weight_invalid():
    # psi_cls' = -lam rho' e^(lam rho) falls below the 1e-12 floor on (kappa+, w2)
    for lam in (1e-13, 1e-300):
        with pytest.raises(WeightInvalid, match="eta' vanishes"):
            build_weights(SQRT, (0.3, 0.9), T=1.0, lam=lam, grid=GRID)


def test_omega_must_be_interior():
    with pytest.raises(ValueError):
        build_weights(SQRT, (0.0, 0.9), T=1.0, grid=GRID)


@pytest.mark.parametrize("bad", [{"T": float("nan")}, {"c1": float("nan")},
                                 {"lam": float("nan")}], ids=["T", "c1", "lam"])
def test_build_weights_rejects_nan_parameters(bad):
    kwargs = {"T": 1.0, **bad}
    with pytest.raises(ValueError):
        build_weights(SQRT, (0.3, 0.9), grid=GRID, **kwargs)


def test_monotone_damping_in_s():
    w = build_weights(SQRT, (0.3, 0.9), T=1.0, grid=GRID)
    phi = float(w.eta(0.4)) * float(w.theta(0.3))
    assert phi > 0.0
    logs = [-2.0 * s * phi for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(logs, logs[1:]))


# -- functionals -----------------------------------------------------------------

def _zero_traj(p):
    return Trajectory(grid=p.grid, times=p.times,
                      states=np.zeros((p.M + 1, p.grid.N)))


def test_functionals_zero_inputs():
    p = make_problem(N=32, M=16, T=1.0)
    w = build_weights(p.a, p.omega, p.T, grid=p.grid)
    v = _zero_traj(p)
    F = np.zeros((p.M + 1, p.grid.N))
    zero = [[0.0], [0.0]]
    assert np.array_equal(carleman_functionals(p, w, v, F, [2.0], "lemma"), zero)
    split = SourceSplit(F0=F, F1=F)
    assert np.array_equal(carleman_functionals(p, w, v, split, [2.0], "theorem"), zero)
    assert np.array_equal(carleman_functionals(p, w, v, F, [2.0], "cacciopoli"), zero)


def test_functionals_quadratic_homogeneity(rng):
    p = make_problem(N=48, M=32, T=2.0)
    w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
    vT = random_smooth_field(rng, p.case)(p.grid.nodes)
    F = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
    v = solve_terminal_source(p, vT, F)
    (lhs1,), (rhs1,) = carleman_functionals(p, w, v, F, [4.0], "lemma")
    v10 = Trajectory(grid=p.grid, times=p.times, states=10.0 * v.states)
    (lhs2,), (rhs2,) = carleman_functionals(p, w, v10, 10.0 * F, [4.0], "lemma")
    assert lhs2 == pytest.approx(100.0 * lhs1, rel=1e-12)
    assert rhs2 == pytest.approx(100.0 * rhs1, rel=1e-12)


def test_functionals_reject_nonfinite():
    p = make_problem(N=32, M=16, T=1.0)
    w = build_weights(p.a, p.omega, p.T, grid=p.grid)
    v = _zero_traj(p)
    v.states[3, 5] = np.inf
    F = np.zeros((p.M + 1, p.grid.N))
    with pytest.raises(NonFiniteIntegral):
        carleman_functionals(p, w, v, F, [2.0], "lemma")


def test_functional_input_validation():
    p = make_problem(N=32, M=16, T=1.0)
    w = build_weights(p.a, p.omega, p.T, grid=p.grid)
    v = _zero_traj(p)
    F = np.zeros((p.M + 1, p.grid.N))
    with pytest.raises(ValueError):
        carleman_functionals(p, w, v, F, [-1.0], "lemma")
    with pytest.raises(ValueError):
        carleman_functionals(p, w, v, F, [float("nan")], "lemma")
    # s^3 overflows although s is finite
    with pytest.raises(ValueError, match="s\\^3 finite"):
        carleman_functionals(p, w, v, F, [1e300], "lemma")
    with pytest.raises(ValueError):
        carleman_functionals(p, w, v, F, [2.0], "bogus")


def test_weights_frozen_and_tied_to_their_grid():
    p = make_problem(N=32, M=16, T=1.0)
    w = build_weights(p.a, p.omega, p.T, grid=build_grid(32, 1.0))
    with pytest.raises(ValueError, match="another grid"):
        carleman_functionals(p, w, _zero_traj(p), np.zeros((p.M + 1, p.grid.N)),
                             [2.0], "lemma")
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.c2 = 2.0
    # sampled from one cumulative psi_deg pass over nodes and faces, so equal
    # to a pass over the nodes or faces alone up to quad round-off (the bound
    # of the closed-form psi_deg tests)
    assert np.allclose(w.eta_nodes, w.eta(w.grid.nodes), rtol=0.0, atol=1e-13)
    assert np.allclose(w.eta_faces, w.eta(w.grid.faces), rtol=0.0, atol=1e-13)


def test_weights_tied_to_their_horizon():
    p = make_problem(N=32, M=32, T=0.5)
    w = build_weights(p.a, p.omega, 1.0, grid=p.grid)
    with pytest.raises(ValueError, match="T = 1, not for p.T = 0.5"):
        carleman_functionals(p, w, _zero_traj(p), np.zeros((p.M + 1, p.grid.N)),
                             [2.0], "lemma")
    with pytest.raises(ValueError, match="T = 1"):
        ratio_experiment(p, w, [1.0, 2.0], 1, "lemma", np.random.default_rng(0))


def test_weights_tied_to_their_coefficient_and_region():
    p = make_problem(N=32, M=32, T=3.0)
    v, F = _zero_traj(p), np.zeros((p.M + 1, p.grid.N))
    for a, omega, what in ((power_coefficient(1.5), p.omega, "another coefficient"),
                           (power_coefficient(0.5), p.omega, "another coefficient"),
                           (p.a, (0.1, 0.3), "omega = \\(0.1, 0.3\\)")):
        w = build_weights(a, omega, p.T, lam=0.5, grid=p.grid)
        with pytest.raises(ValueError, match=what):
            carleman_functionals(p, w, v, F, [2.0], "lemma")
        with pytest.raises(ValueError, match=what):
            ratio_experiment(p, w, [1.0, 2.0], 1, "lemma", np.random.default_rng(0))
    w = build_weights(p.a, list(p.omega), p.T, lam=0.5, grid=p.grid)
    assert w.omega == p.omega
    carleman_functionals(p, w, v, F, [2.0], "lemma")


def test_damping_weights_once_per_step_count_and_s(monkeypatch, rng):
    calls = []
    real = carleman._damping_weights

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(carleman, "_damping_weights", counting)
    p16 = make_problem(N=32, M=16, T=3.0, y0=np.zeros(32))
    w = build_weights(p16.a, p16.omega, p16.T, lam=0.5, grid=p16.grid)
    ratio_experiment(p16, w, [1, 2, 4], 4, "lemma", rng)
    assert calls == [1.0, 2.0, 4.0]
    ratio_experiment(p16, w, [1, 2, 4], 4, "lemma", rng)
    assert len(calls) == 3

    # the cache is keyed by the step count as well as s
    p32 = dataclasses.replace(p16, M=32)
    for p in (p16, p32, p16):
        vT = random_smooth_field(rng, p.case)(p.grid.nodes)
        F = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
        v = solve_terminal_source(p, vT, F)
        fresh = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
        got = carleman_functionals(p, w, v, F, [1.0, 2.0, 4.0], "lemma")
        want = carleman_functionals(p, fresh, v, F, [1.0, 2.0, 4.0], "lemma")
        assert np.array_equal(got, want)

    # an overflowing exponent raises before anything is cached, on every call
    big = build_weights(p16.a, p16.omega, p16.T, c1=1e300, lam=0.5, grid=p16.grid)
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows at s = 1e\\+10"):
            carleman_functionals(p16, big, _zero_traj(p16), np.zeros((p16.M + 1, 32)),
                                 [1e10], "lemma")
    assert big._damping == {}


def test_weights_sample_grid_factors_once(monkeypatch):
    quad_calls = []
    real_quad = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        quad_calls.append(1)
        return real_quad(*args, **kwargs)

    a_evals = []

    def counting_eval(x):
        a_evals.append(1)
        return SQRT.eval(x)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    a = dataclasses.replace(SQRT, eval=counting_eval)
    p = make_problem(a=a, N=32, M=16, T=1.0, b0=0.3)
    w = build_weights(a, p.omega, p.T, grid=p.grid)
    # one quad per distinct point of nodes and faces (0 included)
    assert len(quad_calls) == np.unique(np.r_[p.grid.nodes, p.grid.faces]).size == 63
    assert np.allclose(w.eta_nodes, _closed_form_eta(w, p.grid.nodes, 0.5),
                       rtol=0.0, atol=1e-13)
    assert np.allclose(w.eta_faces, _closed_form_eta(w, p.grid.faces, 0.5),
                       rtol=0.0, atol=1e-13)
    a_evals.clear()
    v = _zero_traj(p)
    F = np.ones((p.M + 1, p.grid.N))
    for variant, src in (("lemma", F), ("cacciopoli", F),
                         ("theorem", SourceSplit(F0=F, F1=F))):
        carleman_functionals(p, w, v, src, [2.0], variant)
    assert a_evals == []


def _reference_sides(p, w, v, src, s, variant):
    """lhs and rhs of ``variant`` at s from the module docstring's formulas,
    as direct sums over the interior (time, node) and (time, face) pairs."""
    g, t = p.grid, p.times[1:-1]
    th = ((t * (p.T - t)) ** -4.0)[:, None]
    log_n, log_f = -2.0 * s * th * w.eta_nodes, -2.0 * s * th * w.eta_faces
    top = max(log_n.max(), log_f.max())

    def on_nodes(f):
        return p.dt * np.sum(g.weights * f * np.exp(log_n - top))

    def on_faces(f):
        return p.dt * np.sum(g.spacings * f * np.exp(log_f - top))

    x = g.nodes
    a_n = np.where(x > 0.0, w.a.eval(x), np.inf)   # x^2/a and beta^2/a -> 0 at 0
    V = v.states[1:-1]
    Vx = np.diff(V, axis=1) / g.spacings
    obs = on_nodes(p.omega_mask() * V ** 2)
    if variant == "cacciopoli":
        ap, bp = w.omega_prime
        lhs = on_faces(((g.faces > ap) & (g.faces < bp)) * Vx ** 2)
    else:
        lhs = (on_faces(s * th * w.a.eval(g.faces) * Vx ** 2)
               + on_nodes(s ** 3 * th ** 3 * x ** 2 / a_n * V ** 2))
    if variant == "theorem":
        bb_a = p.drift.beta(x) ** 2 / a_n
        rhs = obs + on_nodes(src.F0[1:-1] ** 2 + s ** 2 * th ** 3 * bb_a * src.F1[1:-1] ** 2)
    else:
        rhs = on_nodes(src[1:-1] ** 2) + obs
    return lhs, rhs


@pytest.mark.parametrize("variant", ["lemma", "theorem", "cacciopoli"])
def test_functionals_match_reference_sums(rng, variant):
    p = make_problem(N=16, M=8, T=3.0)
    w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
    shape = (p.M + 1, p.grid.N)
    v = Trajectory(grid=p.grid, times=p.times, states=rng.standard_normal(shape))
    F = rng.standard_normal(shape)
    src = SourceSplit(F0=F, F1=rng.standard_normal(shape)) if variant == "theorem" else F
    ladder = [1.0, 4.0, 16.0]
    lhs, rhs = carleman_functionals(p, w, v, src, ladder, variant)
    want = np.array([_reference_sides(p, w, v, src, s, variant) for s in ladder]).T
    assert np.all(want > 0.0)
    np.testing.assert_allclose(lhs, want[0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rhs, want[1], rtol=1e-13, atol=0.0)
    # one call over the ladder is the one-element calls, bit for bit
    single = [carleman_functionals(p, w, v, src, [s], variant) for s in ladder]
    assert np.array_equal(lhs, np.concatenate([l for l, _ in single]))
    assert np.array_equal(rhs, np.concatenate([r for _, r in single]))


@pytest.mark.parametrize("variant, alpha", [("lemma", 0.5), ("theorem", 1.5),
                                            ("cacciopoli", 0.5)],
                         ids=["lemma", "theorem", "cacciopoli"])
def test_ratio_smoke(rng, variant, alpha):
    p = make_problem(a=power_coefficient(alpha), N=48, M=48, T=3.0,
                     y0=np.zeros(48))
    w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
    res = ratio_experiment(p, w, [1, 4, 16], 8, variant, rng)
    assert res.variant == variant and res.s_values == [1.0, 4.0, 16.0]
    assert all(np.isfinite(r) and r > 0 for r in res.max_ratios)
    assert all(m <= M for m, M in zip(res.median_ratios, res.max_ratios))
    assert res.s0 in res.s_values


@pytest.mark.parametrize("n_samples", [1, 5])
def test_ratio_experiment_factors_once(monkeypatch, rng, n_samples):
    factorizations = []
    real_dgttrf = pde.dgttrf

    def counting_dgttrf(*args, **kwargs):
        factorizations.append(1)
        return real_dgttrf(*args, **kwargs)

    monkeypatch.setattr(pde, "dgttrf", counting_dgttrf)
    p = make_problem(N=24, M=16, T=1.0, b0=0.3, c0=0.2)
    w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
    for variant in ("lemma", "theorem"):
        factorizations.clear()
        ratio_experiment(p, w, [1, 4], n_samples, variant, rng)
        # one drift-free problem per call: one forward and one adjoint factorisation
        assert len(factorizations) == 2


def test_cacciopoli_source_monotonicity(rng):
    p = make_problem(N=48, M=32, T=2.0)
    w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
    vT = random_smooth_field(rng, p.case)(p.grid.nodes)
    F = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
    v = solve_terminal_source(p, vT, F)
    (lhs1,), (rhs1,) = carleman_functionals(p, w, v, F, [4.0], "cacciopoli")
    (lhs2,), (rhs2,) = carleman_functionals(p, w, v, 10.0 * F, [4.0], "cacciopoli")
    assert lhs2 == pytest.approx(lhs1)
    assert rhs2 > rhs1
    assert lhs2 / rhs2 < lhs1 / rhs1


def test_cacciopoli_stable_under_refinement(rng):
    vals = {}
    for N in (64, 128):
        p = make_problem(N=N, M=64, T=3.0, y0=np.zeros(N))
        w = build_weights(p.a, p.omega, p.T, lam=0.5, grid=p.grid)
        local_rng = np.random.default_rng(99)
        ratios = []
        for _ in range(20):
            vT = random_smooth_field(local_rng, p.case)(p.grid.nodes)
            F = _sample_field(random_space_time_field(local_rng, p.case, p.T),
                              p.grid, p.times)
            v = solve_terminal_source(p, vT, F)
            (lhs,), (rhs,) = carleman_functionals(p, w, v, F, [4.0], "cacciopoli")
            ratios.append(lhs / rhs)
        vals[N] = max(ratios)
    assert abs(vals[128] - vals[64]) <= 0.20 * vals[64]


def test_calibrate_s0():
    flat = [10.0, 10.2, 10.1, 10.15]
    s0, ok = calibrate_s0([1, 2, 4, 8], flat)
    assert ok and s0 == 1.0
    growing = [1.0, 2.0, 4.0, 8.0]
    s0, ok = calibrate_s0([1, 2, 4, 8], growing)
    assert not ok and s0 == 8.0
    bends = [1.0, 5.0, 5.1, 5.12]
    s0, ok = calibrate_s0([1, 2, 4, 8], bends)
    assert ok and s0 == 2.0


def test_random_fields_respect_boundary_conditions(rng):
    f_w = random_smooth_field(rng, Case.WDP)
    assert abs(float(f_w(np.array([0.0]))[0])) < 1e-12
    assert abs(float(f_w(np.array([1.0]))[0])) < 1e-12
    f_s = random_smooth_field(rng, Case.SDP)
    assert abs(float(f_s(np.array([1.0]))[0])) < 1e-12
    slope0 = (float(f_s(np.array([1e-6]))[0]) - float(f_s(np.array([0.0]))[0])) / 1e-6
    assert abs(slope0) < 1e-3


def test_beta_divergence_constant_product_vanishes():
    g = build_grid(32, 1.0)
    # beta * F1 constant => divergence zero at interior nodes
    beta = lambda x: np.ones_like(np.asarray(x, dtype=float))
    F1 = np.ones(g.N)
    div = beta_divergence(g, beta, F1, Case.WDP)
    assert np.allclose(div[1:-1], 0.0, atol=1e-12)
    # a (k, N) array is differenced along its last axis, row by row
    rows = np.outer([1.0, -2.0, 0.5], np.sin(np.pi * g.nodes))
    for case in (Case.WDP, Case.SDP):
        div = beta_divergence(g, np.sqrt, rows, case)
        assert div.shape == rows.shape
        for row, d in zip(rows, div):
            assert np.array_equal(d, beta_divergence(g, np.sqrt, row, case))


def test_sample_field_matches_per_time_evaluation(rng):
    p = make_problem(N=48, M=32, T=2.0)
    f = random_space_time_field(rng, p.case, p.T)
    F = _sample_field(f, p.grid, p.times)
    ref = np.stack([f(p.grid.nodes, t) for t in p.times])
    assert F.shape == (p.M + 1, p.grid.N)
    assert np.allclose(F, ref, rtol=0.0, atol=1e-14)


def test_terminal_source_solver_zero_data():
    p = make_problem(N=32, M=16, T=1.0)
    v = solve_terminal_source(p, np.zeros(p.grid.N), np.zeros((p.M + 1, p.grid.N)))
    assert np.all(v.states == 0.0)
