import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.special import gamma, jv

from degen_control import mesh
from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control.errors import BadResolution, DegenerateSample
from degen_control.mesh import (active_indices, assemble_operator, build_grid,
                                dirichlet_energy, hardy_check, l2_norm)
from degen_control.pde import LinearProblem, solve_forward


def _dense(op):
    sub, diag, sup, _ = op
    return np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


def _apply(op, u):
    """A u along the last axis for the bands op = (sub, diag, sup, _), level
    by level where they are stacked."""
    sub, diag, sup, _ = op
    r = diag * u
    r[..., 1:] += sub[..., 1:] * u[..., :-1]
    r[..., :-1] += sup[..., :-1] * u[..., 1:]
    return r


def test_graded_node_formula():
    i = np.arange(9)
    assert np.allclose(build_grid(9, 1.0).nodes, i / 8)
    assert np.allclose(build_grid(9, 2.0).nodes, (i / 8) ** 2)
    assert np.allclose(np.diff(build_grid(9, 1.0).nodes), 1 / 8)


@pytest.mark.parametrize("N,gamma", [(33, 1.0), (48, 1.0), (40, 2.0), (57, 3.0)])
@pytest.mark.parametrize("shape", [(), (1,), (5,)], ids=["N", "1xN", "LxN"])
def test_grid_slopes_are_np_gradient_bit_for_bit(N, gamma, shape, rng):
    # 33 nodes at gamma = 1 are spaced exactly 1/32 apart, which takes
    # np.gradient's uniform formula; the others take its nonuniform one
    g = build_grid(N, gamma)
    assert (g.slope_stencil is None) == (N == 33)
    u = rng.standard_normal(shape + (N,))
    want = np.gradient(u, g.nodes, axis=-1)
    got = g.slopes(u)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_build_grid_guards():
    with pytest.raises(BadResolution):
        build_grid(5, 1.0)
    with pytest.raises(BadResolution):
        build_grid(32, 0.5)


def test_grid_invariants():
    g = build_grid(33, 2.0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)
    assert np.isclose(np.sum(g.weights), 1.0)


@pytest.mark.parametrize("a,gamma", [
    (classical_coefficient(), 1.0),
    (power_coefficient(0.5), 1.0),
    (power_coefficient(1.5), 2.0),
])
def test_operator_symmetry_without_drift(a, gamma, rng):
    g = build_grid(48, gamma)
    op = assemble_operator(g, a, zero_drift())
    wa = g.weights[active_indices(g, a.case)]
    for _ in range(10):
        u = rng.standard_normal(wa.size)
        w = rng.standard_normal(wa.size)
        lhs = float(np.sum(wa * _apply(op, u) * w))
        rhs = float(np.sum(wa * u * _apply(op, w)))
        nu = np.sqrt(np.sum(wa * u * u))
        nw = np.sqrt(np.sum(wa * w * w))
        assert abs(lhs - rhs) <= 1e-12 * nu * nw


def test_row_sums_give_reaction_coefficient():
    g = build_grid(32, 1.0)
    op = assemble_operator(g, power_coefficient(0.5), constant_drift(5.0, 0.0))
    r = _apply(op, np.ones(op[1].size))
    # interior rows (both neighbors active) telescope to b = 5
    assert np.allclose(r[1:-1], 5.0, atol=1e-10)


def test_sdp_left_node_has_zero_left_flux():
    g = build_grid(32, 1.0)
    a = power_coefficient(1.5)
    op = assemble_operator(g, a, zero_drift())
    act = active_indices(g, a.case)
    assert act == slice(0, g.N - 1) and op[1].size == g.N - 1
    assert op[0][0] == 0.0
    # constant vector: both flux differences vanish at the left node
    r = _apply(op, np.ones(op[1].size))
    assert r[0] == pytest.approx(0.0, abs=1e-12)
    # row 0 couples only to the right with the conductance over the half cell
    af0 = float(a.eval(np.array([g.faces[0]]))[0])
    expect = af0 / g.spacings[0] / g.weights[0]
    assert op[1][0] == pytest.approx(expect, rel=1e-14)
    assert op[2][0] == pytest.approx(-expect, rel=1e-14)


@pytest.mark.parametrize("c0", [2.0, -2.0])
@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["WDP", "SDP"])
def test_assembly_matches_stencil_entry_by_entry(alpha, c0):
    # beta(0) = 0.5, so the upwinded entries of both end rows are nonzero;
    # every entry is formed as the module docstring's stencil, one by one
    g = build_grid(8, 1.0)
    a = power_coefficient(alpha)
    b0 = 0.25

    def beta(x):
        return 0.5 + x

    op = assemble_operator(g, a, constant_drift(b0, c0, beta=beta))
    af, h, w = a.eval(g.faces), g.spacings, g.weights
    first, last = (0 if a.case is Case.SDP else 1), g.N - 2
    sub, diag, sup = [], [], []
    for i in range(first, last + 1):
        cL = af[i - 1] / h[i - 1] if i > 0 else 0.0   # zero flux through x = 0
        cR = af[i] / h[i]
        lo, d, up = -cL / w[i], (cL + cR) / w[i] + b0, -cR / w[i]
        q = beta(g.nodes[i]) * c0
        if q >= 0.0 and i > 0:      # upwind from the left face
            d += q / h[i - 1]
            lo -= q / h[i - 1]
        else:                       # from the right face, also where no left face is
            d -= q / h[i]
            up += q / h[i]
        sub.append(lo if i > first else 0.0)
        diag.append(d)
        sup.append(up if i < last else 0.0)
    for name, band, ref in zip(("sub", "diag", "sup"), op, (sub, diag, sup)):
        assert band.tobytes() == np.array(ref).tobytes(), name
    assert op[3] is False


def test_positivity_with_nonnegative_reaction(rng):
    g = build_grid(40, 1.0)
    b_field = rng.uniform(0.0, 3.0)
    op = assemble_operator(g, power_coefficient(0.5),
                           constant_drift(b_field, 0.0))
    wa = g.weights[active_indices(g, Case.WDP)]
    for _ in range(20):
        u = rng.standard_normal(wa.size)
        assert float(np.sum(wa * _apply(op, u) * u)) >= -1e-12


def test_upwinding_is_monotone_with_drift():
    # with drift the matrix keeps nonpositive off-diagonals (M-matrix pattern)
    g = build_grid(32, 1.0)
    for c0 in (4.0, -4.0):
        op = assemble_operator(g, power_coefficient(0.5),
                               constant_drift(0.0, c0))
        sub, diag, sup, _ = op
        assert np.all(sub <= 1e-15)
        assert np.all(sup <= 1e-15)
        assert np.all(diag > 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["WDP", "SDP"])
def test_stacked_assembly_matches_scalar_time_levels(rng, alpha):
    # b != 0 and c of both signs on stacked levels hit both upwind branches
    a = power_coefficient(alpha)
    g = build_grid(24, 1.0)
    M = 12
    act = active_indices(g, a.case)
    b_field = rng.uniform(-2.0, 2.0, (M, g.N))
    c_field = rng.uniform(-3.0, 3.0, (M, g.N))
    c_field[M // 2] = 0.0                 # one level without first-order term
    drift = zero_drift()
    stacked = mesh._assembler(g, a, drift.beta)(b_field[:, act], c_field[:, act])
    assert stacked[1].shape == (M, act.stop - act.start)
    # each level is the operator of its row's (N,) vectors
    rows = [dataclasses.replace(drift, b=b_field[k], c=c_field[k]) for k in range(M)]
    for k, row in enumerate(rows):
        op = assemble_operator(g, a, row)
        for band, level in zip(stacked[:3], op[:3]):
            assert np.array_equal(band[k], level)
    u = rng.standard_normal((M, act.stop - act.start))
    assert np.array_equal(_apply(stacked, u),
                          [_apply(assemble_operator(g, a, row), v) for row, v in zip(rows, u)])


def test_classical_smallest_eigenvalue_matches_oracle():
    g = build_grid(64, 1.0)
    op = assemble_operator(g, classical_coefficient(), zero_drift())
    A = _dense(op)
    W = np.diag(g.weights[active_indices(g, Case.WDP)])
    lam = sla.eigh(W @ A, W, eigvals_only=True)
    h = 1.0 / (g.N - 1)
    exact_discrete = 2.0 / h ** 2 * (1.0 - np.cos(np.pi * h))
    assert lam[0] == pytest.approx(exact_discrete, rel=1e-10)
    assert lam[0] == pytest.approx(np.pi ** 2, rel=(np.pi * h) ** 2 / 6)


def test_consistency_second_order():
    errs = []
    Ns = [33, 65, 129]
    for N in Ns:
        g = build_grid(N, 1.0)
        op = assemble_operator(g, classical_coefficient(), zero_drift())
        u = np.sin(np.pi * g.nodes)[active_indices(g, Case.WDP)]
        r = _apply(op, u) - np.pi ** 2 * u
        errs.append(np.max(np.abs(r)))
    hs = [1.0 / (N - 1) for N in Ns]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_norm_ordering(rng):
    g = build_grid(48, 1.0)
    a = power_coefficient(0.5)
    for _ in range(10):
        u = rng.standard_normal(g.N)
        assert dirichlet_energy(g, a, u) >= 0.0   # so the H^1_a norm >= L^2


def test_dirichlet_energy_matches_operator_quadratic_form(rng):
    g = build_grid(40, 1.0)
    a = power_coefficient(0.5)
    op = assemble_operator(g, a, zero_drift())
    u = rng.standard_normal(g.N)
    u[0] = u[-1] = 0.0
    act = active_indices(g, a.case)
    quad_form = float(np.sum(g.weights[act] * _apply(op, u[act]) * u[act]))
    assert quad_form == pytest.approx(dirichlet_energy(g, a, u), rel=1e-12)


# -- Hardy-type inequality -------------------------------------------------------

def test_hardy_classical_matches_eigensolve_oracle():
    g = build_grid(128, 1.0)
    a = classical_coefficient()
    c_h = hardy_check(g, a)
    op = assemble_operator(g, a, zero_drift())
    W = np.diag(g.weights[active_indices(g, a.case)])
    WA = W @ _dense(op)
    mu = sla.eigh(W, WA, eigvals_only=True)
    oracle = mu[-1]   # largest mass/stiffness quotient
    assert c_h == pytest.approx(oracle, rel=1e-10)
    assert c_h == pytest.approx(1.0 / np.pi ** 2, rel=0.05)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("gamma", [1.0, 8.0, 12.0, 20.0, 60.0, 100.0])
def test_hardy_resolves_mu_min_on_graded_grids(alpha, gamma):
    # the symmetric tridiagonal's smallest eigenvalue at 60 digits: on a
    # graded grid its norm grows like 1/h_min^2, and a bisection to
    # eps ||T||_1 loses mu_min (C_H = 1.45e-7 for 0.218 at gamma = 12)
    mpmath = pytest.importorskip("mpmath")
    g, a = build_grid(32, gamma), power_coefficient(alpha)
    diag, off = mesh._symmetric_diffusion(g, a)
    with mpmath.workdps(60):
        T = mpmath.matrix(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        mu_min = float(min(mpmath.eigsy(T, eigvals_only=True)))
    assert hardy_check(g, a) == pytest.approx(1.0 / mu_min, rel=1e-12)


def _bessel_nu_j(alpha):
    """nu = |1 - alpha|/(2 - alpha) and the first positive zero j of J_nu."""
    nu = abs(1.0 - alpha) / (2.0 - alpha)
    x = np.linspace(0.5, 6.0, 112)
    v = jv(nu, x)
    i = np.flatnonzero(np.sign(v[1:]) != np.sign(v[:-1]))[0]
    return nu, brentq(lambda t: jv(nu, t), x[i], x[i + 1], xtol=1e-15)


def _bessel_lambda1(alpha):
    """First eigenvalue of -(x^alpha u')' on (0, 1), u(1) = 0, u(0) = 0 for
    alpha < 1 and (x^alpha u')(0) = 0 for 1 <= alpha < 2 (Gueye, SIAM J.
    Control Optim. 52, 2014): ((2 - alpha)/2)^2 j^2, with j the first
    positive zero of J_nu in both cases (see ``_bessel_phi1``)."""
    return ((2.0 - alpha) / 2.0) ** 2 * _bessel_nu_j(alpha)[1] ** 2


def _bessel_phi1(alpha, x):
    """The first eigenfunction x^((1 - alpha)/2) J_nu(j x^((2 - alpha)/2)).

    Near 0 it behaves as x^(1 - alpha) for alpha < 1, which vanishes, and as
    a constant for alpha >= 1, whose flux x^alpha u' vanishes: J_nu is the
    Dirichlet solution in the weak case and the Neumann one in the strong
    case. Its value at 0 is the limit (j/2)^nu / Gamma(nu + 1) there."""
    nu, j = _bessel_nu_j(alpha)
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, 0.0 if alpha < 1.0 else (j / 2.0) ** nu / gamma(nu + 1.0))
    pos = x > 0.0
    out[pos] = x[pos] ** ((1.0 - alpha) / 2.0) * jv(nu, j * x[pos] ** ((2.0 - alpha) / 2.0))
    return out


@pytest.mark.parametrize("alpha,gamma,order", [
    (0.5, 1.0, 0.5), (0.5, 2.0, 1.0), (1.0, 1.0, 2.0), (1.5, 1.0, 1.55),
    (1.5, 2.0, 2.0)])
def test_hardy_converges_to_bessel_eigenvalue(alpha, gamma, order):
    # C_H = 1/mu_min tends to 1/lambda_1 at the measured order; grading
    # gamma = 2 restores first order for the weakly degenerate sqrt(x)
    ref = 1.0 / _bessel_lambda1(alpha)
    a = power_coefficient(alpha)
    ns = np.array([64, 128, 256, 512])
    err = [abs(hardy_check(build_grid(n, gamma), a) - ref) / ref for n in ns]
    slope = np.polyfit(np.log(ns), np.log(err), 1)[0]
    assert abs(-slope - order) <= 0.2


@pytest.mark.parametrize("alpha", [1.2, 1.7])
def test_bessel_oracle_order_in_the_strong_case(alpha):
    # nu = 0.25 and 7/3 are not integers, so J_nu and J_-nu have other zeros;
    # the discrete C_H picks J_nu (3e-6 and 5e-6 off at N = 512, gamma = 2)
    ch = hardy_check(build_grid(512, 2.0), power_coefficient(alpha))
    assert ch * _bessel_lambda1(alpha) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("alpha,gamma,order", [
    (0.5, 1.0, 0.5), (0.5, 2.0, 1.0), (1.5, 2.0, 1.8)])
def test_eigenmode_solve_converges_to_its_exact_decay(alpha, gamma, order):
    # implicit Euler from Phi_1 (T = 0.1, M = 4N) against e^(-lambda_1 T) Phi_1
    # in the relative weighted L2 norm, at the measured order over N = 64...512
    decay = np.exp(-_bessel_lambda1(alpha) * 0.1)
    ns = np.array([64, 128, 256, 512])
    err = []
    for n in ns:
        g = build_grid(n, gamma)
        phi = _bessel_phi1(alpha, g.nodes)
        p = LinearProblem(a=power_coefficient(alpha), drift=zero_drift(), T=0.1,
                          omega=(0.3, 0.9), grid=g, M=4 * n, y0=phi)
        err.append(l2_norm(g.weights, solve_forward(p)[-1] - decay * phi)
                   / l2_norm(g.weights, decay * phi))
    slope = np.polyfit(np.log(ns), np.log(err), 1)[0]
    assert abs(-slope - order) <= 0.2


def test_hardy_degenerate_sample():
    zero_a = DegeneracyCoefficient(
        eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        primitive=lambda x: np.full(np.shape(x), np.inf),   # int tau/0 diverges
        K=0.0, sigma=0.0, case=Case.WDP, label="null")
    with pytest.raises(DegenerateSample):
        hardy_check(build_grid(16, 1.0), zero_a)


def test_l2_inner_is_trapezoid():
    g = build_grid(64, 1.0)
    assert l2_norm(g.weights, g.nodes) ** 2 == pytest.approx(1 / 3, abs=1e-3)
    assert dirichlet_energy(g, classical_coefficient(), g.nodes ** 2) >= 0.0


def test_l2_norm_equals_the_unscaled_sum(rng):
    # the power-of-two scaling is exact wherever no square under- or overflows
    g = build_grid(48, 2.0)
    for _ in range(20):
        u = rng.standard_normal(g.N) * 10.0 ** rng.uniform(-100.0, 100.0)
        got = l2_norm(g.weights, u)
        assert isinstance(got, float)
        assert np.array_equal(got, np.sqrt(np.sum(g.weights * u * u)))
    rows = rng.standard_normal((7, g.N)) * 10.0 ** rng.uniform(-100.0, 100.0, (7, 1))
    assert np.array_equal(l2_norm(g.weights, rows),
                          np.sqrt(np.sum(g.weights * rows * rows, axis=-1)))


def test_l2_norm_finite_where_the_squares_overflow(rng):
    g = build_grid(48, 1.0)
    u = rng.standard_normal(g.N)
    for scale in (1e200, 1e-200):
        got = l2_norm(g.weights, u * scale)
        assert np.isfinite(got) and got > 0.0
        assert got == pytest.approx(scale * l2_norm(g.weights, u), rel=1e-15)
    assert l2_norm(g.weights, np.zeros(g.N)) == 0.0
    assert np.array_equal(l2_norm(g.weights, np.zeros((3, g.N))), np.zeros(3))
