import numpy as np
import pytest
import scipy.linalg as sla

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control.errors import BadResolution, DegenerateSample
from degen_control.mesh import (assemble_operator, build_grid, dirichlet_energy,
                                graded_nodes, hardy_check, l2_inner, l2_norm)
from degen_control.pde import LinearProblem
from degen_control.semilinear import frozen_drift


def _dense(op):
    return np.diag(op.diag) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)


def test_graded_node_formula():
    assert np.allclose(graded_nodes(5, 1.0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(graded_nodes(5, 2.0), [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0])
    assert np.allclose(np.diff(graded_nodes(7, 1.0)), 1 / 6)


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
    op = assemble_operator(g, a, zero_drift(), 0.0)
    n = op.active.size
    for _ in range(10):
        u = rng.standard_normal(n)
        w = rng.standard_normal(n)
        lhs = float(np.sum(op.weights * op.apply(u) * w))
        rhs = float(np.sum(op.weights * u * op.apply(w)))
        nu = np.sqrt(np.sum(op.weights * u * u))
        nw = np.sqrt(np.sum(op.weights * w * w))
        assert abs(lhs - rhs) <= 1e-12 * nu * nw


def test_row_sums_give_reaction_coefficient():
    g = build_grid(32, 1.0)
    op = assemble_operator(g, power_coefficient(0.5), constant_drift(5.0, 0.0), 0.0)
    ones = np.ones(op.active.size)
    r = op.apply(ones)
    # interior rows (both neighbors active) telescope to b = 5
    assert np.allclose(r[1:-1], 5.0, atol=1e-10)


def test_sdp_left_node_has_zero_left_flux():
    g = build_grid(32, 1.0)
    a = power_coefficient(1.5)
    op = assemble_operator(g, a, zero_drift(), 0.0)
    assert op.active[0] == 0
    assert op.sub[0] == 0.0
    # constant vector: both flux differences vanish at the left node
    r = op.apply(np.ones(op.active.size))
    assert r[0] == pytest.approx(0.0, abs=1e-12)
    # row 0 couples only to the right with the conductance over the half cell
    af0 = float(a.eval(np.array([g.faces[0]]))[0])
    expect = af0 / g.spacings[0] / g.weights[0]
    assert op.diag[0] == pytest.approx(expect, rel=1e-14)
    assert op.sup[0] == pytest.approx(-expect, rel=1e-14)


def test_positivity_with_nonnegative_reaction(rng):
    g = build_grid(40, 1.0)
    b_field = rng.uniform(0.0, 3.0)
    op = assemble_operator(g, power_coefficient(0.5),
                           constant_drift(b_field, 0.0), 0.0)
    for _ in range(20):
        u = rng.standard_normal(op.active.size)
        assert float(np.sum(op.weights * op.apply(u) * u)) >= -1e-12


def test_upwinding_is_monotone_with_drift():
    # with drift the matrix keeps nonpositive off-diagonals (M-matrix pattern)
    g = build_grid(32, 1.0)
    for c0 in (4.0, -4.0):
        op = assemble_operator(g, power_coefficient(0.5),
                               constant_drift(0.0, c0), 0.0)
        assert np.all(op.sub <= 1e-15)
        assert np.all(op.sup <= 1e-15)
        assert np.all(op.diag > 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["WDP", "SDP"])
def test_stacked_assembly_matches_scalar_time_levels(rng, alpha):
    # a frozen drift with b != 0 and c of both signs hits both upwind branches
    a = power_coefficient(alpha)
    g = build_grid(24, 1.0)
    M = 12
    p = LinearProblem(a=a, drift=constant_drift(0.0, 0.0), T=0.5,
                      omega=(0.3, 0.9), grid=g, M=M, y0=np.zeros(g.N))
    b_field = rng.uniform(-2.0, 2.0, (M + 1, g.N))
    c_field = rng.uniform(-3.0, 3.0, (M + 1, g.N))
    c_field[M // 2] = 0.0                 # one level without first-order term
    drift = frozen_drift(p, b_field, c_field)
    times = p.dt * np.arange(1, M + 1)
    stacked = assemble_operator(g, a, drift, times)
    assert stacked.diag.shape == (M, stacked.active.size)
    for k, t in enumerate(times):
        op = assemble_operator(g, a, drift, t)
        for band in ("sub", "diag", "sup"):
            assert np.array_equal(getattr(stacked, band)[k], getattr(op, band))
    u = rng.standard_normal((M, stacked.active.size))
    assert np.array_equal(stacked.apply(u),
                          [assemble_operator(g, a, drift, t).apply(v)
                           for t, v in zip(times, u)])


def test_classical_smallest_eigenvalue_matches_oracle():
    g = build_grid(64, 1.0)
    op = assemble_operator(g, classical_coefficient(), zero_drift(), 0.0)
    A = _dense(op)
    W = np.diag(op.weights)
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
        op = assemble_operator(g, classical_coefficient(), zero_drift(), 0.0)
        u = np.sin(np.pi * g.nodes)
        r = op.apply(u[op.active]) - np.pi ** 2 * u[op.active]
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
    op = assemble_operator(g, a, zero_drift(), 0.0)
    u = rng.standard_normal(g.N)
    u[0] = u[-1] = 0.0
    quad_form = float(np.sum(op.weights * op.apply(u[op.active]) * u[op.active]))
    assert quad_form == pytest.approx(dirichlet_energy(g, a, u), rel=1e-12)


# -- Hardy-type inequality -------------------------------------------------------

def test_hardy_classical_matches_eigensolve_oracle():
    g = build_grid(128, 1.0)
    a = classical_coefficient()
    c_h = hardy_check(g, a)
    op = assemble_operator(g, a, zero_drift(), 0.0)
    W = np.diag(op.weights)
    WA = W @ _dense(op)
    mu = sla.eigh(W, WA, eigvals_only=True)
    oracle = mu[-1]   # largest mass/stiffness quotient
    assert c_h == pytest.approx(oracle, rel=1e-10)
    assert c_h == pytest.approx(1.0 / np.pi ** 2, rel=0.05)


def test_hardy_sqrt_stable_under_refinement():
    a = power_coefficient(0.5)
    c128 = hardy_check(build_grid(128, 1.0), a)
    c256 = hardy_check(build_grid(256, 1.0), a)
    assert np.isfinite(c128) and c128 > 0
    assert abs(c256 - c128) <= 0.10 * c128


def test_hardy_degenerate_sample():
    zero_a = DegeneracyCoefficient(
        eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        K=0.0, case=Case.WDP, label="null")
    with pytest.raises(DegenerateSample):
        hardy_check(build_grid(16, 1.0), zero_a)


def test_l2_inner_is_trapezoid(rng):
    g = build_grid(64, 1.0)
    u = g.nodes ** 2
    assert l2_inner(g, u, np.ones_like(u)) == pytest.approx(1 / 3, abs=1e-3)
    v = rng.standard_normal(g.N)
    assert l2_norm(g, v) == pytest.approx(np.sqrt(l2_inner(g, v, v)))
    assert dirichlet_energy(g, classical_coefficient(), u) >= 0.0
