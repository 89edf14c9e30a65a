"""Graded grids, the flux-form operator, one weighted L2 norm and the H^1_a energy.

The operator discretizes -(a(x) u_x)_x + b u + beta c u_x on nodes
x_i = (i/(N-1))^gamma with the diffusivity evaluated at face midpoints:

    (A u)_i = -[ a_{i+1/2} (u_{i+1}-u_i)/h_{i+1/2}
               - a_{i-1/2} (u_i-u_{i-1})/h_{i-1/2} ] / w_i  + ...

where w_i is the trapezoid quadrature weight (the dual cell length). Using
w_i as the cell measure makes A exactly self-adjoint in the trapezoid-weighted
inner product when b = c = 0, which the duality machinery relies on. The
first-order term is fully upwinded by the sign of beta*c; an upwind
coefficient beta c / h that overflows raises ``NonFiniteIntegral``.
Upwinding keeps the off-diagonals negative, so A is symmetric in the
weights rho W for a discrete Liouville weight rho (``pde._symmetriser``),
with rho = 1 where beta c = 0. One assembler, built once per (grid, a,
beta), forms every operator for any b and c as its bands, and says whether
it is W-symmetric, which picks the weight of the step's LDL^T solve.

Boundary conditions: node N-1 is always eliminated (Dirichlet). In the weak
case node 0 is eliminated too; in the strong case node 0 stays active with
its left face flux set to zero, encoding (a u_x)(0) = 0 without ghost nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .coefficients import Case, DegeneracyCoefficient, DriftEnvelope, zero_drift
from .errors import BadResolution, DegenerateSample, NonFiniteIntegral

# spacing below which 1/h^2, which the flux stencil forms, overflows
H_MIN = float(np.finfo(float).max) ** -0.5
# desk scale is N up to about 10^3 nodes; the cap leaves a margin of ten
N_MAX = 10_000
# stebz's bisection tolerance: twice the smallest normal double resolves an
# eigenvalue to relative accuracy, where stebz's default, eps ||T||_1, does not
BISECT_TOL = 2.0 * float(np.finfo(float).tiny)


@dataclass(frozen=True)
class GridSpec:
    N: int
    nodes: np.ndarray     # (N,)
    faces: np.ndarray     # (N-1,) midpoints
    spacings: np.ndarray  # (N-1,) h_{i+1/2} = x_{i+1} - x_i
    weights: np.ndarray   # (N,) trapezoid quadrature weights
    # np.gradient's interior weights (a, b, c) on these nodes, slope_i =
    # a_i u_{i-1} + b_i u_i + c_i u_{i+1}; None where the spacings are all
    # equal and the slope is (u_{i+1} - u_{i-1}) / 2h
    slope_stencil: tuple | None

    def slopes(self, u: np.ndarray) -> np.ndarray:
        """Nodal slopes of u along its last axis: centered inside, one-sided
        at the ends. The same bits as ``np.gradient(u, nodes, axis=-1)``."""
        h = self.spacings
        out = np.empty_like(u, dtype=float)
        if self.slope_stencil is None:    # np.gradient's own branch for equal spacings
            out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * h[0])
        else:
            a, b, c = self.slope_stencil
            out[..., 1:-1] = a * u[..., :-2] + b * u[..., 1:-1] + c * u[..., 2:]
        out[..., 0] = (u[..., 1] - u[..., 0]) / h[0]
        out[..., -1] = (u[..., -1] - u[..., -2]) / h[-1]
        return out


def build_grid(N: int, gamma: float = 1.0) -> GridSpec:
    if not 8 <= N <= N_MAX:
        raise BadResolution(f"need 8 to {N_MAX} nodes, got {N}")
    if not (np.isfinite(gamma) and gamma >= 1.0):
        raise BadResolution(f"grading exponent must be finite and >= 1, got {gamma}")
    nodes = (np.arange(N, dtype=float) / (N - 1)) ** gamma
    h = np.diff(nodes)
    if not h.min() > H_MIN:
        raise BadResolution(f"grading exponent {gamma} collapses the first nodes of a "
                            f"{N}-node grid (spacing {h.min():.3e} <= {H_MIN:.3e})")
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    w = np.zeros(N)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    stencil = None
    if not (h == h[0]).all():
        h1, h2 = h[:-1], h[1:]
        stencil = (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2)))
    return GridSpec(N=N, nodes=nodes, faces=faces, spacings=h, weights=w,
                    slope_stencil=stencil)


def active_indices(grid: GridSpec, case: Case) -> slice:
    """The unknown nodes after boundary elimination, one contiguous range."""
    return slice(0 if case is Case.SDP else 1, grid.N - 1)


def face_diffusivity(grid: GridSpec, a: DegeneracyCoefficient) -> np.ndarray:
    return np.asarray(a.eval(grid.faces), dtype=float)


def _assembler(grid: GridSpec, a: DegeneracyCoefficient, beta):
    """``assemble(b, c) -> (sub, diag, sup, w_symmetric)``: the bands for b and
    c at the active nodes, as numbers, (n,) rows or stacked (L, n) levels, and
    whether they hold no first-order term. a on the faces, the diffusion
    bands, beta and each node's face spacings are formed here, once. beta c
    u_x is upwinded by the sign of q = beta c: backward where q >= 0, forward
    elsewhere and at a strong-case node 0, which has no left face; then the
    couplings to the eliminated Dirichlet nodes are cut. A q or q / h that
    overflows raises ``NonFiniteIntegral``."""
    act = active_indices(grid, a.case)
    # conductance of node i's left face at i, of its right face at i + 1;
    # the padded 0 is the zero flux through x = 0 of a strong-case node 0
    cond = np.r_[0.0, face_diffusivity(grid, a) / grid.spacings]
    cL, cR, d = cond[act], cond[1:][act], grid.weights[act]
    sub0, diag0, sup0 = -cL / d, (cL + cR) / d, -cR / d
    beta_act = np.asarray(beta(grid.nodes[act]), dtype=float)
    h_right = grid.spacings[act]
    h_left = np.r_[1.0, grid.spacings][act]     # the padded 1 is never read
    strong = act.start == 0

    def assemble(b, c):
        shape = max(np.shape(b), np.shape(c), diag0.shape, key=len)   # (L, n) or (n,)
        sub, diag, sup = np.empty(shape), np.empty(shape), np.empty(shape)
        sub[...] = sub0
        np.add(diag0, b, out=diag)
        sup[...] = sup0
        try:
            with np.errstate(over="raise"):   # an overflow raises where it happens, unprinted
                q = beta_act * c
                upwinded = bool((q != 0.0).any())
                if upwinded:
                    backward = q >= 0.0
                    if strong:
                        backward[..., 0] = False
                    qh = q / h_left
                    np.add(diag, qh, out=diag, where=backward)
                    np.subtract(sub, qh, out=sub, where=backward)
                    np.divide(q, h_right, out=qh)
                    forward = np.logical_not(backward, out=backward)
                    np.subtract(diag, qh, out=diag, where=forward)
                    np.add(sup, qh, out=sup, where=forward)
        except FloatingPointError:
            raise NonFiniteIntegral(f"the upwinded first-order term beta c / h overflows "
                                    f"(max |c| = {float(np.max(np.abs(c))):.3e})") from None
        sub[..., 0] = sup[..., -1] = 0.0
        return sub, diag, sup, not upwinded

    return assemble


def assemble_operator(grid: GridSpec, a: DegeneracyCoefficient, drift: DriftEnvelope):
    """Flux-form diffusion + reaction + upwinded drift over the active nodes,
    as ``_assembler``'s ``(sub, diag, sup, w_symmetric)`` with (n,) bands and
    sub[0] = sup[-1] = 0, for a drift whose b and c are numbers or (N,)
    vectors."""
    act = active_indices(grid, a.case)
    assemble = _assembler(grid, a, drift.beta)

    def at_active(f):
        f = np.asarray(f, dtype=float)
        return f if f.ndim == 0 else f[act]

    return assemble(at_active(drift.b), at_active(drift.c))


# -- norms ---------------------------------------------------------------------

def l2_norm(w: np.ndarray, u: np.ndarray):
    """sqrt(sum w u^2) along the last axis of u, a float for a vector. Each row
    is first scaled, exactly, by the power of two of its largest |entry|, so no
    square under- or overflows where the norm itself is representable."""
    _, e = np.frexp(np.abs(u).max(axis=-1, keepdims=True))
    v = np.ldexp(u, -e)
    out = np.ldexp(np.sqrt((w * v * v).sum(axis=-1)), e[..., 0])
    return float(out) if out.ndim == 0 else out


def dirichlet_energy(grid: GridSpec, a: DegeneracyCoefficient, u: np.ndarray):
    """|| sqrt(a) u_x ||^2 along the last axis of u, with slopes at faces,
    matching the flux stencil."""
    af = face_diffusivity(grid, a)
    du = np.diff(u)
    return np.sum(af * du * du / grid.spacings, axis=-1)


# -- the symmetrised diffusion and the discrete Hardy-type inequality ------------

def _symmetric_diffusion(grid: GridSpec, a: DegeneracyCoefficient):
    """The bands (diag, off) of the symmetric tridiagonal W^{1/2} A W^{-1/2},
    with A the drift-free operator on the active nodes and W their weights:
    A is self-adjoint in the weighted inner product, so this matrix has A's
    eigenvalues and W^{1/2}-scaled eigenvectors."""
    _, diag, sup, _ = assemble_operator(grid, a, zero_drift())
    w = grid.weights[active_indices(grid, a.case)]
    return diag, sup[:-1] * np.sqrt(w[:-1] / w[1:])


def hardy_check(grid: GridSpec, a: DegeneracyCoefficient) -> float:
    """Discrete Hardy constant: max ||v||^2 / ||sqrt(a) v_x||^2 over admissible v.

    Admissible nodal vectors vanish at x = 1 (and at x = 0 in the weak case).
    The quotient's maximum is 1/mu_min for the smallest eigenvalue mu_min of
    the weighted stiffness pencil (W A, W), i.e. of the symmetric tridiagonal
    T = W^{1/2} A W^{-1/2}. A finite value certifies the discrete Hardy-type
    inequality with that constant. ``stebz`` bisects mu_min to twice the
    smallest normal double, which resolves it to relative accuracy where its
    default, eps ||T||_1, does not: on a graded grid ||T|| grows like
    1/h_min^2. Where it does not converge, the full spectrum gives mu_min.
    """
    return 1.0 / _smallest_eigenvalue(*_symmetric_diffusion(grid, a))


def _smallest_eigenvalue(diag, off) -> float:
    """mu_min of the symmetric tridiagonal (diag, off) of a weighted
    stiffness, by ``stebz`` bisection to ``BISECT_TOL``, or from the full
    spectrum where that does not converge. Raises DegenerateSample unless
    mu_min > 0."""
    try:
        mu_min = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                      lapack_driver="stebz", tol=BISECT_TOL)[0]
    except np.linalg.LinAlgError:
        mu_min = eigvalsh_tridiagonal(diag, off)[0]
    if mu_min <= 0.0:
        raise DegenerateSample(f"weighted stiffness is not positive definite "
                               f"(smallest eigenvalue {mu_min:.3e})")
    return float(mu_min)


def _eigenvalues_in(diag, off, lower: float, upper: float,
                    tol: float = BISECT_TOL) -> np.ndarray:
    """The eigenvalues in (lower, upper] of the symmetric tridiagonal
    (diag, off), ascending, by ``stebz`` bisection to ``tol``; from the full
    spectrum where that does not converge. Their number is a Sturm count,
    exact at any tol, so at tol = inf it costs two O(n) sweeps and the
    values are not resolved."""
    if not lower < upper:       # stebz takes no empty range
        return np.empty(0)
    try:
        return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, upper),
                                    lapack_driver="stebz", tol=tol)
    except np.linalg.LinAlgError:
        lam = eigvalsh_tridiagonal(diag, off)
        return lam[(lower < lam) & (lam <= upper)]
