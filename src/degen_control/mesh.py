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


@dataclass(frozen=True)
class GridSpec:
    N: int
    nodes: np.ndarray     # (N,)
    faces: np.ndarray     # (N-1,) midpoints
    spacings: np.ndarray  # (N-1,) h_{i+1/2} = x_{i+1} - x_i
    weights: np.ndarray   # (N,) trapezoid quadrature weights


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
    return GridSpec(N=N, nodes=nodes, faces=faces, spacings=h, weights=w)


def active_indices(grid: GridSpec, case: Case) -> slice:
    """The unknown nodes after boundary elimination, one contiguous range."""
    return slice(0 if case is Case.SDP else 1, grid.N - 1)


def face_diffusivity(grid: GridSpec, a: DegeneracyCoefficient) -> np.ndarray:
    return np.asarray(a.eval(grid.faces), dtype=float)


@dataclass(frozen=True)
class TriDiagOperator:
    """Assembled operator over the active nodes (sub[0] = sup[-1] = 0).

    Bands are (n,), or (L, n) for L stacked time levels that ``apply`` maps
    level by level."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        r = self.diag * u
        r[..., 1:] += self.sub[..., 1:] * u[..., :-1]
        r[..., :-1] += self.sup[..., :-1] * u[..., 1:]
        return r


def assemble_operator(grid: GridSpec, a: DegeneracyCoefficient,
                      drift: DriftEnvelope,
                      diffusion: TriDiagOperator | None = None) -> TriDiagOperator:
    """Flux-form diffusion + reaction + upwinded drift.

    The bands are (n,) when the drift's b and c are numbers or (N,) vectors.
    An (M+1, N) table gives bands stacked with shape (M, n): level k, for the
    step to t_{k+1}, reads the table's row k+1, and the diffusion part is
    computed once for all levels. ``diffusion``, the (n,) bands of this grid
    and coefficient under ``zero_drift()``, spares a caller that assembles
    many drifts evaluating a on the faces again; the result is the same bit
    for bit.
    """
    act = active_indices(grid, a.case)
    h = grid.spacings
    if diffusion is None:
        # conductance of node i's left face at i, of its right face at i + 1;
        # the padded 0 is the zero flux through x = 0 of a strong-case node 0
        cond = np.r_[0.0, face_diffusivity(grid, a) / h]
        cL, cR, d = cond[act], cond[1:][act], grid.weights[act]
        diffusion = TriDiagOperator(sub=-cL / d, diag=(cL + cR) / d, sup=-cR / d)

    def on_steps(f):
        # at the active nodes; no step reads a table's row 0
        f = np.asarray(f, dtype=float)
        return f if f.ndim == 0 else f[act] if f.ndim == 1 else f[1:, act]

    b, c = on_steps(drift.b), on_steps(drift.c)
    shape = np.broadcast_shapes(b.shape, c.shape, diffusion.diag.shape)
    sub = np.broadcast_to(diffusion.sub, shape).copy()
    diag = np.broadcast_to(diffusion.diag + b, shape).copy()
    sup = np.broadcast_to(diffusion.sup, shape).copy()

    try:
        with np.errstate(over="raise"):   # an overflow raises where it happens, unprinted
            q = np.asarray(drift.beta(grid.nodes[act]), dtype=float) * c
            if np.any(q != 0.0):
                backward = q >= 0.0
                backward[..., 0] &= act.start > 0     # a strong-case node 0 has no left face
                qh = q / np.r_[1.0, h][act]           # the padded 1 is never read
                np.add(diag, qh, out=diag, where=backward)
                np.subtract(sub, qh, out=sub, where=backward)
                np.divide(q, h[act], out=qh)
                np.subtract(diag, qh, out=diag, where=~backward)
                np.add(sup, qh, out=sup, where=~backward)
    except FloatingPointError:
        raise NonFiniteIntegral(f"the upwinded first-order term beta c / h overflows "
                                f"(max |c| = {float(np.max(np.abs(c))):.3e})") from None
    # eliminated Dirichlet neighbours couple to nothing (their value is zero)
    sub[..., 0] = sup[..., -1] = 0.0
    return TriDiagOperator(sub=sub, diag=diag, sup=sup)


# -- norms ---------------------------------------------------------------------

def l2_norm(w: np.ndarray, u: np.ndarray):
    """sqrt(sum w u^2) along the last axis of u, a float for a vector. Each row
    is first scaled, exactly, by the power of two of its largest |entry|, so no
    square under- or overflows where the norm itself is representable."""
    _, e = np.frexp(np.max(np.abs(u), axis=-1, keepdims=True))
    v = np.ldexp(u, -e)
    out = np.ldexp(np.sqrt(np.sum(w * v * v, axis=-1)), e[..., 0])
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
    op = assemble_operator(grid, a, zero_drift())
    w = grid.weights[active_indices(grid, a.case)]
    return op.diag, op.sup[:-1] * np.sqrt(w[:-1] / w[1:])


def hardy_check(grid: GridSpec, a: DegeneracyCoefficient) -> float:
    """Discrete Hardy constant: max ||v||^2 / ||sqrt(a) v_x||^2 over admissible v.

    Admissible nodal vectors vanish at x = 1 (and at x = 0 in the weak case).
    The quotient's maximum is 1/mu_min for the smallest eigenvalue mu_min of
    the weighted stiffness pencil (W A, W), i.e. of the symmetric tridiagonal
    W^{1/2} A W^{-1/2}, found by a direct tridiagonal eigensolve. A finite
    value certifies the discrete Hardy-type inequality with that constant.
    """
    diag, off = _symmetric_diffusion(grid, a)
    mu_min = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    if mu_min <= 0.0:
        raise DegenerateSample(f"weighted stiffness is not positive definite "
                               f"(smallest eigenvalue {mu_min:.3e})")
    return 1.0 / float(mu_min)
