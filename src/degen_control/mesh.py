"""Graded spatial grids, the flux-form operator, and discrete norms.

The operator discretizes -(a(x) u_x)_x + b u + beta c u_x on nodes
x_i = (i/(N-1))^gamma with the diffusivity evaluated at face midpoints:

    (A u)_i = -[ a_{i+1/2} (u_{i+1}-u_i)/h_{i+1/2}
               - a_{i-1/2} (u_i-u_{i-1})/h_{i-1/2} ] / w_i  + ...

where w_i is the trapezoid quadrature weight (the dual cell length). Using
w_i as the cell measure makes A exactly self-adjoint in the trapezoid-weighted
inner product when b = c = 0, which the duality machinery relies on. The
first-order term is fully upwinded by the sign of beta*c.

Boundary conditions: node N-1 is always eliminated (Dirichlet). In the weak
case node 0 is eliminated too; in the strong case node 0 stays active with
its left face flux set to zero, encoding (a u_x)(0) = 0 without ghost nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .coefficients import Case, DegeneracyCoefficient, DriftEnvelope, zero_drift
from .errors import BadResolution, DegenerateSample

# spacing below which 1/h^2, which the flux stencil forms, overflows
H_MIN = float(np.finfo(float).max) ** -0.5


@dataclass(frozen=True)
class GridSpec:
    N: int
    nodes: np.ndarray     # (N,)
    faces: np.ndarray     # (N-1,) midpoints
    spacings: np.ndarray  # (N-1,) h_{i+1/2} = x_{i+1} - x_i
    weights: np.ndarray   # (N,) trapezoid quadrature weights


def build_grid(N: int, gamma: float = 1.0) -> GridSpec:
    if N < 8:
        raise BadResolution(f"need at least 8 nodes, got {N}")
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


def active_indices(grid: GridSpec, case: Case) -> np.ndarray:
    """Unknown node indices after boundary elimination."""
    if case is Case.SDP:
        return np.arange(0, grid.N - 1)
    return np.arange(1, grid.N - 1)


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
    active: np.ndarray
    weights: np.ndarray   # trapezoid weights restricted to active nodes

    def apply(self, u: np.ndarray) -> np.ndarray:
        r = self.diag * u
        r[..., 1:] += self.sub[..., 1:] * u[..., :-1]
        r[..., :-1] += self.sup[..., :-1] * u[..., 1:]
        return r


def assemble_operator(grid: GridSpec, a: DegeneracyCoefficient,
                      drift: DriftEnvelope) -> TriDiagOperator:
    """Flux-form diffusion + reaction + upwinded drift.

    The bands are (n,) when the drift's b and c are numbers or (N,) vectors.
    An (M+1, N) table gives bands stacked with shape (M, n): level k, for the
    step to t_{k+1}, reads the table's row k+1, and the diffusion part is
    computed once for all levels.
    """
    act = active_indices(grid, a.case)
    n = act.size
    x = grid.nodes
    h = grid.spacings
    w = grid.weights
    af = face_diffusivity(grid, a)

    def on_steps(f):
        # at the active nodes; no step reads a table's row 0
        f = np.asarray(f, dtype=float)
        return f if f.ndim == 0 else f[act] if f.ndim == 1 else f[1:, act]

    b, c = on_steps(drift.b), on_steps(drift.c)
    shape = np.broadcast_shapes(b.shape, c.shape, (n,))

    sub = np.zeros(shape)
    diag = np.zeros(shape)
    sup = np.zeros(shape)
    d = w[act]

    cR = af[act] / h[act]                       # right face conductance
    cL = np.zeros(n)
    has_left_face = act >= 1
    cL[has_left_face] = af[act[has_left_face] - 1] / h[act[has_left_face] - 1]

    diag += (cL + cR) / d
    # couplings survive only toward active neighbors; eliminated Dirichlet
    # neighbors contribute nothing (their value is zero)
    left_active = act - 1 >= act[0]
    right_active = act + 1 <= act[-1]
    sub[..., left_active] = -(cL / d)[left_active]
    sup[..., right_active] = -(cR / d)[right_active]

    diag += b

    q = np.asarray(drift.beta(x[act]), dtype=float) * c
    if np.any(q != 0.0):
        backward = (q >= 0.0) & has_left_face
        forward = ~backward
        hb = np.ones(n)
        hb[has_left_face] = h[act[has_left_face] - 1]
        qh = q / hb
        np.add(diag, qh, out=diag, where=backward)
        np.subtract(sub, qh, out=sub, where=backward & left_active)
        np.divide(q, h[act], out=qh)
        np.subtract(diag, qh, out=diag, where=forward)
        np.add(sup, qh, out=sup, where=forward & right_active)

    return TriDiagOperator(sub=sub, diag=diag, sup=sup, active=act, weights=d)


# -- inner products and norms --------------------------------------------------

def l2_inner(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    return float(np.sum(grid.weights * u * v))


def l2_norm(grid: GridSpec, u: np.ndarray) -> float:
    return float(np.sqrt(max(l2_inner(grid, u, u), 0.0)))


def dirichlet_energy(grid: GridSpec, a: DegeneracyCoefficient, u: np.ndarray):
    """|| sqrt(a) u_x ||^2 along the last axis of u, with slopes at faces,
    matching the flux stencil."""
    af = face_diffusivity(grid, a)
    du = np.diff(u)
    return np.sum(af * du * du / grid.spacings, axis=-1)


# -- discrete Hardy-type inequality --------------------------------------------

def hardy_check(grid: GridSpec, a: DegeneracyCoefficient) -> float:
    """Discrete Hardy constant: max ||v||^2 / ||sqrt(a) v_x||^2 over admissible v.

    Admissible nodal vectors vanish at x = 1 (and at x = 0 in the weak case).
    The quotient's maximum is 1/mu_min for the smallest eigenvalue mu_min of
    the weighted stiffness pencil (W A, W), i.e. of the symmetric tridiagonal
    W^{1/2} A W^{-1/2}, found by a direct tridiagonal eigensolve. A finite
    value certifies the discrete Hardy-type inequality with that constant.
    """
    op = assemble_operator(grid, a, zero_drift())
    w = op.weights
    off = op.sup[:-1] * np.sqrt(w[:-1] / w[1:])
    mu_min = eigvalsh_tridiagonal(op.diag, off, select="i", select_range=(0, 0))[0]
    if mu_min <= 0.0:
        raise DegenerateSample(f"weighted stiffness is not positive definite "
                               f"(smallest eigenvalue {mu_min:.3e})")
    return 1.0 / float(mu_min)
