"""Implicit-Euler time integration of the linear equation and its adjoint.

The forward step solves (I + dt A(t_{n+1})) y^{n+1} = y^n + dt h^n with the
control slice h^n acting on the interval (t_n, t_{n+1}] and masked to the
control region. The adjoint is *defined* as the algebraic transpose of the
forward one-step map in the trapezoid-weighted inner product, stepping
backward from terminal data. Consequently the discrete duality identity

    <y(T), vT> - <y0, v(0)> = sum_n dt <h^n, v^n>_omega

holds to solver round-off for every (y0, h, vT), which is what the control
and observability machinery is built on (discretize-then-optimize).

A time-dependent drift is read at the backward node: the step to t_{n+1}
takes its level n+1, and no step reads level 0.

Every sweep goes through ``march``. Each problem's step matrices M_k = I +
dt A(t_k) are assembled and factored once, cached on the problem, and solved
with in both directions: one level where the drift is constant in time, and
otherwise every level, assembled and factored ``LEVEL_BLOCK`` levels at a
time, so that no band or temporary of all M levels exists beside the factors
kept. The one time-dependent drift, ``semilinear.FrozenDrift``, freezes the
b and c of a block of levels as the block is asked for (``step_blocks``).
The kernel, ``_factor_steps``, factors a level or a block of levels;
the kind of factorisation is one decision per problem. The upwinded A is an
M-matrix, so each M_k is diagonally similar to a symmetric matrix: S_k =
P_k M_k is symmetric for a positive diagonal P_k, factored LDL^T
(``dpttrf``) and solved with ``dpttrs``.

- Where beta c vanishes on every level, W A is symmetric and P_k = W. Then
  G = W^{-1} M^{-T} W equals M^{-1} = S^{-1} W, so both directions take the
  same step row <- S_k^{-1} (W row), one in-place ``dpttrs`` with the
  multiply by w fused into forming the row.
- Any nonzero beta c takes P_k = rho_k W, with rho the discrete Liouville
  weight exp(-int beta c / a) of the upwinded level (``_symmetriser``; Roos,
  Stynes & Tobiska, *Robust Numerical Methods for Singularly Perturbed
  Differential Equations*, Springer 2008). The forward step is the one
  above with p_k for w. The adjoint runs in u = W v, where M^{-T} = P S^{-1}
  makes each step u <- p_k S_k^{-1} u, and a sweep scales by W once before
  and once after its loop. So it is the exact W-transpose of the forward
  map, and the duality identity holds to round-off. Each level's largest p
  is scaled into [1/2, 1), so P y never overflows; S_k^{-1} u can exceed u
  by up to the spread of p, so an adjoint state near the overflow threshold
  can overflow inside the solve where LU would not, and fail closed.
- A symmetriser that is out of the doubles' range, or an S_k with a
  nonpositive pivot (1 + dt b < 0, for example), keeps pivoted LU
  (``dgttrf``) bit for bit. Its adjoint runs in u = W v as above, with
  ``dgttrs`` in transposed mode.

A sweep splits its states into rows once and zips each step's previous
row, the row it fills and the step's factors, in sweep order, into one
loop per kind of step (LDL^T forward or adjoint in u, each with or without
a source, and one LU loop); no step tests its kind or indexes the states.
``dpttrs`` and ``dgttrs`` are looked up in this module's namespace at each
call, never bound early, so a wrapper set on the module sees every solve.

The rounding order is part of the method: ``hum_solve``'s CG takes 108
iterations on the README ``control`` config. Scaling by W around every LU
step rounds twice more per step and gives 109; marching LDL^T in
z = W^{1/2} y, with the symmetric scaling W^{1/2} M W^{-1/2}, gives 106.

The solvers return the (M+1, N) nodal states at ``p.times`` as plain arrays
and raise ``NonFiniteIntegral`` on an overflowed state; ``march``, which CG
calls directly, does not check. ``control``'s forward rerun calls ``march``
on an already masked control and checks its states with ``_finite``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .coefficients import DegeneracyCoefficient, DriftEnvelope
from .errors import BadResolution, NonFiniteIntegral, SolverBreakdown
from .mesh import GridSpec, _assembler, active_indices, assemble_operator

# desk scale is M up to about 10^3 steps; the cap leaves a margin of ten
M_MAX = 10_000
# time levels per block where a time-dependent drift's levels are built; see _frozen_levels
LEVEL_BLOCK = 32
# the smallest positive normal double; a symmetriser below it has lost digits
_TINY = float(np.finfo(float).tiny)


@dataclass
class LinearProblem:
    """Data of one linear control problem on the unit interval."""

    a: DegeneracyCoefficient
    drift: DriftEnvelope
    T: float
    omega: tuple
    grid: GridSpec
    M: int
    y0: np.ndarray
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        w1, w2 = self.omega
        if not (0.0 < w1 < w2 < 1.0):
            raise ValueError(f"control region must satisfy 0 < w1 < w2 < 1, got {self.omega}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if self.M < 8:
            raise ValueError("need at least 8 time steps")
        if self.M > M_MAX:
            raise BadResolution(f"need at most {M_MAX} time steps, got {self.M}")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.grid.N,):
            raise ValueError("initial datum must be a nodal vector on the grid")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("initial datum must be finite")
        if not np.any(self.omega_mask()):
            raise ValueError(f"control region omega = {self.omega} holds no grid node")
        self.drift.check_shape(self.M, self.grid.N)

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    def with_drift(self, drift: DriftEnvelope) -> "LinearProblem":
        return dataclasses.replace(self, drift=drift)

    def active(self) -> slice:
        return active_indices(self.grid, self.a.case)

    def omega_mask(self) -> np.ndarray:
        x = self.grid.nodes
        return (x >= self.omega[0]) & (x <= self.omega[1])


def _symmetriser(sub, sup):
    """The diagonal p of P_k that makes P_k A_k symmetric, for the (n,) or
    stacked (L, n) bands of an upwinded A, level by level: p_{i+1} = p_i
    sup_i / sub_{i+1}, which is the discrete Liouville weight rho = exp(-int
    beta c / a) times W up to a constant. Each level is scaled by a power of
    two, which is exact, so that its largest p lies in [1/2, 1) and P_k y
    cannot overflow. None where some p is not a positive normal number, as
    where rho spans more than the doubles do; no warning is raised either
    way."""
    with np.errstate(all="ignore"):
        p = np.empty(np.shape(sup))
        p[..., 0] = 1.0
        np.divide(sup[..., :-1], sub[..., 1:], out=p[..., 1:])
        np.cumprod(p, axis=-1, out=p)
        top = p.max(axis=-1, keepdims=True)
    if not top.max() < np.inf:      # a nan fails too
        return None
    np.ldexp(p, -np.frexp(top)[1], out=p)
    return p if _TINY <= p.min() else None


def _factor_steps(sub, diag, sup, w_symmetric: bool, dt: float, w: np.ndarray,
                  step: int = 1, ldl: bool = True) -> tuple[str, list]:
    """``(kind, factors)``: the factors of the step matrix M_k = I + dt A_k of
    each level of A's (n,) or stacked (L, n) bands, as ``mesh._assembler``
    gives them with their W-symmetry, the first level being the step to time
    index ``step``, for the weights ``w`` of the active nodes. Each level's
    bands are formed in one pass over all levels and factored in place.

    Each level's S_k = P_k M_k is symmetric for a positive diagonal P_k: W
    itself where A is ``w_symmetric`` (kind ``"ldl-w"``), the symmetriser
    of ``_symmetriser`` otherwise (kind ``"ldl-rho"``). S_k has diagonal
    p (1 + dt diag) and off-diagonal dt p sup, and is factored LDL^T
    (``dpttrf``); a level's factors are ``(d, e, p)``. Where no symmetriser
    exists, or some level has a nonpositive pivot (1 + dt b < 0, say), or
    ``ldl`` is false, every level takes the LU factors of M_k instead (kind
    ``"lu"``: ``dgttrf`` on dt sub, 1 + dt diag and dt sup), which raise
    ``SolverBreakdown`` on a singular level. ``_step_solve`` takes a step
    with any kind. A step matrix whose entries overflow raises
    ``NonFiniteIntegral``, with no warning printed first."""
    def levels(*bands):     # the rows of stacked bands, or the one level
        return zip(*bands) if diag.ndim == 2 else (bands,)

    if not ldl:
        p = None
    elif w_symmetric:
        kind, p = "ldl-w", w
    else:
        kind, p = "ldl-rho", _symmetriser(sub, sup)
    try:
        with np.errstate(over="raise"):   # an overflow raises where it happens, unprinted
            if p is not None:
                factors = []
                for d, e, p_k in levels(p * (1.0 + dt * diag), dt * p[..., :-1] * sup[..., :-1],
                                        p if p.ndim == diag.ndim else np.broadcast_to(p, diag.shape)):
                    *f, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
                    if info:
                        break
                    factors.append((*f, p_k))
                else:
                    return kind, factors
            bands = dt * sub[..., 1:], 1.0 + dt * diag, dt * sup[..., :-1]
    except FloatingPointError:
        raise NonFiniteIntegral(f"the step matrix I + dt A overflows at dt = {dt:.3e}") from None
    lu = []
    for k, level in enumerate(levels(*bands)):
        *f, info = dgttrf(*level, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise SolverBreakdown(f"singular step matrix at time index {step + k}")
        lu.append(f)
    return "lu", lu


def _step_solve(kind: str, factors, row: np.ndarray) -> None:
    """One forward step M^-1 row on ``row``, which holds its right-hand side,
    in place: S^-1 (P row) for LDL^T factors, an LU solve otherwise."""
    if kind == "lu":
        dgttrs(*factors, row, "N", 1)
    else:
        d, e, p = factors
        row *= p
        dpttrs(d, e, row, 1)


def _frozen_levels(p: LinearProblem):
    """The bands of the M step levels of a time-dependent problem, as
    ``mesh._assembler`` gives them: ``(k, (sub, diag, sup, w_symmetric))``
    for each block of levels k, k+1, ..., which read the drift's time
    levels k+1, k+2, ... from its ``step_blocks``. A block holds
    ``LEVEL_BLOCK`` = 32 levels (the last one the rest), about 100 KiB per
    band at n = 382, so that a block's bands and the temporaries formed from
    them stay in cache and below the allocator's mmap threshold. Each block
    is frozen, then assembled, before the next is read, so the first fault
    in time raises."""
    act = p.active()
    assemble = _assembler(p.grid, p.a, p.drift.beta)
    for k, b, c in p.drift.step_blocks(p.M, LEVEL_BLOCK):
        yield k, assemble(b[:, act], c[:, act])


def _frozen_factors(p: LinearProblem, w: np.ndarray) -> tuple[str, list]:
    """``_factor_steps``' ``(kind, factors)`` of the M levels of a
    time-dependent problem, factored one ``_frozen_levels`` block at a time.
    The kind is one decision for all levels, as if they were factored at
    once: ``ldl-w`` only where no level is upwinded, and LU on every level
    where some level has no symmetriser or a nonpositive pivot. A block that
    rules out the kind so far restarts the levels with the next kind, at
    most twice; the restart freezes the drift's blocks again, to the same
    bits."""
    w_symmetric, ldl = True, True
    while True:
        factors = []
        for k, (sub, diag, sup, level_w_symmetric) in _frozen_levels(p):
            if w_symmetric and not level_w_symmetric:
                w_symmetric = False
                if factors:     # levels factored as ldl-w before this block
                    break
            kind, block = _factor_steps(sub, diag, sup, w_symmetric, p.dt, w, k + 1, ldl)
            if ldl and kind == "lu":
                ldl = False
                if factors:     # levels factored LDL^T before this block
                    break
            factors += block
        else:
            return kind, factors


def _step_factors(p: LinearProblem) -> tuple[str, list]:
    """``_factor_steps``' ``(kind, factors)`` for each of the M steps, for
    both directions. The first call factors each distinct level once: the
    one level of a time-independent drift, from one ``assemble_operator``,
    or every level of a time-dependent drift, a block at a time
    (``_frozen_factors``)."""
    if not p._cache:
        w = p.grid.weights[p.active()]
        if p.drift.time_dependent:
            p._cache["steps"] = _frozen_factors(p, w)
        else:
            kind, factors = _factor_steps(*assemble_operator(p.grid, p.a, p.drift), p.dt, w)
            p._cache["steps"] = kind, factors * p.M
    return p._cache["steps"]


def _adjoint_step_matrix(p: LinearProblem) -> np.ndarray:
    """The one-step adjoint matrix G = W^{-1} M^{-T} W of a problem with one
    step matrix M, from one multi-column solve on diag(w): W^{-1} P S^{-1} W
    for LDL^T factors of S = P M (S^{-1} W = M^{-1} itself where P is W,
    since p / w is then exactly 1), and transposed for LU factors."""
    w = p.grid.weights[p.active()]
    kind, (f, *_) = _step_factors(p)
    if kind == "lu":
        return dgttrs(*f, np.diag(w), "T")[0] / w[:, None]
    d, e, pk = f
    return dpttrs(d, e, np.diag(w))[0] * (pk / w)[:, None]


def march(p: LinearProblem, u: np.ndarray, src: np.ndarray | None = None,
          adjoint: bool = False) -> np.ndarray:
    """One implicit-Euler sweep; returns the (M+1, N) nodal states at
    ``p.times``, zero outside the active slice.

    With M_k = I + dt A_k, forward: ``u`` is y^0 and y^{k+1} = M_{k+1}^{-1}
    (y^k + dt src[k]); adjoint: ``u`` is v^M and v^k = W^{-1} M_{k+1}^{-T} W
    (v^{k+1} + dt src[k]). ``u`` is an (N,) nodal vector and ``src``, if
    given, an (M, N) array; both are read on the active nodes only.

    The sweep works on the active columns of the result, a view, split into
    a list of rows once. Each step forms its right-hand side in the row it
    fills (dt src[k] is written into the rows once, up front) and solves
    there in place with one single-column solve, so the sweep makes exactly
    M solves and leaves ``u`` and ``src`` untouched. The steps run as
    (prev, row, factors) triples, forward or reversed, through the one loop
    of their kind, with the same arithmetic in the same order as a step
    taken alone. On LDL^T factors of S_k = P_k M_k the forward step is
    row <- S_k^{-1} (p_k row), the multiply fused with forming the row, and
    so is the adjoint step where P_k is W. Every other adjoint runs in
    u = W v: it multiplies the rows that hold data by w before its loop and
    divides by w after, and each step is u <- p_k S_k^{-1} u on LDL^T
    factors, on a copy of prev where no source is added (a copy costs half
    an add), and a transposed solve on LU factors. LU, the fallback, takes
    one loop that adds prev to the row, so a -0.0 of prev comes out +0.0.
    """
    kind, factors = _step_factors(p)
    act = p.active()
    states = np.zeros((p.M + 1, p.grid.N))
    y = states[:, act]
    y[p.M if adjoint else 0] = u[act]
    if src is not None:
        np.multiply(p.dt, src[:, act], out=y[:-1] if adjoint else y[1:])
    w = p.grid.weights[act]
    rows = list(y)      # one view per time level, made once
    # (prev, row, factors of the step into row), in sweep order
    if adjoint:
        steps = zip(rows[:0:-1], rows[-2::-1], reversed(factors))
    else:
        steps = zip(rows[:-1], rows[1:], factors)
    # overwrite_b = 1: each solve works in place on its row
    if kind == "ldl-w" or (kind == "ldl-rho" and not adjoint):
        # with P = W, G = W^-1 M^-T W = S^-1 W = M^-1: the adjoint step is the forward one
        if src is None:     # p times prev forms the row in one pass; hum's CG runs here
            for prev, row, (d, e, pk) in steps:
                np.multiply(prev, pk, out=row)
                dpttrs(d, e, row, 1)
        else:
            for prev, row, (d, e, pk) in steps:
                row += prev
                row *= pk
                dpttrs(d, e, row, 1)
        return states
    if adjoint:
        y[p.M if src is None else slice(None)] *= w
    if kind == "ldl-rho":
        # M^-T = (P^-1 S)^-T = P S^-1; a copy costs half an add, and the copy twin
        # carries each CG adjoint step of a frozen Picard problem with c != 0
        if src is None:
            for prev, row, (d, e, pk) in steps:
                row[...] = prev
                dpttrs(d, e, row, 1)
                row *= pk
        else:
            for prev, row, (d, e, pk) in steps:
                row += prev
                dpttrs(d, e, row, 1)
                row *= pk
    else:   # the fallback: a row without a source is 0, and 0 + prev is prev but for -0.0
        trans = "T" if adjoint else "N"
        for prev, row, f in steps:
            row += prev
            dgttrs(*f, row, trans, 1)
    if adjoint:
        y /= w
    return states


def control_cost(p: LinearProblem, h: np.ndarray) -> float:
    """||h||^2 over the control region and horizon (piecewise constant in t);
    raises ``NonFiniteIntegral`` where it overflows, or underflows to 0 on an
    h that is nonzero in the control region. An h that is exactly 0 there
    costs 0. The weighted squares take one (M, n) temporary: h^2, multiplied
    in place by w 1_omega."""
    act = p.active()
    mask = p.omega_mask()[act]
    h = h[:p.M, act]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(h)
        sq *= p.grid.weights[act] * mask
        cost = p.dt * float(np.sum(sq))
    if not np.isfinite(cost):
        raise NonFiniteIntegral(f"control cost overflows: max |h| = {np.max(np.abs(h)):.3e}")
    if cost == 0.0 and np.any(h[:, mask]):
        raise NonFiniteIntegral(f"control cost underflows to 0: max |h| = "
                                f"{np.max(np.abs(h[:, mask])):.3e} on the control region")
    return cost


def _finite(states: np.ndarray, adjoint: bool) -> np.ndarray:
    """The states of a sweep as they are; ``NonFiniteIntegral`` names the
    first level swept that is not finite."""
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        n = bad[-1] if adjoint else bad[0]
        raise NonFiniteIntegral(f"state at time level {n} of {len(states) - 1} is not finite")
    return states


def solve_forward(p: LinearProblem, h: np.ndarray | None = None) -> np.ndarray:
    """Implicit-Euler solution of y_t = -A(t) y + h 1_omega, y(0) = y0: the
    (M+1, N) states at ``p.times``.

    ``h`` has shape (M, N); slice n acts on (t_n, t_{n+1}] and is masked to
    the control region.
    """
    return _finite(march(p, p.y0, None if h is None else h * p.omega_mask()), False)


def solve_adjoint(p: LinearProblem, vT: np.ndarray) -> np.ndarray:
    """Backward solution of the weighted transpose of the forward step map
    from v(T) = vT: the (M+1, N) states at ``p.times``."""
    return _finite(march(p, vT, adjoint=True), True)
