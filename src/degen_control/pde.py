"""Implicit-Euler time integration of the linear equation and its adjoint.

The forward step solves (I + dt A(t_{n+1})) y^{n+1} = y^n + dt h^n with the
control slice h^n acting on the interval (t_n, t_{n+1}] and masked to the
control region. The adjoint is *defined* as the algebraic transpose of the
forward one-step map in the trapezoid-weighted inner product, stepping
backward from terminal data. Consequently the discrete duality identity

    <y(T), vT> - <y0, v(0)> = sum_n dt <h^n, v^n>_omega

holds to solver round-off for every (y0, h, vT), which is what the control
and observability machinery is built on (discretize-then-optimize).

A drift table (``DriftEnvelope``) is read at the backward node: the step to
t_{n+1} takes its row n+1, so ``LinearProblem`` requires M+1 rows.

Every sweep goes through ``march``. One assembly per problem gives the step
matrices I + dt A(t_{n+1}) of all M levels as stacked bands (a single level
when the drift holds no table). Each level is LU-factored (LAPACK
``dgttrf``) for both directions and cached on the problem, so with
time-independent coefficients one factorisation per direction serves all M
steps. Each step is one single-column ``dgttrs`` call that solves in place
in the row of the output it fills, so a sweep makes exactly M solves and no
temporaries. The adjoint factors the weighted transpose I + dt W^{-1} A^T W
as a tridiagonal matrix of its own. Solving with the forward LU in
transposed mode is equal in exact arithmetic, but rounds differently enough
to move small entries of the semilinear golden control field past the
corpus's 1e-6 relative tolerance. It also changes the CG path of
``hum_solve``: the README ``control`` config then takes 109 iterations and
56,576 single-column solves instead of 108 and 56,064, and the benchmark
pins the latter count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .coefficients import DegeneracyCoefficient, DriftEnvelope
from .errors import SolverBreakdown
from .mesh import GridSpec, active_indices, assemble_operator, dirichlet_energy


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
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.grid.N,):
            raise ValueError("initial datum must be a nodal vector on the grid")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("initial datum must be finite")
        if not np.any(self.omega_mask()):
            raise ValueError(f"control region omega = {self.omega} holds no grid node")
        for name, shape in (("b", np.shape(self.drift.b)), ("c", np.shape(self.drift.c))):
            if shape not in ((), (self.grid.N,), (self.M + 1, self.grid.N)):
                raise ValueError(f"drift {name} must be a number, an (N,) vector or an "
                                 f"(M+1, N) = ({self.M + 1}, {self.grid.N}) table, got {shape}")

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    @property
    def case(self):
        return self.a.case

    def with_drift(self, drift: DriftEnvelope) -> "LinearProblem":
        return dataclasses.replace(self, drift=drift)

    def active(self) -> np.ndarray:
        return active_indices(self.grid, self.case)

    def omega_mask(self) -> np.ndarray:
        x = self.grid.nodes
        return (x >= self.omega[0]) & (x <= self.omega[1])


def _factor_step(sub, diag, sup, dt: float, step: int, w: np.ndarray | None = None):
    """LU factors of I + dt A from A's bands at one level, or of
    I + dt W^{-1} A^T W given the weights w."""
    sub, sup = sub[1:], sup[:-1]
    if w is not None:
        # the weighted transpose of a tridiagonal matrix is tridiagonal too
        sub, sup = sup * w[:-1] / w[1:], sub * w[1:] / w[:-1]
    *lu, info = dgttrf(dt * sub, 1.0 + dt * diag, dt * sup)
    if info > 0:
        raise SolverBreakdown(f"singular step matrix at time index {step}")
    return lu


def _step_solve(lu, rhs: np.ndarray) -> np.ndarray:
    return dgttrs(*lu, rhs)[0]


def _step_factors(p: LinearProblem, adjoint: bool) -> list:
    """Per-step LU factors of one direction.

    At the first call one assembly gives the bands of every time level (of
    one level when the drift holds no table), and each level is factored for
    both directions, so a problem that marches both ways (HUM, Picard)
    assembles once.
    """
    if not p._cache:
        w = p.grid.weights[p.active()]
        op = assemble_operator(p.grid, p.a, p.drift)
        levels = list(zip(*(np.atleast_2d(band) for band in (op.sub, op.diag, op.sup))))
        fwd = [_factor_step(*bands, p.dt, k + 1) for k, bands in enumerate(levels)]
        adj = [_factor_step(*bands, p.dt, k + 1, w) for k, bands in enumerate(levels)]
        reps = p.M // len(levels)
        p._cache.update(fwd=fwd * reps, adj=adj * reps)
    return p._cache["adj" if adjoint else "fwd"]


def march(p: LinearProblem, u: np.ndarray, src: np.ndarray | None = None,
          adjoint: bool = False) -> np.ndarray:
    """One implicit-Euler sweep over the active nodes; returns (M+1, n) states.

    Forward: ``u`` is y^0 and y^{k+1} = (I + dt A_{k+1})^{-1} (y^k + dt src[k]).
    Adjoint: ``u`` is v^M and v^k = (I + dt W^{-1} A_{k+1}^T W)^{-1}
    (v^{k+1} + dt src[k]), the weighted transpose of the forward step.
    ``src``, if given, has shape (M, n).

    Each step forms its right-hand side in the row it fills (dt src[k] is
    written into the rows once, up front) and solves there in place with one
    single-column ``dgttrs`` call, so the sweep makes exactly M solves and
    leaves ``u`` and ``src`` untouched.
    """
    factors = _step_factors(p, adjoint)
    states = np.empty((p.M + 1, np.size(u)))
    states[p.M if adjoint else 0] = u
    if src is not None:
        np.multiply(p.dt, src, out=states[:-1] if adjoint else states[1:])
    for k in (range(p.M - 1, -1, -1) if adjoint else range(p.M)):
        prev, new = (k + 1, k) if adjoint else (k, k + 1)
        row = states[new]
        if src is None:
            row[...] = states[prev]     # a copy keeps -0.0, adding to 0 would not
        else:
            row += states[prev]
        dgttrs(*factors[k], row, "N", 1)    # overwrite_b: solves in place
    return states


@dataclass
class Trajectory:
    """Nodal states at times t_n = n T/M (boundary nodes zero-filled)."""

    grid: GridSpec
    times: np.ndarray
    states: np.ndarray           # (M+1, N)

    def final(self) -> np.ndarray:
        return self.states[-1]

    def _sq_l2(self) -> np.ndarray:
        return np.sum(self.grid.weights * self.states * self.states, axis=1)

    def sup_l2(self) -> float:
        return float(np.sqrt(np.max(self._sq_l2())))

    def z_norm(self, a: DegeneracyCoefficient) -> float:
        """L^2(0,T; H^1_a) norm, by the trapezoid rule in time."""
        energy = dirichlet_energy(self.grid, a, self.states)
        dt = self.times[1] - self.times[0]
        tw = np.full(self.times.size, dt)
        tw[0] = tw[-1] = 0.5 * dt
        return float(np.sqrt(np.sum(tw * (self._sq_l2() + energy))))


def control_cost(p: LinearProblem, h: np.ndarray) -> float:
    """||h||^2 over the control region and horizon (piecewise constant in t)."""
    act = p.active()
    wm = p.grid.weights[act] * p.omega_mask()[act]
    return p.dt * float(np.sum(wm * h[:p.M, act] ** 2))


def _trajectory(p: LinearProblem, u: np.ndarray, src: np.ndarray | None = None,
                adjoint: bool = False) -> Trajectory:
    """``march`` from the nodal vector ``u``, with the full-grid source ``src``
    of shape (M, N) if given, and zero-fill the boundary nodes."""
    act = p.active()
    states = np.zeros((p.M + 1, p.grid.N))
    states[:, act] = march(p, np.asarray(u, dtype=float)[act],
                           None if src is None else src[:, act], adjoint)
    return Trajectory(grid=p.grid, times=p.times, states=states)


def solve_forward(p: LinearProblem, h: np.ndarray | None = None) -> Trajectory:
    """Implicit-Euler trajectory of y_t = -A(t) y + h 1_omega, y(0) = y0.

    ``h`` has shape (M, N); slice n acts on (t_n, t_{n+1}] and is masked to
    the control region.
    """
    return _trajectory(p, p.y0, None if h is None else h * p.omega_mask())


def solve_adjoint(p: LinearProblem, vT: np.ndarray) -> Trajectory:
    """Backward trajectory of the weighted transpose of the forward step map."""
    return _trajectory(p, vT, adjoint=True)
