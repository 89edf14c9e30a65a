"""Implicit-Euler time integration of the linear equation and its adjoint.

The forward step solves (I + dt A(t_{n+1})) y^{n+1} = y^n + dt h^n with the
control slice h^n acting on the interval (t_n, t_{n+1}] and masked to the
control region. The adjoint is *defined* as the algebraic transpose of the
forward one-step map in the trapezoid-weighted inner product, stepping
backward from terminal data. Consequently the discrete duality identity

    <y(T), vT> - <y0, v(0)> = sum_n dt <h^n, v^n>_omega

holds to solver round-off for every (y0, h, vT), which is what the control
and observability machinery is built on (discretize-then-optimize).

Time-dependent coefficients are frozen per step at the backward node t_{n+1}.

Every sweep goes through ``march``. One batched assembly per problem gives
the step matrices I + dt A(t_{n+1}) of all M levels as stacked bands (a
single level for time-independent coefficients). Each level is LU-factored
(LAPACK ``dgttrf``) for both directions and cached on the problem, so with
time-independent coefficients one factorisation per direction serves all M
steps. The adjoint factors the weighted transpose I + dt W^{-1} A^T W as a
tridiagonal matrix of its own. Solving with the forward LU in transposed
mode is equal in exact arithmetic, but rounds differently enough to move
small entries of the semilinear golden control field past the corpus's 1e-6
relative tolerance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .coefficients import DegeneracyCoefficient, DriftEnvelope
from .errors import SolverBreakdown
from .mesh import (GridSpec, active_indices, assemble_operator,
                   dirichlet_energy, l2_norm)


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
        if not self.T > 0.0:
            raise ValueError("horizon T must be positive")
        if self.M < 8:
            raise ValueError("need at least 8 time steps")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.grid.N,):
            raise ValueError("initial datum must be a nodal vector on the grid")

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    @property
    def case(self):
        return self.a.case

    def with_y0(self, y0: np.ndarray) -> "LinearProblem":
        return dataclasses.replace(self, y0=np.asarray(y0, dtype=float))

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

    At the first call one assembly gives the stacked bands of every time
    level (of one level when the drift is time independent), and each level
    is factored for both directions, so a problem that marches both ways
    (HUM, Picard) assembles once.
    """
    if not p._cache:
        w = p.grid.weights[p.active()]
        steps = np.arange(1, (p.M if p.drift.time_dependent else 1) + 1)
        op = assemble_operator(p.grid, p.a, p.drift, steps * p.dt)
        levels = list(zip(steps, op.sub, op.diag, op.sup))
        fwd = [_factor_step(*bands, p.dt, k) for k, *bands in levels]
        adj = [_factor_step(*bands, p.dt, k, w) for k, *bands in levels]
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
    """
    factors = _step_factors(p, adjoint)
    states = np.empty((p.M + 1, np.size(u)))
    states[p.M if adjoint else 0] = u
    for k in (range(p.M - 1, -1, -1) if adjoint else range(p.M)):
        prev, new = (k + 1, k) if adjoint else (k, k + 1)
        rhs = states[prev] if src is None else states[prev] + p.dt * src[k]
        states[new] = _step_solve(factors[k], rhs)
    return states


@dataclass
class Trajectory:
    """Nodal states at times t_n = n T/M (boundary nodes zero-filled)."""

    grid: GridSpec
    times: np.ndarray
    states: np.ndarray           # (M+1, N)
    case: object
    stability_ratio: float | None = None

    def final(self) -> np.ndarray:
        return self.states[-1]

    def _sq_l2(self) -> np.ndarray:
        return np.sum(self.grid.weights * self.states * self.states, axis=1)

    def sup_l2(self) -> float:
        return float(np.sqrt(np.max(self._sq_l2())))

    def _time_weights(self) -> np.ndarray:
        dt = self.times[1] - self.times[0]
        tw = np.full(self.times.size, dt)
        tw[0] = tw[-1] = 0.5 * dt
        return tw

    def l2_Q(self) -> float:
        return float(np.sqrt(np.sum(self._time_weights() * self._sq_l2())))

    def z_norm(self, a: DegeneracyCoefficient) -> float:
        """L^2(0,T; H^1_a) norm."""
        energy = dirichlet_energy(self.grid, a, self.states)
        return float(np.sqrt(np.sum(self._time_weights() * (self._sq_l2() + energy))))


def control_cost(p: LinearProblem, h: np.ndarray) -> float:
    """||h||^2 over the control region and horizon (piecewise constant in t)."""
    act = p.active()
    wm = p.grid.weights[act] * p.omega_mask()[act]
    return p.dt * float(np.sum(wm * h[:p.M, act] ** 2))


def solve_forward(p: LinearProblem, h: np.ndarray | None = None) -> Trajectory:
    """Implicit-Euler trajectory of y_t = -A(t) y + h 1_omega, y(0) = y0.

    ``h`` has shape (M, N); slice n acts on (t_n, t_{n+1}] and is masked to
    the control region. The measured stability ratio
    sup_n ||y^n|| / (||y0|| + ||h||) is attached to the trajectory.
    """
    act = p.active()
    src = None if h is None else h[:, act] * p.omega_mask()[act]
    states = np.zeros((p.M + 1, p.grid.N))
    states[:, act] = march(p, p.y0[act], src)
    traj = Trajectory(grid=p.grid, times=p.times, states=states, case=p.case)
    denom = l2_norm(p.grid, states[0])
    if h is not None:
        denom += float(np.sqrt(control_cost(p, h)))
    traj.stability_ratio = traj.sup_l2() / denom if denom > 0.0 else 0.0
    return traj


def solve_adjoint(p: LinearProblem, vT: np.ndarray) -> Trajectory:
    """Backward trajectory of the weighted transpose of the forward step map."""
    act = p.active()
    states = np.zeros((p.M + 1, p.grid.N))
    states[:, act] = march(p, np.asarray(vT, dtype=float)[act], adjoint=True)
    return Trajectory(grid=p.grid, times=p.times, states=states, case=p.case)


def control_pairing(p: LinearProblem, h: np.ndarray, v: Trajectory) -> float:
    """sum_n dt <h^n, v^n> over the control region."""
    act = p.active()
    wm = p.grid.weights[act] * p.omega_mask()[act]
    return p.dt * float(np.sum(wm * h[:p.M, act] * v.states[:p.M, act]))


def duality_residual(p: LinearProblem, y0: np.ndarray, h: np.ndarray,
                     vT: np.ndarray) -> float:
    """|<y(T), vT> - <y0, v(0)> - sum_n dt <h^n, v^n>_omega|.

    Zero up to round-off because the adjoint is the exact transpose of the
    forward map.
    """
    act = p.active()
    w = p.grid.weights[act]
    y = solve_forward(p.with_y0(y0), h)
    v = solve_adjoint(p, vT)
    t_final = float(np.sum(w * y.final()[act] * np.asarray(vT, dtype=float)[act]))
    t_init = float(np.sum(w * np.asarray(y0, dtype=float)[act] * v.states[0][act]))
    t_ctrl = control_pairing(p, h, v)
    return abs(t_final - t_init - t_ctrl)
