"""Semilinear null control by frozen-coefficient fixed-point iteration.

Nonlinearities enter in factored form f(x,t,s,p) = b~(x,t,s,p) s +
c~(x,t,s,p) beta(x) p with bounded factors, so freezing them along a
trajectory z produces coefficients (b_z, c_z) that keep the linearized
problem inside the bounded-coefficient theory. The factors and their caps
are all the program reads of a nonlinearity: ``freeze_coefficients`` checks
every frozen value against the caps. The outer loop alternates
freezing with the penalized linear control solve and stops when consecutive
trajectories agree in the L^2(0,T; H^1_a) norm; the converged pair (y, h) is
checked against the discrete semilinear equation itself.

Freezing works on whole space-time arrays: each factor is called once on
the (M+1, N) trajectory, and each frozen linear problem, the residual's
included, is assembled once as stacked bands read from those tables.

For rough initial data the two-phase driver first runs the uncontrolled
semilinear equation on (0, t0) (per-step inner iteration on the frozen
coefficients, one row assembly per inner step, to ``COAST_TOL`` within
``COAST_MAX_INNER`` iterations), then controls on (t0, T) from the smoothed
state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import DriftEnvelope
from .errors import NoFixedPoint, UnboundedFrozenCoefficient
from .mesh import GridSpec, assemble_operator, l2_norm
from .pde import (LinearProblem, Trajectory, _factor_step, _step_solve,
                  solve_forward)
from .control import HUMResult, hum_solve

# the coast phase's per-step inner iteration: relative increment target and budget
COAST_TOL = 1e-12
COAST_MAX_INNER = 50


def _zero(x, t, s, p):
    return np.zeros_like(np.asarray(x, dtype=float))


def _tanh_grad(x, t, s, p):
    """tanh(p)/p with the limit value 1 at p = 0."""
    p = np.asarray(p, dtype=float)
    out = np.ones_like(p)
    big = np.abs(p) > 1e-8
    out[big] = np.tanh(p[big]) / p[big]
    return out


def _sine(m: float):
    """The factor m sin(s)/s, with the limit value m at s = 0; m must be finite."""
    m = float(m)
    if not np.isfinite(m):
        raise ValueError(f"nonlinearity constant m must be finite, got {m}")
    return lambda x, t, s, p: m * np.sinc(np.asarray(s, dtype=float) / np.pi)


@dataclass(frozen=True)
class Nonlinearity:
    """Factored nonlinearity f = b~ s + c~ beta p with factors bounded by
    ``b_cap`` and ``c_cap``, which is all the fixed point needs of f.

    Freezing calls a factor with x (N,), t (M+1, 1) and s, p (M+1, N); its
    result must broadcast to (M+1, N)."""

    b_factor: Callable  # (x, t, s, p) -> array
    c_factor: Callable  # (x, t, s, p) -> array
    b_cap: float
    c_cap: float


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(_zero, _zero, b_cap=0.0, c_cap=0.0)


def sine_nonlinearity(m: float) -> Nonlinearity:
    return Nonlinearity(_sine(m), _zero, b_cap=abs(float(m)), c_cap=0.0)


def tanh_grad_nonlinearity() -> Nonlinearity:
    return Nonlinearity(_zero, _tanh_grad, b_cap=0.0, c_cap=1.0)


def mixed_nonlinearity(m: float) -> Nonlinearity:
    return Nonlinearity(_sine(m), _tanh_grad, b_cap=abs(float(m)), c_cap=1.0)


# -- freezing ------------------------------------------------------------------

def gradient_field(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    """Nodal slopes of each time slice (centered, one-sided at the ends)."""
    return np.gradient(states, grid.nodes, axis=-1)


def freeze_coefficients(z: Trajectory, nl: Nonlinearity):
    """Call each factor once along the trajectory: (b_z, c_z), read-only
    arrays of shape (M+1, N); a factor's (N,) result is broadcast."""
    args = (z.grid.nodes, z.times[:, None], z.states, gradient_field(z.grid, z.states))
    b_field = np.broadcast_to(np.asarray(nl.b_factor(*args), dtype=float), z.states.shape)
    c_field = np.broadcast_to(np.asarray(nl.c_factor(*args), dtype=float), z.states.shape)
    tol = 1e-9
    if np.max(np.abs(b_field)) > nl.b_cap * (1.0 + tol) + 1e-300:
        raise UnboundedFrozenCoefficient(
            f"frozen zero-order coefficient reaches {np.max(np.abs(b_field)):.6g} "
            f"> cap {nl.b_cap:.6g}")
    if np.max(np.abs(c_field)) > nl.c_cap * (1.0 + tol) + 1e-300:
        raise UnboundedFrozenCoefficient(
            f"frozen first-order coefficient reaches {np.max(np.abs(c_field)):.6g} "
            f"> cap {nl.c_cap:.6g}")
    return b_field, c_field


def frozen_drift(p: LinearProblem, b_field: np.ndarray,
                 c_field: np.ndarray) -> DriftEnvelope:
    """p's drift with b and c read, in one indexing expression, from (L, N)
    tables on p's nodes: row k holds time k dt and the last row every later
    time, so (M+1, N) tables follow p's levels and one row is constant."""
    def table(field):
        return lambda x, t: field[np.minimum(np.rint(t / p.dt).astype(int), len(field) - 1),
                                  np.searchsorted(p.grid.nodes, x)]

    return dataclasses.replace(p.drift, b=table(b_field), c=table(c_field),
                               time_dependent=True)


# -- fixed-point loop ------------------------------------------------------------

@dataclass
class FixedPointReport:
    iterations: int
    increments: list
    control_costs: list
    yT_norms: list
    converged: bool
    residual: float            # discrete semilinear residual, relative to ||y0||
    final_norm_yT: float
    cost_constant: float | None
    h: np.ndarray | None
    trajectory: Trajectory | None
    hum: HUMResult | None
    t0: float = 0.0
    phase1_final: np.ndarray | None = None


def semilinear_residual(p: LinearProblem, nl: Nonlinearity, traj: Trajectory,
                        h: np.ndarray) -> float:
    """L^2(Q) residual of the discrete semilinear equation, relative to ||y0||.

    Uses the same stencils as the solver (coefficients frozen along the
    trajectory itself), so a true discrete solution gives round-off.
    """
    drift = frozen_drift(p, *freeze_coefficients(traj, nl))
    op = assemble_operator(p.grid, p.a, drift, p.dt * np.arange(1, p.M + 1))
    act = p.active()
    y = traj.states[:, act]
    r = (y[1:] - y[:-1]) / p.dt + op.apply(y[1:]) - h[:p.M, act] * p.omega_mask()[act]
    acc = p.dt * float(np.sum(p.grid.weights[act] * r * r))
    return float(np.sqrt(acc)) / max(l2_norm(p.grid, p.y0), 1e-300)


def _diff_z_norm(a, z_new: Trajectory, z_old: Trajectory) -> float:
    diff = Trajectory(grid=z_new.grid, times=z_new.times,
                      states=z_new.states - z_old.states)
    return diff.z_norm(a)


def picard_null_control(p: LinearProblem, nl: Nonlinearity, epsilon: float,
                        fp_tol: float = 1e-6, max_fp_iters: int = 50,
                        cg_tol: float = 1e-10, cg_max_iters: int = 500) -> FixedPointReport:
    """Iterate freeze -> penalized linear control -> refreeze to a fixed point.

    The stopping increment is ||z_{k+1} - z_k|| in L^2(0,T; H^1_a), relative
    to ||y0||. On convergence the pair (y, h) is substituted into the discrete
    semilinear equation; the report's ``converged`` flag requires that
    residual to stay below 10 * fp_tol. Raises ``NoFixedPoint`` when the
    budget runs out on a growing increment sequence, and ValueError unless
    fp_tol is finite and positive.
    """
    if not (np.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fixed-point tolerance must be finite and positive, got {fp_tol}")
    y0n = l2_norm(p.grid, p.y0)
    tol_abs = fp_tol * max(y0n, 1e-300)

    zero_traj = Trajectory(grid=p.grid, times=p.times,
                           states=np.zeros((p.M + 1, p.grid.N)))
    z = solve_forward(p.with_drift(frozen_drift(p, *freeze_coefficients(zero_traj, nl))))

    increments, costs, yT_norms = [], [], []
    hum = None
    converged = False
    for _k in range(1, max_fp_iters + 1):
        p_k = p.with_drift(frozen_drift(p, *freeze_coefficients(z, nl)))
        hum = hum_solve(p_k, epsilon, cg_tol=cg_tol, max_iters=cg_max_iters)
        z_new = hum.trajectory
        inc = _diff_z_norm(p.a, z_new, z)
        increments.append(inc)
        costs.append(hum.cost)
        yT_norms.append(hum.norm_yT)
        z = z_new
        if inc <= tol_abs:
            converged = True
            break

    if not converged and len(increments) >= 3 \
            and increments[-1] > increments[-2] > increments[-3]:
        raise NoFixedPoint(
            f"increments grew over the last iterations "
            f"({increments[-3]:.3e} -> {increments[-1]:.3e}) "
            f"after {len(increments)} outer steps")

    residual = semilinear_residual(p, nl, z, hum.h) if hum is not None else 0.0
    converged = converged and residual <= 10.0 * fp_tol
    cost_constant = (max(costs) / y0n ** 2) if (costs and y0n > 0) else None
    return FixedPointReport(iterations=len(increments), increments=increments,
                            control_costs=costs, yT_norms=yT_norms,
                            converged=converged, residual=residual,
                            final_norm_yT=yT_norms[-1] if yT_norms else 0.0,
                            cost_constant=cost_constant,
                            h=hum.h if hum is not None else None,
                            trajectory=z, hum=hum)


def semilinear_forward(p: LinearProblem, nl: Nonlinearity) -> Trajectory:
    """Uncontrolled semilinear forward solve with per-step frozen-coefficient
    inner iteration. A step's iterate is accepted once its increment is at
    most ``COAST_TOL`` times ||y0||; ``NoFixedPoint`` is raised when a step
    spends ``COAST_MAX_INNER`` iterations without that."""
    act = p.active()
    x = p.grid.nodes
    dt = p.dt
    states = np.zeros((p.M + 1, p.grid.N))
    states[0, act] = p.y0[act]
    scale = max(l2_norm(p.grid, states[0]), 1e-300)
    for n in range(p.M):
        t1 = (n + 1) * dt
        w = states[n].copy()
        for _j in range(COAST_MAX_INNER):
            zx = np.gradient(w, x)
            brow = np.asarray(nl.b_factor(x, t1, w, zx), dtype=float)
            crow = np.asarray(nl.c_factor(x, t1, w, zx), dtype=float)
            drift = frozen_drift(p, brow[None, :], crow[None, :])
            op = assemble_operator(p.grid, p.a, drift, t1)
            y_act = _step_solve(_factor_step(op.sub, op.diag, op.sup, dt, n + 1),
                                states[n][act])
            w_new = np.zeros(p.grid.N)
            w_new[act] = y_act
            delta = l2_norm(p.grid, w_new - w)
            w = w_new
            if delta <= COAST_TOL * scale:
                break
        else:
            raise NoFixedPoint(
                f"coast step {n + 1}: inner iteration spent {COAST_MAX_INNER} "
                f"iterations, last increment {delta:.3e} "
                f"(target {COAST_TOL * scale:.3e})")
        states[n + 1] = w
    return Trajectory(grid=p.grid, times=p.times, states=states)


def two_phase_control(p: LinearProblem, nl: Nonlinearity, t0: float,
                      epsilon: float, fp_tol: float = 1e-6,
                      max_fp_iters: int = 50, cg_tol: float = 1e-10,
                      cg_max_iters: int = 500) -> FixedPointReport:
    """Coast uncontrolled on (0, t0), then control on (t0, T) from y(t0).

    t0 snaps to the step grid; both phases keep the original step size. With
    t0 = 0 this is exactly the one-phase iteration. Catalog nonlinearities
    are autonomous, so restarting the clock at t0 is immaterial.
    """
    if t0 == 0.0:
        return picard_null_control(p, nl, epsilon, fp_tol=fp_tol,
                                   max_fp_iters=max_fp_iters, cg_tol=cg_tol,
                                   cg_max_iters=cg_max_iters)
    if not (0.0 < t0 < p.T):
        raise ValueError("t0 must lie strictly inside (0, T)")
    M1 = int(round(p.M * t0 / p.T))
    M1 = max(M1, 1)
    M2 = p.M - M1
    if M1 < 8 or M2 < 8:
        raise ValueError("both phases need at least 8 time steps; "
                         f"split gave {M1} + {M2}")
    t0_snap = M1 * p.dt

    p1 = dataclasses.replace(p, T=t0_snap, M=M1)
    coast = semilinear_forward(p1, nl)
    y_t0 = coast.final()

    p2 = dataclasses.replace(p, T=p.T - t0_snap, M=M2, y0=y_t0)
    report = picard_null_control(p2, nl, epsilon, fp_tol=fp_tol,
                                 max_fp_iters=max_fp_iters, cg_tol=cg_tol,
                                 cg_max_iters=cg_max_iters)
    report.t0 = t0_snap
    report.phase1_final = y_t0
    return report
