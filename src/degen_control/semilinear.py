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
the (M+1, N) trajectory, whose tables become the drift's b and c, and each
frozen linear problem, the residual's included, is assembled once.

For rough initial data ``picard_null_control`` with t0 > 0 first runs the
uncontrolled semilinear equation on (0, t0), then controls on (t0, T) from
the smoothed state. The coast iterates each step on its own: every inner
iterate is frozen through ``freeze_coefficients`` as a one-level trajectory,
so its values are checked against the caps too, and its one frozen row is
assembled as (N,) vectors, to ``COAST_TOL`` in ``COAST_MAX_INNER`` steps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoFixedPoint, UnboundedFrozenCoefficient
from .mesh import assemble_operator, l2_norm
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

def freeze_coefficients(z: Trajectory, nl: Nonlinearity):
    """Call each factor once along the trajectory, with the nodal slopes of
    each level (centered, one-sided at the ends): (b_z, c_z), read-only
    arrays of z.states' shape (L, N); a factor's (N,) result is broadcast."""
    args = (z.grid.nodes, z.times[:, None], z.states,
            np.gradient(z.states, z.grid.nodes, axis=-1))
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


def frozen_problem(p: LinearProblem, z: Trajectory, nl: Nonlinearity) -> LinearProblem:
    """p with its drift's b and c frozen along z, as (M+1, N) tables."""
    b_field, c_field = freeze_coefficients(z, nl)
    return p.with_drift(dataclasses.replace(p.drift, b=b_field, c=c_field))


# -- fixed-point loop ------------------------------------------------------------

@dataclass
class FixedPointReport:
    increments: list
    control_costs: list
    yT_norms: list
    converged: bool
    residual: float            # discrete semilinear residual, relative to ||y0||
    cost_constant: float | None
    hum: HUMResult             # the last linear control: its h, trajectory and norm_yT
    t0: float = 0.0
    phase1_final: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.increments)


def semilinear_residual(p: LinearProblem, nl: Nonlinearity, traj: Trajectory,
                        h: np.ndarray) -> float:
    """L^2(Q) residual of the discrete semilinear equation, relative to ||y0||.

    Uses the same stencils as the solver (coefficients frozen along the
    trajectory itself), so a true discrete solution gives round-off.
    """
    op = assemble_operator(p.grid, p.a, frozen_problem(p, traj, nl).drift)
    act = p.active()
    y = traj.states[:, act]
    r = (y[1:] - y[:-1]) / p.dt + op.apply(y[1:]) - h[:p.M, act] * p.omega_mask()[act]
    acc = p.dt * float(np.sum(p.grid.weights[act] * r * r))
    return float(np.sqrt(acc)) / max(l2_norm(p.grid, p.y0), 1e-300)


def picard_null_control(p: LinearProblem, nl: Nonlinearity, epsilon: float,
                        t0: float = 0.0, fp_tol: float = 1e-6, max_fp_iters: int = 50,
                        cg_tol: float = 1e-10, cg_max_iters: int = 500) -> FixedPointReport:
    """Iterate freeze -> penalized linear control -> refreeze to a fixed point.

    With t0 > 0 the uncontrolled semilinear equation first coasts on (0, t0)
    and the loop controls on (t0, T) from y(t0). t0 snaps to the step grid;
    both phases keep the original step size and need at least 8 steps.
    Catalog nonlinearities are autonomous, so restarting the clock at t0 is
    immaterial.

    The stopping increment is ||z_{k+1} - z_k|| in L^2(0,T; H^1_a), relative
    to ||y0||. On convergence the pair (y, h) is substituted into the discrete
    semilinear equation; the report's ``converged`` flag requires that
    residual to stay below 10 * fp_tol. Raises ``NoFixedPoint`` when the
    budget runs out on a growing increment sequence, and ValueError unless
    fp_tol is finite and positive and max_fp_iters >= 1.
    """
    if not (np.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fixed-point tolerance must be finite and positive, got {fp_tol}")
    if max_fp_iters < 1:
        raise ValueError(f"fixed-point budget must be at least 1 iteration, got {max_fp_iters}")
    phase1_final = None
    if t0 != 0.0:
        if not (0.0 < t0 < p.T):
            raise ValueError("t0 must lie strictly inside (0, T)")
        M1 = int(round(p.M * t0 / p.T))
        if M1 < 8 or p.M - M1 < 8:
            raise ValueError("both phases need at least 8 time steps; "
                             f"split gave {M1} + {p.M - M1}")
        t0 = M1 * p.dt
        phase1_final = semilinear_forward(dataclasses.replace(p, T=t0, M=M1), nl).final()
        p = dataclasses.replace(p, T=p.T - t0, M=p.M - M1, y0=phase1_final)
    else:
        t0 = 0.0  # a t0 of -0.0 reports as 0

    y0n = l2_norm(p.grid, p.y0)
    tol_abs = fp_tol * max(y0n, 1e-300)

    zero_traj = Trajectory(grid=p.grid, times=p.times,
                           states=np.zeros((p.M + 1, p.grid.N)))
    z = solve_forward(frozen_problem(p, zero_traj, nl))

    increments, costs, yT_norms = [], [], []
    converged = False
    for _k in range(max_fp_iters):
        hum = hum_solve(frozen_problem(p, z, nl), epsilon, cg_tol=cg_tol,
                        max_iters=cg_max_iters)
        z_new = hum.trajectory
        inc = dataclasses.replace(z_new, states=z_new.states - z.states).z_norm(p.a)
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

    residual = semilinear_residual(p, nl, z, hum.h)
    return FixedPointReport(increments=increments, control_costs=costs,
                            yT_norms=yT_norms,
                            converged=converged and residual <= 10.0 * fp_tol,
                            residual=residual,
                            cost_constant=max(costs) / y0n ** 2 if y0n > 0 else None,
                            hum=hum, t0=t0, phase1_final=phase1_final)


def semilinear_forward(p: LinearProblem, nl: Nonlinearity) -> Trajectory:
    """Uncontrolled semilinear forward solve with per-step frozen-coefficient
    inner iteration. A step's iterate is accepted once its increment is at
    most ``COAST_TOL`` times ||y0||; ``NoFixedPoint`` is raised when a step
    spends ``COAST_MAX_INNER`` iterations without that."""
    act = p.active()
    dt = p.dt
    states = np.zeros((p.M + 1, p.grid.N))
    states[0, act] = p.y0[act]
    scale = max(l2_norm(p.grid, states[0]), 1e-300)
    for n in range(p.M):
        t1 = (n + 1) * dt
        w = states[n].copy()
        for _j in range(COAST_MAX_INNER):
            level = Trajectory(grid=p.grid, times=np.array([t1]), states=w[None, :])
            b_row, c_row = freeze_coefficients(level, nl)
            op = assemble_operator(p.grid, p.a,
                                   dataclasses.replace(p.drift, b=b_row[0], c=c_row[0]))
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
