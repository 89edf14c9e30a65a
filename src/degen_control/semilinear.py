"""Semilinear null control by frozen-coefficient fixed-point iteration.

Nonlinearities enter in factored form f(x,t,s,p) = b~(x,t,s,p) s +
c~(x,t,s,p) beta(x) p with bounded factors, so freezing them along a
trajectory z produces coefficients (b_z, c_z) that keep the linearized
problem inside the bounded-coefficient theory. The outer loop alternates
freezing with the penalized linear control solve and stops when consecutive
trajectories agree in the L^2(0,T; H^1_a) norm; the converged pair (y, h) is
checked against the discrete semilinear equation itself.

Freezing works on whole space-time arrays: each factor is called once on
the (M+1, N) trajectory, and each frozen linear problem, the residual's
included, is assembled once as stacked bands read from those tables.

For rough initial data the two-phase driver first runs the uncontrolled
semilinear equation on (0, t0) (per-step inner iteration on the frozen
coefficients, one row assembly per inner step), then controls on (t0, T)
from the smoothed state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import DriftEnvelope, linear_beta
from .errors import NoFixedPoint, UnboundedFrozenCoefficient
from .mesh import GridSpec, assemble_operator, l2_norm
from .pde import (LinearProblem, Trajectory, _factor_step, _step_solve,
                  solve_forward)
from .control import HUMResult, hum_solve


def _sinc(s):
    """sin(s)/s with the limit value 1 at s = 0."""
    s = np.asarray(s, dtype=float)
    return np.sinc(s / np.pi)


def _tanhc(p):
    """tanh(p)/p with the limit value 1 at p = 0."""
    p = np.asarray(p, dtype=float)
    out = np.ones_like(p)
    big = np.abs(p) > 1e-8
    out[big] = np.tanh(p[big]) / p[big]
    return out


@dataclass(frozen=True)
class Nonlinearity:
    """Factored nonlinearity f = b~ s + c~ beta p with bounded factors.

    Freezing calls a factor with x (N,), t (M+1, 1) and s, p (M+1, N); its
    result must broadcast to (M+1, N)."""

    b_factor: Callable  # (x, t, s, p) -> array
    c_factor: Callable  # (x, t, s, p) -> array
    b_cap: float
    c_cap: float
    lipschitz_L: float
    name: str = ""

    def f(self, beta, x, t, s, p):
        x = np.asarray(x, dtype=float)
        return (np.asarray(self.b_factor(x, t, s, p), dtype=float) * s
                + np.asarray(self.c_factor(x, t, s, p), dtype=float)
                * np.asarray(beta(x), dtype=float) * p)


def zero_nonlinearity() -> Nonlinearity:
    z = lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float))
    return Nonlinearity(z, z, b_cap=0.0, c_cap=0.0, lipschitz_L=0.0, name="zero")


def sine_nonlinearity(m: float) -> Nonlinearity:
    m = float(m)
    if not np.isfinite(m):
        raise ValueError(f"nonlinearity constant m must be finite, got {m}")

    def b(x, t, s, p):
        return m * _sinc(s)

    z = lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float))
    return Nonlinearity(b, z, b_cap=abs(m), c_cap=0.0, lipschitz_L=abs(m),
                        name=f"sine({m:g})")


def tanh_grad_nonlinearity(beta_sup: float = 1.0) -> Nonlinearity:
    def c(x, t, s, p):
        return _tanhc(p)

    z = lambda x, t, s, p: np.zeros_like(np.asarray(x, dtype=float))
    return Nonlinearity(z, c, b_cap=0.0, c_cap=1.0, lipschitz_L=float(beta_sup),
                        name="tanh-grad")


def mixed_nonlinearity(m: float, beta_sup: float = 1.0) -> Nonlinearity:
    m = float(m)
    if not np.isfinite(m):
        raise ValueError(f"nonlinearity constant m must be finite, got {m}")

    def b(x, t, s, p):
        return m * _sinc(s)

    def c(x, t, s, p):
        return _tanhc(p)

    return Nonlinearity(b, c, b_cap=abs(m), c_cap=1.0,
                        lipschitz_L=abs(m) + float(beta_sup), name=f"mixed({m:g})")


def validate_nonlinearity(nl: Nonlinearity, beta=None, n_samples: int = 200,
                          rng: np.random.Generator | None = None) -> dict:
    """Sample the factor caps and the declared Lipschitz constant.

    Raises ``UnboundedFrozenCoefficient`` if a factor exceeds its cap and
    ``ValueError`` if the Lipschitz declaration is violated on sample pairs.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    beta = beta if beta is not None else linear_beta(1.0)
    x = rng.uniform(0.0, 1.0, n_samples)
    t = float(rng.uniform(0.0, 1.0))
    s1, p1 = rng.normal(0, 3, n_samples), rng.normal(0, 3, n_samples)
    s2, p2 = rng.normal(0, 3, n_samples), rng.normal(0, 3, n_samples)

    b_max = float(np.max(np.abs(nl.b_factor(x, t, s1, p1))))
    c_max = float(np.max(np.abs(nl.c_factor(x, t, s1, p1))))
    tol = 1e-9
    if b_max > nl.b_cap * (1.0 + tol) + 1e-300:
        raise UnboundedFrozenCoefficient(
            f"zero-order factor reaches {b_max:.6g} > cap {nl.b_cap:.6g}")
    if c_max > nl.c_cap * (1.0 + tol) + 1e-300:
        raise UnboundedFrozenCoefficient(
            f"first-order factor reaches {c_max:.6g} > cap {nl.c_cap:.6g}")

    f1 = nl.f(beta, x, t, s1, p1)
    f2 = nl.f(beta, x, t, s2, p2)
    bound = nl.lipschitz_L * (np.abs(s1 - s2) + np.abs(p1 - p2))
    lip = np.abs(f1 - f2)
    if np.any(lip > bound * (1.0 + tol) + 1e-12):
        worst = float(np.max(lip - bound))
        raise ValueError(
            f"Lipschitz declaration violated by {worst:.3e} on sample pairs")
    observed = lip / np.maximum(np.abs(s1 - s2) + np.abs(p1 - p2), 1e-300)
    return {"b_max": b_max, "c_max": c_max,
            "lipschitz_observed": float(np.max(observed))}


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
                      states=z_new.states - z_old.states, case=z_new.case)
    return diff.z_norm(a)


def picard_null_control(p: LinearProblem, nl: Nonlinearity, epsilon: float,
                        fp_tol: float = 1e-6, max_fp_iters: int = 50,
                        cg_tol: float = 1e-10, cg_max_iters: int = 500) -> FixedPointReport:
    """Iterate freeze -> penalized linear control -> refreeze to a fixed point.

    The stopping increment is ||z_{k+1} - z_k|| in L^2(0,T; H^1_a), relative
    to ||y0||. On convergence the pair (y, h) is substituted into the discrete
    semilinear equation; the report's ``converged`` flag requires that
    residual to stay below 10 * fp_tol. Raises ``NoFixedPoint`` when the
    budget runs out on a growing increment sequence.
    """
    y0n = l2_norm(p.grid, p.y0)
    tol_abs = fp_tol * max(y0n, 1e-300)

    zero_traj = Trajectory(grid=p.grid, times=p.times,
                           states=np.zeros((p.M + 1, p.grid.N)), case=p.case)
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


def semilinear_forward(p: LinearProblem, nl: Nonlinearity,
                       inner_tol: float = 1e-12, max_inner: int = 50) -> Trajectory:
    """Uncontrolled semilinear forward solve with per-step frozen-coefficient
    inner iteration. Raises ``NoFixedPoint`` when a step's inner iteration
    spends ``max_inner`` iterations without meeting ``inner_tol``."""
    act = p.active()
    x = p.grid.nodes
    dt = p.dt
    states = np.zeros((p.M + 1, p.grid.N))
    states[0, act] = p.y0[act]
    scale = max(l2_norm(p.grid, states[0]), 1e-300)
    for n in range(p.M):
        t1 = (n + 1) * dt
        w = states[n].copy()
        for _j in range(max_inner):
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
            if delta <= inner_tol * scale:
                break
        else:
            raise NoFixedPoint(
                f"coast step {n + 1}: inner iteration spent {max_inner} iterations, "
                f"last increment {delta:.3e} (target {inner_tol * scale:.3e})")
        states[n + 1] = w
    return Trajectory(grid=p.grid, times=p.times, states=states, case=p.case)


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
