"""Semilinear null control by frozen-coefficient fixed-point iteration.

Nonlinearities enter in factored form f(x,t,s,p) = b~(x,t,s,p) s +
c~(x,t,s,p) beta(x) p with bounded factors, so freezing them along a
trajectory z produces coefficients (b_z, c_z) that keep the linearized
problem inside the bounded-coefficient theory. The factors and their caps
are all the program reads of a nonlinearity: ``freeze_coefficients`` checks
every frozen value against the caps. The frozen factors add to the
problem's own b and c, so a linear zero- and first-order term is the
constant-factor case of the same form; the caps bound the factors only.
The outer loop alternates freezing with the penalized linear control solve
and stops when consecutive trajectories agree in the L^2(0,T; H^1_a) norm;
the converged pair (y, h) is checked against the discrete semilinear
equation itself.

Freezing works on whole space-time arrays: each factor is called once on
the (M+1, N) states at ``p.times``, whose tables add to the drift's b and
c, and each frozen linear problem, the residual's included, is assembled
once. Each Picard step after the first starts its CG from the previous
step's vhatT, under the same stopping rule as a cold start, so a step whose
frozen problem has not moved takes 0 iterations and repeats the previous
control bit for bit. Every step's CG is preconditioned by one map, built
once per loop by ``control.diffusion_preconditioner`` from the controlled
phase's diffusion alone: the frozen factors are bounded, so each frozen
Gramian stays spectrally close to the diffusion's, and the iteration count
stops growing with N. The drift, frozen or linear, is left out of it on
purpose, so numbers, vectors and tables take one path.

For rough initial data ``picard_null_control`` with t0 > 0 first runs the
uncontrolled semilinear equation on (0, t0), then controls on (t0, T) from
the smoothed state. The coast iterates each step on its own: every inner
iterate w is frozen through ``freeze_coefficients`` as the one level
``w[None, :]`` at time t_{n+1}, so its values are checked against the caps
too, and its one frozen row, added to row n+1 of the drift's b and c, is
assembled as (N,) vectors onto the diffusion bands built once per coast, to
``COAST_TOL`` in ``COAST_MAX_INNER`` steps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import zero_drift
from .errors import NoFixedPoint, NonFiniteIntegral, UnboundedFrozenCoefficient
from .mesh import assemble_operator, dirichlet_energy, l2_norm
from .pde import LinearProblem, _factor_step, _step_solve, solve_forward
from .control import HUMResult, _cost_constant, diffusion_preconditioner, hum_solve

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

def freeze_coefficients(nodes: np.ndarray, times: np.ndarray, z: np.ndarray,
                        nl: Nonlinearity):
    """Call each factor once along the (L, N) states z at ``times`` on
    ``nodes``, with each level's nodal slopes (centered, one-sided at the
    ends): read-only (b_z, c_z) of z's shape; an (N,) result is broadcast.
    Raises NonFiniteIntegral, naming the time, where a state or a slope is
    not finite: no factor is asked what an overflowed slope freezes to."""
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.gradient(z, nodes, axis=-1)
    bad = np.flatnonzero(~(np.isfinite(z).all(axis=-1) & np.isfinite(slopes).all(axis=-1)))
    if bad.size:
        raise NonFiniteIntegral(f"frozen state or its slope is not finite at "
                                f"t = {times[bad[0]]:.6g}")
    args = (nodes, times[:, None], z, slopes)
    b_field, c_field = (np.broadcast_to(np.asarray(factor(*args), dtype=float), z.shape)
                        for factor in (nl.b_factor, nl.c_factor))
    for order, field, cap in (("zero-order", b_field, nl.b_cap),
                              ("first-order", c_field, nl.c_cap)):
        peak = np.max(np.abs(field))
        if peak > cap * (1.0 + 1e-9) + 1e-300:
            raise UnboundedFrozenCoefficient(
                f"frozen {order} coefficient reaches {peak:.6g} > cap {cap:.6g}")
    return b_field, c_field


def frozen_problem(p: LinearProblem, z: np.ndarray, nl: Nonlinearity) -> LinearProblem:
    """p with the factors frozen along the (M+1, N) states z at ``p.times``
    added to its b and c, as tables."""
    b_field, c_field = freeze_coefficients(p.grid.nodes, p.times, z, nl)
    return p.with_drift(dataclasses.replace(p.drift, b=p.drift.b + b_field,
                                            c=p.drift.c + c_field))


# -- fixed-point loop ------------------------------------------------------------

@dataclass
class FixedPointReport:
    increments: list
    control_costs: list
    yT_norms: list
    cg_iters: list             # CG iterations of each step's linear control
    converged: bool
    residual: float            # discrete semilinear residual, relative to ||y0||
    cost_constant: float | None
    hum: HUMResult             # the last linear control: its h, states and norm_yT
    t0: float = 0.0
    phase1_final: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.increments)


def _z_norm(p: LinearProblem, u: np.ndarray) -> float:
    """L^2(0,T; H^1_a) norm of the (M+1, N) states u, trapezoid rule in time."""
    sq = np.sum(p.grid.weights * u * u, axis=1)
    tw = np.full(p.M + 1, p.dt)
    tw[0] = tw[-1] = 0.5 * p.dt
    return float(np.sqrt(np.sum(tw * (sq + dirichlet_energy(p.grid, p.a, u)))))


def semilinear_residual(p: LinearProblem, nl: Nonlinearity, y: np.ndarray,
                        h: np.ndarray) -> float:
    """L^2(Q) residual of the discrete semilinear equation for the (M+1, N)
    states y at ``p.times`` and the (M, N) control h, relative to ||y0||.
    Uses the solver's stencils (coefficients frozen along y itself), so a
    true discrete solution gives round-off."""
    op = assemble_operator(p.grid, p.a, frozen_problem(p, y, nl).drift)
    act = p.active()
    y = y[:, act]
    r = (y[1:] - y[:-1]) / p.dt + op.apply(y[1:]) - h[:p.M, act] * p.omega_mask()[act]
    acc = p.dt * float(np.sum(p.grid.weights[act] * r * r))
    return float(np.sqrt(acc)) / max(l2_norm(p.grid.weights, p.y0), 1e-300)


def _drift_rows(drift, first: int, last: int):
    """``drift`` on the time levels first..last: the rows of a b or c table,
    a number or (N,) vector as it is."""
    def cut(f):
        return f[first:last + 1] if np.ndim(f) == 2 else f
    return dataclasses.replace(drift, b=cut(drift.b), c=cut(drift.c))


def picard_null_control(p: LinearProblem, nl: Nonlinearity, epsilon: float,
                        t0: float = 0.0, fp_tol: float = 1e-6, max_fp_iters: int = 50,
                        cg_tol: float = 1e-10, cg_max_iters: int = 500) -> FixedPointReport:
    """Iterate freeze -> penalized linear control -> refreeze to a fixed point.

    With t0 > 0 the uncontrolled semilinear equation first coasts on (0, t0)
    and the loop controls on (t0, T) from y(t0). t0 snaps to the step grid,
    at M (t0 / T) steps, which cannot overflow; both phases keep the
    original step size and need at least 8 steps, and a b or c table is cut
    to each phase's rows. Each step's ``hum_solve`` runs CG preconditioned
    by ``diffusion_preconditioner`` of the controlled phase, built once.
    Catalog nonlinearities are autonomous, so restarting the clock at t0 is
    immaterial.

    The stopping increment is ||z_{k+1} - z_k|| in L^2(0,T; H^1_a), relative
    to ||y0||. On convergence the pair (y, h) is substituted into the discrete
    semilinear equation; the report's ``converged`` flag requires that
    residual to stay below 10 * fp_tol. Raises ``NoFixedPoint`` when the
    budget runs out on a growing increment sequence, and ValueError before
    any solve unless fp_tol is finite and positive and max_fp_iters >= 1.
    """
    if not (np.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fixed-point tolerance must be finite and positive, got {fp_tol}")
    if max_fp_iters < 1:
        raise ValueError(f"fixed-point budget must be at least 1 iteration, got {max_fp_iters}")
    phase1_final = None
    if t0 != 0.0:
        if not (0.0 < t0 < p.T):
            raise ValueError("t0 must lie strictly inside (0, T)")
        M1 = int(round(p.M * (t0 / p.T)))
        if M1 < 8 or p.M - M1 < 8:
            raise ValueError("both phases need at least 8 time steps; "
                             f"split gave {M1} + {p.M - M1}")
        t0 = M1 * p.dt
        phase1_final = semilinear_forward(
            dataclasses.replace(p, T=t0, M=M1, drift=_drift_rows(p.drift, 0, M1)), nl)[-1]
        p = dataclasses.replace(p, T=p.T - t0, M=p.M - M1, y0=phase1_final,
                                drift=_drift_rows(p.drift, M1, p.M))
    else:
        t0 = 0.0  # a t0 of -0.0 reports as 0

    y0n = l2_norm(p.grid.weights, p.y0)
    tol_abs = fp_tol * max(y0n, 1e-300)
    precond = diffusion_preconditioner(p, epsilon)

    z = solve_forward(frozen_problem(p, np.zeros((p.M + 1, p.grid.N)), nl))

    increments, costs, yT_norms, cg_iters = [], [], [], []
    converged = False
    hum = None
    for _k in range(max_fp_iters):
        hum = hum_solve(frozen_problem(p, z, nl), epsilon, cg_tol=cg_tol,
                        max_iters=cg_max_iters, x0=None if hum is None else hum.vhatT,
                        precond=precond)
        inc = _z_norm(p, hum.trajectory - z)
        increments.append(inc)
        costs.append(hum.cost)
        yT_norms.append(hum.norm_yT)
        cg_iters.append(hum.cg_iters)
        z = hum.trajectory
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
                            yT_norms=yT_norms, cg_iters=cg_iters,
                            converged=converged and residual <= 10.0 * fp_tol,
                            residual=residual,
                            cost_constant=_cost_constant(max(costs), y0n),
                            hum=hum, t0=t0, phase1_final=phase1_final)


@np.errstate(over="ignore")   # once per coast, not per step; see the docstring
def semilinear_forward(p: LinearProblem, nl: Nonlinearity) -> np.ndarray:
    """Uncontrolled semilinear forward solve with per-step frozen-coefficient
    inner iteration, as the (M+1, N) states at ``p.times``. A step's iterate
    is accepted at an increment of at most ``COAST_TOL`` ||y0||; a step that
    spends ``COAST_MAX_INNER`` iterations without that raises NoFixedPoint.
    A step matrix I + dt A that overflows, unwarned under the decorator,
    leaves a row that is not finite, which raises NonFiniteIntegral."""
    act = p.active()
    dt = p.dt
    states = np.zeros((p.M + 1, p.grid.N))
    b_lin, c_lin = (np.broadcast_to(f, states.shape) for f in (p.drift.b, p.drift.c))
    states[0, act] = p.y0[act]
    scale = max(l2_norm(p.grid.weights, states[0]), 1e-300)
    diffusion = assemble_operator(p.grid, p.a, zero_drift())
    for n in range(p.M):
        t1 = (n + 1) * dt
        w, row = states[n], states[n + 1]
        for _j in range(COAST_MAX_INNER):
            b_row, c_row = freeze_coefficients(p.grid.nodes, np.array([t1]), w[None, :], nl)
            op = assemble_operator(p.grid, p.a,
                                   dataclasses.replace(p.drift, b=b_lin[n + 1] + b_row[0],
                                                       c=c_lin[n + 1] + c_row[0]),
                                   diffusion)
            row[act] = states[n, act]
            _step_solve(_factor_step(op.sub, op.diag, op.sup, dt, n + 1), row[act])
            if not np.all(np.isfinite(row)):
                raise NonFiniteIntegral(f"coast step {n + 1}: state at t = {t1:.6g} "
                                        f"is not finite")
            delta = l2_norm(p.grid.weights, row - w)
            if delta <= COAST_TOL * scale:
                break
            w = row.copy()
        else:
            raise NoFixedPoint(
                f"coast step {n + 1}: inner iteration spent {COAST_MAX_INNER} "
                f"iterations, last increment {delta:.3e} "
                f"(target {COAST_TOL * scale:.3e})")
    return states
