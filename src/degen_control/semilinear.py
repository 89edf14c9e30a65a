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

Freezing works a block of ``pde.LEVEL_BLOCK`` time levels at a time: each
factor is called once per block of the M levels t_1, ..., t_M that the
steps read. A frozen problem's drift, a ``FrozenDrift``, holds the (M+1, N)
states by reference and freezes a block as it is asked for, adding the
frozen values to the linear b and c; ``frozen_problem`` builds the step
factors at once, freezing, assembling and factoring each block in turn,
and the residual walks the same blocks without factoring them. So the only
space-time arrays a frozen problem makes are the factors it keeps, and the
first fault in time raises. Each Picard step after the first starts its CG
from the previous step's vhatT, under the same stopping rule as a cold
start, so a step whose frozen problem has not moved takes 0 iterations and
repeats the previous control bit for bit.
Every step's CG is preconditioned by one map, built once per loop by
``control.diffusion_preconditioner`` from the controlled phase's diffusion
alone: the frozen factors are bounded, so each frozen Gramian stays
spectrally close to the diffusion's, and the iteration count stops growing
with N. The drift, frozen or linear, is left out of it on purpose, so
every drift takes one path.

For rough initial data ``picard_null_control`` with t0 > 0 first runs the
uncontrolled semilinear equation on (0, t0), then controls on (t0, T) from
the smoothed state. The coast, ``semilinear_forward``, iterates each step on
its own, assembles each inner iteration's step through the one assembler in
``mesh``, and shares the Picard loop's helpers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import DriftEnvelope
from .errors import NoFixedPoint, NonFiniteIntegral, UnboundedFrozenCoefficient
from .mesh import GridSpec, _assembler, face_diffusivity, l2_norm
from .pde import (LEVEL_BLOCK, LinearProblem, _factor_steps, _step_factors, _step_solve,
                  _frozen_levels, solve_forward)
from .control import (HUMResult, _check_cg, _cost_constant, diffusion_preconditioner,
                      hum_solve)

# the coast phase's per-step inner iteration: relative increment target and budget
COAST_TOL = 1e-12
COAST_MAX_INNER = 50


def _zero(x, t, s, p):
    return np.zeros_like(np.asarray(x, dtype=float))


def _tanh_grad(x, t, s, p):
    """tanh(p)/p with the limit value 1 at p = 0."""
    p = np.asarray(p, dtype=float)
    return np.divide(np.tanh(p), p, out=np.ones_like(p), where=np.abs(p) > 1e-8)


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

    Freezing calls a factor once per block of L of the M levels the steps
    read, with x (N,), t (L, 1) and s, p (L, N); its result must broadcast
    to (L, N). L is at most ``pde.LEVEL_BLOCK``, and 1 in the coast."""

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

def freeze_coefficients(grid: GridSpec, times: np.ndarray, z: np.ndarray,
                        nl: Nonlinearity):
    """Call each factor once along the (L, N) states z at ``times`` on
    ``grid``, with each level's nodal slopes from ``grid.slopes`` (centered,
    one-sided at the ends): (b_z, c_z) of z's shape; an (N,) result is
    broadcast, read-only. Raises NonFiniteIntegral, naming the time, where a
    state or a slope is not finite: no factor is asked what an overflowed
    slope freezes to. A frozen value above its cap, or one that is not a
    number, raises UnboundedFrozenCoefficient naming the order and the peak
    of these levels."""
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = grid.slopes(z)
    bad = np.flatnonzero(~(np.isfinite(z).all(axis=-1) & np.isfinite(slopes).all(axis=-1)))
    if bad.size:
        raise NonFiniteIntegral(f"frozen state or its slope is not finite at "
                                f"t = {times[bad[0]]:.6g}")
    args = (grid.nodes, times[:, None], z, slopes)
    fields = tuple(f if f.shape == z.shape else np.broadcast_to(f, z.shape)
                   for f in (np.asarray(factor(*args), dtype=float)
                             for factor in (nl.b_factor, nl.c_factor)))
    for order, field, cap in zip(("zero-order", "first-order"), fields,
                                 (nl.b_cap, nl.c_cap)):
        peak = max(field.max(), -field.min())       # no |field| copy; a NaN stays
        if not peak <= cap * (1.0 + 1e-9) + 1e-300:     # a NaN fails too
            raise UnboundedFrozenCoefficient(
                f"frozen {order} coefficient reaches {peak:.6g} > cap {cap:.6g}")
    return fields


@dataclass(frozen=True, eq=False)
class FrozenDrift:
    """The drift ``linear`` plus the factors of ``nl`` frozen along the
    (M+1, N) states z at ``times`` on ``grid``: b + b~(z) and c + c~(z),
    with ``linear``'s beta. It keeps z by reference, with no copy, and never
    writes into it (the Picard loop only rebinds its z), so that it costs
    no space-time array of its own; ``step_blocks`` freezes the values a
    block at a time, as they are asked for. It is time-dependent whatever
    the values, so the dense paths of ``control`` refuse it, and it holds no
    b or c that would give ``linear`` alone."""

    linear: DriftEnvelope
    grid: GridSpec
    times: np.ndarray
    z: np.ndarray
    nl: Nonlinearity

    time_dependent = True

    @property
    def beta(self):
        return self.linear.beta

    def check_shape(self, M: int, N: int) -> None:
        self.linear.check_shape(M, N)
        if np.shape(self.z) != (M + 1, N):
            raise ValueError(f"frozen states must be (M+1, N) = ({M + 1}, {N}), "
                             f"got {np.shape(self.z)}")

    def step_blocks(self, M: int, size: int):
        """``(k, b, c)`` for each block of ``size`` steps k, k+1, ... of M:
        the linear b and c plus the factors frozen on the levels k+1, k+2,
        ... that those steps read, by one ``freeze_coefficients`` call,
        which checks the block's caps. A frozen value is never written into,
        as a factor may return an array it still owns."""
        for k in range(0, M, size):
            rows = slice(k + 1, k + 1 + size)
            b, c = freeze_coefficients(self.grid, self.times[rows], self.z[rows], self.nl)
            yield k, np.add(self.linear.b, b), np.add(self.linear.c, c)


def _with_frozen_drift(p: LinearProblem, z: np.ndarray, nl: Nonlinearity) -> LinearProblem:
    return p.with_drift(FrozenDrift(p.drift, p.grid, p.times, z, nl))


def frozen_problem(p: LinearProblem, z: np.ndarray, nl: Nonlinearity) -> LinearProblem:
    """p with the factors frozen along the (M+1, N) states z at ``p.times``
    added to its b and c, and with its step factors: its drift is a
    ``FrozenDrift`` that reads z by reference, and ``pde._step_factors``
    freezes, assembles and factors each block of ``LEVEL_BLOCK`` levels in
    turn. Level 0, which no step reads, is not frozen. The first fault in
    time raises: a state or slope that is not finite, or a broken cap with
    its block's peak, where its block is frozen, and an overflowed step
    matrix or a singular one where its block is assembled or factored."""
    q = _with_frozen_drift(p, z, nl)
    _step_factors(q)
    return q


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
    """L^2(0,T; H^1_a) norm of the (M+1, N) states u, trapezoid rule in time.
    Each level's ||u||^2 and ``mesh.dirichlet_energy`` are summed a block of
    ``LEVEL_BLOCK`` levels at a time, with a evaluated once."""
    w, h, af = p.grid.weights, p.grid.spacings, face_diffusivity(p.grid, p.a)
    sq = np.empty(p.M + 1)
    for k in range(0, p.M + 1, LEVEL_BLOCK):
        rows = slice(k, k + LEVEL_BLOCK)
        v = u[rows]
        du = np.diff(v)
        sq[rows] = np.sum(w * v * v, axis=1) + np.sum(af * du * du / h, axis=-1)
    tw = np.full(p.M + 1, p.dt)
    tw[0] = tw[-1] = 0.5 * p.dt
    return float(np.sqrt(np.sum(tw * sq)))


def semilinear_residual(p: LinearProblem, nl: Nonlinearity, y: np.ndarray,
                        h: np.ndarray) -> float:
    """L^2(Q) residual of the discrete semilinear equation for the (M+1, N)
    states y at ``p.times`` and the (M, N) control h, relative to ||y0||.
    Uses the solver's stencils (coefficients frozen along y itself), so a
    true discrete solution gives round-off; one that overflows raises
    NonFiniteIntegral.

    The levels of p's drift frozen along y (a ``FrozenDrift``) are frozen,
    assembled and r formed a block at a time (``pde._frozen_levels``), with
    no step factored; w r r of every step goes into one (M, n) array,
    summed once, and h is subtracted in omega only. A state that is not
    finite, a broken cap and an overflowed assembly raise as they do in
    ``frozen_problem``, all ahead of the residual's own overflow."""
    q = _with_frozen_drift(p, y, nl)
    act = p.active()
    w, mask = p.grid.weights[act], p.omega_mask()[act]
    y, h = y[:, act], h[:, act]
    wrr = np.empty((p.M, w.size))
    for k, (sub, diag, sup, _) in _frozen_levels(q):
        steps = slice(k, k + len(diag))
        y1 = y[k + 1:k + 1 + len(diag)]
        with np.errstate(over="ignore", invalid="ignore"):
            Ay = diag * y1
            Ay[:, 1:] += sub[:, 1:] * y1[:, :-1]
            Ay[:, :-1] += sup[:, :-1] * y1[:, 1:]
            r = (y1 - y[steps]) / p.dt + Ay
            np.subtract(r, h[steps], out=r, where=mask)
            np.multiply(w, r, out=wrr[steps])
            wrr[steps] *= r
    with np.errstate(over="ignore", invalid="ignore"):
        acc = p.dt * float(np.sum(wrr))
    if not np.isfinite(acc):
        raise NonFiniteIntegral(f"the semilinear residual overflows at dt = {p.dt:.3e}")
    return float(np.sqrt(acc)) / max(l2_norm(p.grid.weights, p.y0), 1e-300)


def picard_null_control(p: LinearProblem, nl: Nonlinearity, epsilon: float,
                        t0: float = 0.0, fp_tol: float = 1e-6, max_fp_iters: int = 50,
                        cg_tol: float = 1e-10, cg_max_iters: int = 500) -> FixedPointReport:
    """Iterate freeze -> penalized linear control -> refreeze to a fixed point.

    With t0 > 0 the uncontrolled semilinear equation first coasts on (0, t0)
    and the loop controls on (t0, T) from y(t0). t0 snaps to the step grid,
    at M (t0 / T) steps, which cannot overflow; both phases keep the
    original step size and need at least 8 steps. Each step's ``hum_solve``
    runs CG preconditioned by ``diffusion_preconditioner`` of the controlled
    phase, built once. Catalog nonlinearities are autonomous, so restarting
    the clock at t0 is immaterial.

    The stopping increment is ||z_{k+1} - z_k|| in L^2(0,T; H^1_a), relative
    to ||y0||. On convergence the pair (y, h) is substituted into the discrete
    semilinear equation; the report's ``converged`` flag requires that
    residual to stay below 10 * fp_tol. Raises ``NoFixedPoint`` when the
    budget runs out on a growing increment sequence, and ValueError before
    the coast and the first freeze unless fp_tol and cg_tol are finite and
    positive and max_fp_iters and cg_max_iters are at least 1.
    """
    if not (np.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fixed-point tolerance must be finite and positive, got {fp_tol}")
    if max_fp_iters < 1:
        raise ValueError(f"fixed-point budget must be at least 1 iteration, got {max_fp_iters}")
    _check_cg(cg_tol, cg_max_iters)
    phase1_final = None
    if t0 != 0.0:
        if not (0.0 < t0 < p.T):
            raise ValueError("t0 must lie strictly inside (0, T)")
        M1 = int(round(p.M * (t0 / p.T)))
        if M1 < 8 or p.M - M1 < 8:
            raise ValueError("both phases need at least 8 time steps; "
                             f"split gave {M1} + {p.M - M1}")
        t0 = M1 * p.dt
        # a copy of the last row: a view would keep the whole coast alive
        phase1_final = semilinear_forward(dataclasses.replace(p, T=t0, M=M1), nl)[-1].copy()
        p = dataclasses.replace(p, T=p.T - t0, M=p.M - M1, y0=phase1_final)
    else:
        t0 = 0.0  # a t0 of -0.0 reports as 0

    y0n = l2_norm(p.grid.weights, p.y0)
    tol_abs = fp_tol * max(y0n, 1e-300)
    precond = diffusion_preconditioner(p, epsilon)

    z = solve_forward(frozen_problem(p, np.zeros((p.M + 1, p.grid.N)), nl))

    increments, costs, yT_norms, cg_iters = [], [], [], []
    converged = False
    vhatT = None
    for _k in range(max_fp_iters):
        hum = None      # the next step reads only vhatT; the last h goes before it solves
        hum = hum_solve(frozen_problem(p, z, nl), epsilon, cg_tol=cg_tol,
                        max_iters=cg_max_iters, x0=vhatT, precond=precond)
        vhatT = hum.vhatT
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
    A step matrix I + dt A that overflows raises NonFiniteIntegral in
    ``pde``'s kernel; a solve that overflows, unwarned under the decorator,
    leaves a row that is not finite, which raises NonFiniteIntegral too.

    ``mesh._assembler`` (one evaluation of a) and the linear b and c on the
    active nodes are built once per coast. Each inner iteration then works on
    (N,) rows: one ``freeze_coefficients`` of the one level ``w[None, :]`` at
    t_{n+1}, one assembly of the linear plus frozen b and c, and one
    factorisation and one solve of the step matrix through ``pde``'s kernel
    (LDL^T of the step matrix symmetrised by W or by rho W, pivoted LU where
    neither serves)."""
    act = p.active()
    dt = p.dt
    states = np.zeros((p.M + 1, p.grid.N))
    b_lin, c_lin = (np.broadcast_to(f, p.grid.N)[act] for f in (p.drift.b, p.drift.c))
    states[0, act] = p.y0[act]
    scale = max(l2_norm(p.grid.weights, states[0]), 1e-300)
    assemble = _assembler(p.grid, p.a, p.drift.beta)
    weights = p.grid.weights[act]
    for n in range(p.M):
        t1 = np.array([(n + 1) * dt])
        w, row = states[n], states[n + 1]
        for _j in range(COAST_MAX_INNER):
            b_row, c_row = freeze_coefficients(p.grid, t1, w[None, :], nl)
            kind, (factors,) = _factor_steps(
                *assemble(b_lin + b_row[0, act], c_lin + c_row[0, act]), dt, weights, n + 1)
            row[act] = states[n, act]
            _step_solve(kind, factors, row[act])
            if not np.isfinite(row).all():
                raise NonFiniteIntegral(f"coast step {n + 1}: state at t = {t1[0]:.6g} "
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
