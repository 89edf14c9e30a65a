"""Approximate null control via penalized HUM and observability estimation.

The Gramian maps terminal data vT to y(T): solve the adjoint backward, use
the adjoint states restricted to the control region as the control, and solve
forward from zero. Under the transpose-exact discretization this map is
symmetric positive semidefinite in the trapezoid-weighted inner product, with
quadratic form <Lam vT, vT> = sum_n dt ||v^n||^2_omega.

The penalized control solves (Lam + eps I) vhat = -y_free(T) by conjugate
gradient; the resulting control h = vhat-adjoint restricted to omega yields
a final state satisfying y(T) = -eps vhat exactly up to the CG residual.
As eps -> 0 the final-state norm follows the square-root law of penalized
HUM for null-controllable configurations, which the epsilon sweep measures.

Every penalty of a sweep shares the Gramian and the right-hand side, so one
Krylov space serves the whole ladder: a multi-shift CG runs on the smallest
eps and recurs every other penalty's iterate at no extra Gramian apply. A
penalty's ``cg_iters`` is the iteration at which its recurred residual met
the tolerance; it equals a separate CG run's count in exact arithmetic and
can differ by a few iterations in floating point. With one penalty the
iteration is plain CG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NotSPD, ZeroDenominator
from .mesh import l2_norm
from .pde import (LinearProblem, Trajectory, control_cost, march,
                  solve_adjoint, solve_forward)


def _gramian_apply_active(p: LinearProblem, vT_act: np.ndarray) -> np.ndarray:
    vs = march(p, vT_act, adjoint=True)
    vs *= p.omega_mask()[p.active()]
    return march(p, np.zeros_like(vT_act), vs[:-1])[-1]


def apply_gramian(p: LinearProblem, vT: np.ndarray) -> np.ndarray:
    """y(T) reached from zero by the control v|_omega built from terminal data vT."""
    act = p.active()
    out = np.zeros(p.grid.N)
    out[act] = _gramian_apply_active(p, np.asarray(vT, dtype=float)[act])
    return out


@dataclass
class _Shifted:
    """CG state of one shifted system, recurred from the seed's residuals."""

    delta: float              # shift minus the seed shift, >= 0
    x: np.ndarray
    p: np.ndarray
    res_hist: list
    zeta: float = 1.0         # r_shift = zeta r_seed
    zeta_prev: float = 1.0
    energy: float = 0.0
    energy_hist: list = field(default_factory=lambda: [0.0])
    iters: int | None = None  # set once converged; the state is frozen then


def _cg(apply_gram, rhs, inner, shifts, tol, max_iters):
    """Multi-shift conjugate gradient for (Lam + sigma I) x = rhs, every sigma
    in ``shifts``, in a weighted inner product.

    CG runs on the seed system, the smallest shift, with one ``apply_gram``
    per iteration. Every shifted residual stays collinear with the seed's,
    r_sigma = zeta r, so each shift's iterate, search direction and energy
    follow from scalar recurrences in zeta (Jegerlehner, "Krylov space solvers
    for shifted linear systems", 1996) at no further apply. A shift converges
    at the first k with |zeta_k| ||r_k|| <= tol ||rhs|| and is frozen from
    then on. With one shift zeta == 1 exactly and this is plain CG.

    Returns, per shift in the given order, (x, iterations, residual_history,
    energy_history); the energy 1/2 x'Ax - b'x of each system decreases
    monotonically. Raises NotSPD on nonpositive curvature of the seed system
    beyond round-off, NoConvergence with the seed's residual history when the
    iteration budget runs out before every shift has converged.
    """
    seed = min(shifts)
    norm_rhs = np.sqrt(inner(rhs, rhs))
    if norm_rhs == 0.0:
        return [(np.zeros_like(rhs), 0, [0.0], [0.0]) for _ in shifts]
    r = rhs.copy()
    d = r.copy()
    rs = inner(r, r)
    res_hist = [np.sqrt(rs)]
    systems = [_Shifted(delta=s - seed, x=np.zeros_like(rhs), p=r.copy(),
                        res_hist=[res_hist[0]]) for s in shifts]
    live = systems
    alpha_prev, beta_prev = 1.0, 0.0
    for k in range(1, max_iters + 1):
        Ad = apply_gram(d) + seed * d
        dAd = inner(d, Ad)
        dd = inner(d, d)
        if dAd <= 1e-14 * dd:
            raise NotSPD(f"curvature {dAd:.3e} on a direction of norm^2 {dd:.3e}")
        alpha = rs / dAd
        r = r - alpha * Ad
        rs_new = inner(r, r)
        res_hist.append(np.sqrt(rs_new))
        beta = rs_new / rs
        for sy in live:
            z, zp = sy.zeta, sy.zeta_prev
            z_new = z * zp * alpha_prev / (alpha * beta_prev * (zp - z)
                                           + zp * alpha_prev * (1.0 + sy.delta * alpha))
            alpha_s = alpha * (z_new / z)
            sy.x = sy.x + alpha_s * sy.p
            sy.energy -= 0.5 * alpha_s * (z * z * rs)
            sy.energy_hist.append(sy.energy)
            sy.res_hist.append(abs(z_new) * res_hist[-1])
            if sy.res_hist[-1] <= tol * norm_rhs:
                sy.iters = k
                continue
            sy.p = z_new * r + ((z_new / z) ** 2 * beta) * sy.p
            sy.zeta_prev, sy.zeta = z, z_new
        live = [sy for sy in live if sy.iters is None]
        if not live:
            return [(sy.x, sy.iters, sy.res_hist, sy.energy_hist) for sy in systems]
        d = r + beta * d
        rs = rs_new
        alpha_prev, beta_prev = alpha, beta
    raise NoConvergence(
        f"CG spent {max_iters} iterations, residual {res_hist[-1]:.3e} "
        f"(target {tol * norm_rhs:.3e})", res_hist)


@dataclass
class HUMResult:
    vhatT: np.ndarray
    h: np.ndarray             # (M, N) control field, masked to omega
    yT: np.ndarray
    norm_yT: float
    cost: float               # ||h||^2 over omega x (0,T)
    cost_constant: float | None   # cost / ||y0||^2
    epsilon: float
    cg_iters: int
    cg_residual: float
    cg_energy_history: list
    optimality_gap: float     # ||yT + eps vhatT||
    trajectory: Trajectory


def _hum_solves(p: LinearProblem, eps_list, cg_tol: float, max_iters: int):
    """Penalized minimal-norm controls of the linear problem, one HUMResult
    per penalty, yielded in the order of ``eps_list``.

    Solves (Lam + eps I) vhat = -y_free(T) for every eps at once by
    multi-shift CG in the weighted inner product: y_free is computed once and
    all penalties share one Krylov space. Per eps it builds the control from
    the adjoint of vhat and reruns the forward problem with it; the
    optimality identity yT = -eps vhat holds to the CG tolerance and its gap
    is recorded.
    """
    for eps in eps_list:
        if not (np.isfinite(eps) and eps > 0.0):
            raise ValueError(f"penalty epsilon must be finite and positive, got {eps}")
    act = p.active()
    w_act = p.grid.weights[act]

    def inner(u, v):
        return float(np.sum(w_act * u * v))

    rhs = -solve_forward(p).final()[act]
    solves = _cg(lambda u: _gramian_apply_active(p, u), rhs, inner, eps_list,
                 cg_tol, max_iters)
    y0n = l2_norm(p.grid, p.y0)
    norm_rhs = float(np.sqrt(inner(rhs, rhs)))
    for epsilon, (x, iters, res_hist, energy_hist) in zip(eps_list, solves):
        vhatT = np.zeros(p.grid.N)
        vhatT[act] = x
        v = solve_adjoint(p, vhatT)
        h = v.states[:-1] * p.omega_mask()[None, :]
        y = solve_forward(p, h)
        yT = y.final()
        gap_vec = yT[act] + epsilon * x
        gap = float(np.sqrt(np.sum(w_act * gap_vec * gap_vec)))
        if gap > 10.0 * cg_tol * max(y0n, norm_rhs) + 1e-300:
            raise NoConvergence(
                f"optimality identity violated: ||yT + eps vhat|| = {gap:.3e}", res_hist)
        cost = control_cost(p, h)
        yield HUMResult(
            vhatT=vhatT, h=h, yT=yT, norm_yT=l2_norm(p.grid, yT), cost=cost,
            cost_constant=cost / y0n ** 2 if y0n > 0 else None, epsilon=epsilon,
            cg_iters=iters, cg_residual=res_hist[-1], cg_energy_history=energy_hist,
            optimality_gap=gap, trajectory=y)


def hum_solve(p: LinearProblem, epsilon: float, cg_tol: float = 1e-10,
              max_iters: int = 500) -> HUMResult:
    """Penalized minimal-norm control of the linear problem.

    Solves (Lam + eps I) vhat = -y_free(T) by CG in the weighted inner
    product, builds the control from the adjoint of vhat, and reruns the
    forward problem with it. The optimality identity yT = -eps vhat holds to
    the CG tolerance and its gap is recorded. Raises ValueError unless eps is
    finite and positive.
    """
    return next(_hum_solves(p, [float(epsilon)], cg_tol, max_iters))


@dataclass
class SweepRow:
    epsilon: float
    norm_yT: float
    cost: float
    cg_iters: int
    optimality_gap: float = 0.0


@dataclass
class SweepResult:
    rows: list
    slope: float
    cost_ratio: float


def epsilon_sweep(p: LinearProblem, eps_list, cg_tol: float = 1e-10,
                  max_iters: int = 500) -> SweepResult:
    """Run the penalized control across a decreasing penalty ladder.

    Fits the log-log slope of ||y(T)|| against eps; for a null-controllable
    configuration the slope sits near 1/2 and the control cost stays bounded.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 4:
        raise ValueError("need at least 4 penalty values")
    if np.any(np.diff(eps_list) >= 0.0):
        raise ValueError("penalty values must be strictly decreasing")
    rows = [SweepRow(epsilon=res.epsilon, norm_yT=res.norm_yT, cost=res.cost,
                     cg_iters=res.cg_iters, optimality_gap=res.optimality_gap)
            for res in _hum_solves(p, eps_list, cg_tol, max_iters)]
    norms = np.array([r.norm_yT for r in rows])
    costs = np.array([r.cost for r in rows])
    ok = norms > 0.0
    slope = float("nan")
    if np.count_nonzero(ok) >= 2:
        slope = float(np.polyfit(np.log(np.array(eps_list)[ok]), np.log(norms[ok]), 1)[0])
    pos = costs[costs > 0.0]
    cost_ratio = float(pos.max() / pos.min()) if pos.size else 1.0
    return SweepResult(rows=rows, slope=slope, cost_ratio=cost_ratio)


@dataclass
class ObservabilityReport:
    samples: int
    max_quotient: float
    quotients: list
    refined_quotient: float | None


def observability_estimate(p: LinearProblem, n_samples: int,
                           power_iters: int = 0,
                           rng: np.random.Generator | None = None) -> ObservabilityReport:
    """Largest observed ||v(0)||^2 / ||v||^2_{omega x (0,T)} over random terminal data.

    Terminal samples are nodal standard normals with boundary rows zeroed and
    unit norm. ``power_iters`` optionally sharpens the estimate by power
    iteration on the self-adjoint map vT -> free-forward(v(0))(T), whose
    dominant mode is the smoothest terminal datum; its quotient is included
    in the reported maximum. Finiteness and refinement stability of the
    maximum are the acceptance signals.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(0) if rng is None else rng
    act = p.active()
    w_act = p.grid.weights[act]
    mask_w = w_act * p.omega_mask()[act]

    def quotient_of(u_act):
        vs = march(p, u_act, adjoint=True)
        num = float(np.sum(w_act * vs[0] * vs[0]))
        den = p.dt * float(np.sum(mask_w * vs[:-1] ** 2))
        return num, den, vs

    quotients = []
    best_u = None
    best_q = -np.inf
    for _ in range(n_samples):
        for _attempt in range(10):
            u = rng.standard_normal(act.size)
            u /= np.sqrt(np.sum(w_act * u * u))
            num, den, _ = quotient_of(u)
            if den > 0.0:
                break
        else:
            raise ZeroDenominator(
                "sample restriction to the control region vanished 10 times in a row")
        q = num / den
        quotients.append(q)
        if q > best_q:
            best_q, best_u = q, u

    refined = None
    if power_iters > 0 and best_u is not None:
        u = best_u.copy()
        for _ in range(power_iters):
            bu = march(p, march(p, u, adjoint=True)[0])[-1]
            nrm = np.sqrt(np.sum(w_act * bu * bu))
            if nrm == 0.0:
                break
            u = bu / nrm
        num, den, _ = quotient_of(u)
        if den > 0.0:
            refined = num / den

    candidates = quotients + ([refined] if refined is not None else [])
    return ObservabilityReport(samples=n_samples,
                               max_quotient=float(np.max(candidates)),
                               quotients=quotients,
                               refined_quotient=refined)
