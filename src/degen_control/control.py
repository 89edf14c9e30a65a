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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _cg(apply_A, rhs, inner, tol, max_iters):
    """Conjugate gradient in a weighted inner product.

    Returns (x, iterations, residual_history, energy_history); the energy
    history tracks the quadratic functional 1/2 x'Ax - b'x, which decreases
    monotonically. Raises NotSPD on nonpositive curvature beyond round-off,
    NoConvergence when the iteration budget runs out.
    """
    x = np.zeros_like(rhs)
    norm_rhs = np.sqrt(inner(rhs, rhs))
    if norm_rhs == 0.0:
        return x, 0, [0.0], [0.0]
    r = rhs.copy()
    d = r.copy()
    rs = inner(r, r)
    res_hist = [np.sqrt(rs)]
    energy_hist = [0.0]
    J = 0.0
    for k in range(1, max_iters + 1):
        Ad = apply_A(d)
        dAd = inner(d, Ad)
        dd = inner(d, d)
        if dAd <= 1e-14 * dd:
            raise NotSPD(f"curvature {dAd:.3e} on a direction of norm^2 {dd:.3e}")
        alpha = rs / dAd
        x = x + alpha * d
        J -= 0.5 * rs * rs / dAd
        energy_hist.append(J)
        r = r - alpha * Ad
        rs_new = inner(r, r)
        res_hist.append(np.sqrt(rs_new))
        if res_hist[-1] <= tol * norm_rhs:
            return x, k, res_hist, energy_hist
        d = r + (rs_new / rs) * d
        rs = rs_new
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


def hum_solve(p: LinearProblem, epsilon: float, cg_tol: float = 1e-10,
              max_iters: int = 500) -> HUMResult:
    """Penalized minimal-norm control of the linear problem.

    Solves (Lam + eps I) vhat = -y_free(T) by CG in the weighted inner
    product, builds the control from the adjoint of vhat, and reruns the
    forward problem with it. The optimality identity yT = -eps vhat holds to
    the CG tolerance and its gap is recorded.
    """
    if epsilon <= 0.0:
        raise ValueError("penalty epsilon must be positive")
    act = p.active()
    w_act = p.grid.weights[act]

    def inner(u, v):
        return float(np.sum(w_act * u * v))

    y_free = solve_forward(p)
    rhs = -y_free.final()[act]

    def apply_A(u):
        return _gramian_apply_active(p, u) + epsilon * u

    x, iters, res_hist, energy_hist = _cg(apply_A, rhs, inner, cg_tol, max_iters)

    vhatT = np.zeros(p.grid.N)
    vhatT[act] = x
    v = solve_adjoint(p, vhatT)
    h = v.states[:-1] * p.omega_mask()[None, :]
    y = solve_forward(p, h)
    yT = y.final()
    gap_vec = yT[act] + epsilon * x
    gap = float(np.sqrt(np.sum(w_act * gap_vec * gap_vec)))
    y0n = l2_norm(p.grid, p.y0)
    norm_rhs = float(np.sqrt(inner(rhs, rhs)))
    if gap > 10.0 * cg_tol * max(y0n, norm_rhs) + 1e-300:
        raise NoConvergence(
            f"optimality identity violated: ||yT + eps vhat|| = {gap:.3e}", res_hist)
    cost = control_cost(p, h)
    return HUMResult(vhatT=vhatT, h=h, yT=yT, norm_yT=l2_norm(p.grid, yT),
                     cost=cost, cost_constant=cost / y0n ** 2 if y0n > 0 else None,
                     epsilon=epsilon, cg_iters=iters, cg_residual=res_hist[-1],
                     cg_energy_history=energy_hist, optimality_gap=gap,
                     trajectory=y)


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
    rows = []
    for eps in eps_list:
        res = hum_solve(p, eps, cg_tol=cg_tol, max_iters=max_iters)
        rows.append(SweepRow(epsilon=eps, norm_yT=res.norm_yT, cost=res.cost,
                             cg_iters=res.cg_iters,
                             optimality_gap=res.optimality_gap))
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
