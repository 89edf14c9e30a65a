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

``hum_solve`` runs conjugate gradient on the matrix-free Gramian, one backward
and one forward sweep per iteration, for any coefficients. CG starts from 0,
or from a given guess such as the previous ``vhatT`` that each Picard step
after the first passes; either way it stops at ||r_k|| <= tol ||rhs||, so the
guess changes the work and not the accuracy. Given a preconditioner it runs
preconditioned CG under the same rule: the Picard loop passes
``diffusion_preconditioner``'s eps (Lam_0 + eps I)^-1, the exact penalised
inverse of the diffusion's own Gramian in closed form on its tridiagonal
eigenbasis, and ``control`` passes none. ``epsilon_sweep``
and ``observability_estimate`` serve time-independent coefficients only,
through the dense ``gramian`` pair: B = W Lam and E, the map vT -> v(0). The
sweep solves every penalty of its ladder exactly from one symmetric
eigendecomposition of B in the weighted inner product, O(n^2) per penalty; the
observability quotients and power steps are quadratic forms and products with
(E'WE, B). Everything after the linear solve (the adjoint, the control, the
forward rerun and the optimality-gap check) still marches, so an inaccurate B
ends in ``NoConvergence``. No CG runs in the sweep, so its gap bound is the
fixed ``SWEEP_GAP_TOL``; only ``hum_solve`` takes a CG tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import DegenerateSample, NoConvergence, NonFiniteIntegral, NotSPD
from .mesh import _symmetric_diffusion, l2_norm
from .pde import (LinearProblem, _adjoint_step_matrix, control_cost, march,
                  solve_adjoint, solve_forward)

# the ladder's exact solves stand in for a CG at this tolerance in the gap check
SWEEP_GAP_TOL = 1e-10


def _gramian_apply_active(p: LinearProblem, act: slice, vT_act: np.ndarray) -> np.ndarray:
    """Lam vT on the active slice ``act`` of ``p``, which CG's caller looks up once."""
    vT = np.zeros(p.grid.N)
    vT[act] = vT_act
    vs = march(p, vT, adjoint=True)
    vs *= p.omega_mask()
    return march(p, np.zeros(p.grid.N), vs[:-1])[-1, act]


def gramian(p: LinearProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (B, E) on the active nodes, for time-independent coefficients.

    B = W Lam = dt sum_{k=0..M-1} V_k' W_omega V_k is the Gramian's quadratic
    form in the weighted inner product and E = V_0 maps vT to v(0), where
    V_k = G^(M-k) maps vT to the adjoint state v^k and G = W^-1 M^-T W, the
    one-step adjoint matrix, is one transposed solve of the step matrix's LU
    on diag(w). Square-and-multiply on the pairs (G^a, S_a), with
    S_{a+b} = S_a + (G^a)' S_b G^a, builds both in O(log M) products. B is
    returned exactly symmetric. Raises ValueError on a drift table: a
    time-dependent problem takes ``hum_solve``'s matrix-free path.
    """
    if p.drift.time_dependent:
        raise ValueError("the dense Gramian needs time-independent coefficients; "
                         "a drift table takes hum_solve's matrix-free path")
    act = p.active()
    mask_w = p.grid.weights[act] * p.omega_mask()[act]
    G = _adjoint_step_matrix(p)
    s1 = p.dt * (G.T * mask_w) @ G
    P, S = G, s1
    for bit in bin(p.M)[3:]:
        S = S + P.T @ S @ P
        P = P @ P
        if bit == "1":
            S = s1 + G.T @ S @ G
            P = P @ G
    return 0.5 * (S + S.T), P


def _cg(apply_op, rhs, inner, tol, max_iters, x0=None, precond=None):
    """Conjugate gradient for apply_op(x) = rhs in a weighted inner product.

    Starts from x0, or from 0 when x0 is None, and converges at the first k
    with ||r_k|| <= tol ||rhs||, measured against ||rhs|| whatever the start;
    an x0 that already meets the rule comes back as it is, after 0 iterations.
    ``precond``, if given, maps a residual r to z = P r for an operator P
    that is positive definite and self-adjoint in ``inner``; the iteration
    is then preconditioned CG, which takes r'z where plain CG takes r'r, and
    its finiteness checks hold where ||z|| <= ||r||, as for
    ``diffusion_preconditioner``. Without it z is r itself, so r'z is r'r
    and the iterates are plain CG's bit for bit.
    Returns (x, iterations, residual_history, energy_history): the residual
    history holds ||r_k|| itself, not the preconditioned norm, and the
    energy 1/2 x'Ax - b'x starts at that of the start and decreases
    monotonically, by 1/2 alpha_k r_k'z_k at step k.
    Raises ValueError on an x0 of another shape than rhs or not finite,
    NonFiniteIntegral on an overflowed ||rhs||^2, ||r_0||^2 or curvature,
    NotSPD on nonpositive curvature beyond round-off, and NoConvergence with
    the residual history when the iteration budget runs out.
    """
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rhs.shape or not np.all(np.isfinite(x0)):
            raise ValueError(f"CG initial guess must be a finite vector of shape "
                             f"{rhs.shape}, got a {x0.shape} array")
    with np.errstate(over="ignore"):
        rs = inner(rhs, rhs)
    if not np.isfinite(rs):
        raise NonFiniteIntegral(f"||rhs||^2 = {rs:.3e} is not finite")
    norm_rhs = np.sqrt(rs)
    if norm_rhs == 0.0:
        return np.zeros_like(rhs), 0, [0.0], [0.0]
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
        energy = 0.0
    else:
        x = x0.copy()
        Ax = apply_op(x)
        r = rhs - Ax
        with np.errstate(over="ignore", invalid="ignore"):
            rs = inner(r, r)
            energy = 0.5 * inner(x, Ax) - inner(rhs, x)
        if not (np.isfinite(rs) and np.isfinite(energy)):
            raise NonFiniteIntegral(f"||r_0||^2 = {rs:.3e} or energy {energy:.3e} "
                                    f"of the initial guess is not finite")
    res_hist = [np.sqrt(rs)]
    energy_hist = [energy]
    if x0 is not None and res_hist[0] <= tol * norm_rhs:
        return x, 0, res_hist, energy_hist
    if precond is None:
        def precond(r):
            return r
    z = precond(r)
    rz = inner(r, z)
    d = z.copy()
    for k in range(1, max_iters + 1):
        Ad = apply_op(d)
        with np.errstate(over="ignore", invalid="ignore"):
            dAd, dd = inner(d, Ad), inner(d, d)
        if not (np.isfinite(dAd) and np.isfinite(dd)):
            raise NonFiniteIntegral(f"curvature {dAd:.3e} or norm^2 {dd:.3e} is not finite")
        if dAd <= 1e-14 * dd:
            raise NotSPD(f"curvature {dAd:.3e} on a direction of norm^2 {dd:.3e}")
        alpha = rz / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        rs = inner(r, r)
        res_hist.append(np.sqrt(rs))
        energy_hist.append(energy_hist[-1] - 0.5 * alpha * rz)
        if res_hist[-1] <= tol * norm_rhs:
            return x, k, res_hist, energy_hist
        z = precond(r)
        rz_new = inner(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise NoConvergence(
        f"CG spent {max_iters} iterations, residual {res_hist[-1]:.3e} "
        f"(target {tol * norm_rhs:.3e})", res_hist)


def diffusion_preconditioner(p: LinearProblem, epsilon: float):
    """r -> eps (Lam_0 + eps I)^-1 r on the active nodes, where Lam_0 is the
    Gramian of p's diffusion alone (p's drift is not read), or None when no
    mode needs it.

    With W^{1/2} A_0 W^{-1/2} = U diag(lam) U' (``mesh._symmetric_diffusion``)
    and r_a = 1/(1 + dt lam_a), the step matrix and its weighted transpose
    are both U diag(r) U' in the scaled basis, so W^{1/2} Lam_0 W^{-1/2} =
    U K U' with K = (U_omega' U_omega) o Phi, U_omega the rows of U in omega
    and Phi_ab = dt sum_{j=1..M} (r_a r_b)^j, summed in closed form. Only the
    k modes with Phi_aa > eps/100, the smoothest, are coupled exactly, from
    their k eigenvectors and a Cholesky factor of K_k + eps I; every other
    mode has Lam_0 far below eps there and takes the gain 1. The factor eps
    keeps ||z|| <= ||r|| in the weighted norm, so the map overflows no
    sooner than CG's own residual. Raises DegenerateSample if A_0 is not
    positive definite, which Dirichlet data at x = 1 rules out, and NotSPD
    if K_k + eps I is not, as at an eps lost in round-off.
    """
    _check_penalty(epsilon)
    act = p.active()
    diag, off = _symmetric_diffusion(p.grid, p.a)
    lam = eigvalsh_tridiagonal(diag, off)
    if lam[0] <= 0.0:
        raise DegenerateSample(f"weighted stiffness is not positive definite "
                               f"(smallest eigenvalue {lam[0]:.3e})")

    def phi(log_q):
        # dt sum_{j=1..M} q^j for q = exp(-log_q) in (0, 1)
        return p.dt * np.exp(-log_q) * np.expm1(-p.M * log_q) / np.expm1(-log_q)

    k = int(np.count_nonzero(phi(2.0 * np.log1p(p.dt * lam)) > 0.01 * epsilon))
    if k == 0:
        return None
    lam, U = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                              lapack_driver="stemr")
    log_r = np.log1p(p.dt * lam)
    U_omega = U[p.omega_mask()[act]]
    K = (U_omega.T @ U_omega) * phi(log_r[:, None] + log_r[None, :])
    K[np.diag_indices(k)] += epsilon
    try:
        chol = cho_factor(K)
    except np.linalg.LinAlgError:
        raise NotSPD(f"the Gramian of {k} diffusion modes plus the penalty "
                     f"{epsilon:.3e} is not positive definite beyond round-off") from None
    sw = np.sqrt(p.grid.weights[act])

    def apply(r):
        s = sw * r
        c = U.T @ s
        return (s + U @ (epsilon * cho_solve(chol, c) - c)) / sw

    return apply


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
    trajectory: np.ndarray    # (M+1, N) controlled states at p.times


def _cost_constant(cost: float, y0n: float) -> float | None:
    """cost / ||y0||^2 (None for y0 = 0), dividing twice where ||y0||^2 overflows."""
    try:
        return cost / y0n ** 2 if y0n > 0.0 else None
    except OverflowError:
        return cost / y0n / y0n


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
    h = v[:-1] * p.omega_mask()[None, :]
    y = solve_forward(p, h)
    gap = l2_norm(w_act, y[-1, act] + epsilon * x)
    scale = max(l2_norm(p.grid.weights, p.y0), l2_norm(w_act, rhs))
    if gap > 10.0 * gap_tol * scale + 1e-300:
        raise NoConvergence(
            f"optimality identity violated: ||yT + eps vhat|| = {gap:.3e}", res_hist)
    return vhatT, h, y, gap


def hum_solve(p: LinearProblem, epsilon: float, cg_tol: float = 1e-10,
              max_iters: int = 500, x0: np.ndarray | None = None,
              precond=None) -> HUMResult:
    """Penalized minimal-norm control of the linear problem.

    Solves (Lam + eps I) vhat = -y_free(T) by CG in the weighted inner
    product, applying Lam matrix-free, builds the control from the adjoint of
    vhat, and reruns the forward problem with it. The optimality identity
    yT = -eps vhat holds to the CG tolerance and its gap is recorded. CG
    starts from the nodal vector ``x0`` (read on the active nodes), such as
    the ``vhatT`` of a nearby problem, or from 0 when it is None; the
    stopping rule is the same either way. ``precond``, a map on the active
    nodes such as ``diffusion_preconditioner(p, eps)`` returns, makes it
    preconditioned CG under the same rule. Raises ValueError unless eps and
    cg_tol are finite and positive, max_iters >= 1 and x0, if given, is a
    finite (N,) vector.

    The Gramian stays matrix-free here, also where the dense ``gramian``
    would be cheaper, and ``control`` passes no preconditioner: the
    benchmark's ``control`` check pins this path's exact number of
    single-column tridiagonal solves.
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

    if x0 is not None and np.shape(x0) != (p.grid.N,):
        raise ValueError(f"initial guess must be a nodal vector of shape "
                         f"({p.grid.N},), got {np.shape(x0)}")
    rhs = -solve_forward(p)[-1, act]
    x, iters, res_hist, energy_hist = _cg(
        lambda u: _gramian_apply_active(p, act, u) + epsilon * u, rhs, inner,
        cg_tol, max_iters, None if x0 is None else np.asarray(x0, dtype=float)[act],
        precond)
    vhatT, h, y, gap = _control_of(p, x, epsilon, rhs, cg_tol, res_hist)
    cost = control_cost(p, h)
    return HUMResult(
        vhatT=vhatT, h=h, yT=y[-1], norm_yT=l2_norm(p.grid.weights, y[-1]),
        cost=cost, cost_constant=_cost_constant(cost, l2_norm(p.grid.weights, p.y0)),
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
    eigenvalue is at most 1e-14, CG's curvature threshold, and ValueError on
    a drift table. Each rung's optimality gap, checked against the marched
    map, must stay within 10 ``SWEEP_GAP_TOL`` max(||y0||, ||y_free(T)||).

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
    rhs = -solve_forward(p)[-1, act]
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
        rows.append(SweepRow(epsilon=eps, norm_yT=l2_norm(p.grid.weights, y[-1]),
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


def observability_estimate(p: LinearProblem, n_samples: int, power_iters: int,
                           rng: np.random.Generator) -> ObservabilityReport:
    """Largest observed ||v(0)||^2 / ||v||^2_{omega x (0,T)} over random terminal data.

    Terminal samples are nodal standard normals with boundary rows zeroed and
    unit norm. ``power_iters`` optionally sharpens the estimate by power
    iteration on the self-adjoint map vT -> free-forward(v(0))(T), whose
    dominant mode is the smoothest terminal datum; its quotient is included
    in the reported maximum. Finiteness and refinement stability of the
    maximum are the acceptance signals.

    The quotients are the quadratic forms u'Au / u'Bu of the dense
    ``gramian`` pair, A = E'WE, and a power step is u -> W^-1 A u. As the
    control region holds a node, u'Bu > 0 off a null set of draws; a side
    that underflowed to 0 raises NonFiniteIntegral naming the sample. Raises
    ValueError on a drift table, as ``gramian`` does.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if power_iters < 0:
        raise ValueError(f"power iteration count must be >= 0, got {power_iters}")
    w_act = p.grid.weights[p.active()]
    B, E = gramian(p)
    A = E.T @ (w_act[:, None] * E)

    def quotient_of(u_act, sample):
        num, den = float(u_act @ A @ u_act), float(u_act @ B @ u_act)
        if num == 0.0 or den == 0.0:
            side = "numerator u'Au" if num == 0.0 else "denominator u'Bu"
            raise NonFiniteIntegral(f"{side} of {sample} underflowed to 0; no quotient")
        return num / den

    samples = rng.standard_normal((n_samples, w_act.size))
    samples /= l2_norm(w_act, samples)[:, None]
    quotients = [quotient_of(u, f"sample {i}") for i, u in enumerate(samples)]

    refined = None
    if power_iters > 0:
        u = samples[int(np.argmax(quotients))]
        for _ in range(power_iters):
            bu = (A @ u) / w_act
            nrm = l2_norm(w_act, bu)
            if nrm == 0.0:
                break
            u = bu / nrm
        refined = quotient_of(u, "the power iterate")

    candidates = quotients + ([refined] if refined is not None else [])
    return ObservabilityReport(samples=n_samples,
                               max_quotient=float(np.max(candidates)),
                               quotients=quotients,
                               refined_quotient=refined)
