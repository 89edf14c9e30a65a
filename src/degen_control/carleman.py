"""Carleman weight construction and numerical audit of the weighted inequalities.

The weight is phi(x, t) = eta(x) * theta(t) with theta(t) = (t(T-t))^-4 and
eta a C^2 blend of two profiles: near the degeneracy point the decreasing
profile

    psi_deg(x) = c1 (c2 - int_0^x tau/a(tau) dtau),   c2 > 1/(a(1)(2-K)),

and away from it the classical bump-based profile

    psi_cls(x) = e^{2 lam ||rho||_inf} - e^{lam rho(x)},

glued by a quintic C^2 cutoff xi dropping from 1 to 0 on [kappa-, kappa+],
where kappa- = (2 w1 + w2)/3 and kappa+ = (w1 + 2 w2)/3 for the control
region (w1, w2). The bump rho vanishes at 0 and 1, is positive inside, and
has its single critical point at the midpoint of an interior subinterval
(a', b') of (kappa-, kappa+), so eta' = psi_cls' != 0 on (kappa+, w2).

psi_deg's integral is one cumulative sum of ``quad`` over the gaps between the
sorted points, for every coefficient kind; ``scipy.integrate`` is imported at
the first psi_deg call. The weights run it once, over the union of the grid's
nodes and faces and the validation check points, and sample there, once,
everything the audit reads that depends only on the grid and the weights.

The audit checks three estimates for solutions v of the backward equation
v_t + (a v_x)_x = F (or = F0 + (beta F1)_x), each a ``variant`` of
``carleman_functionals`` and ``ratio_experiment``:

- "lemma": the weighted energy

      lhs = int_Q (s theta a v_x^2 + s^3 theta^3 (x^2/a) v^2) e^{-2 s phi}

  against the weighted F^2 plus the observation term on omega;
- "theorem": the same energy against the observation term plus
  F0^2 + s^2 theta^3 (beta^2/a) F1^2;
- "cacciopoli": the local Caccioppoli-type gradient energy
  int v_x^2 e^{-2 s phi} over omega' x (0, T), against the lemma's
  right-hand side.

e^{-2 s phi} underflows catastrophically at desk scale, so every integral
here is computed in log space with the weight normalized by its maximum over
the space-time grid; both sides share one normalization, leaving all ratios
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import Case, DegeneracyCoefficient, zero_drift
from .errors import NonFiniteIntegral, WeightInvalid
from .mesh import GridSpec, face_diffusivity
from .pde import LinearProblem, Trajectory, _trajectory

FIELD_MODES = 6      # modes of every random smooth field
PLATEAU_REL = 0.05   # per-step relative change that counts as a plateau


@dataclass(frozen=True)
class CarlemanWeights:
    """Blended weight profiles, their parameters, and what the audit needs of
    them on ``grid``: eta at the nodes and faces, a times the face spacings,
    a and x^2/a at the nodes, and psi_deg at the validation check points
    (which contain the nodes), all from one cumulative ``quad`` pass."""

    a: DegeneracyCoefficient
    T: float
    c1: float
    c2: float
    lam: float
    kappa_minus: float
    kappa_plus: float
    omega_prime: tuple
    rho_peak: float
    grid: GridSpec = field(repr=False)
    check_points: np.ndarray = field(init=False, repr=False)
    psi_check: np.ndarray = field(init=False, repr=False)
    eta_nodes: np.ndarray = field(init=False, repr=False)
    eta_faces: np.ndarray = field(init=False, repr=False)
    a_faces_h: np.ndarray = field(init=False, repr=False)   # a(faces) * spacings
    a_pos: np.ndarray = field(init=False, repr=False)       # a at the nodes x > 0
    xx_over_a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        pts, nodes, faces = _check_points(grid), grid.nodes, grid.faces
        psi = np.split(self.psi_deg(np.concatenate([pts, nodes, faces])),
                       [pts.size, pts.size + nodes.size])
        a_pos = np.asarray(self.a.eval(nodes[nodes > 0.0]), dtype=float)
        for name, value in (
                ("check_points", pts), ("psi_check", psi[0]),
                ("eta_nodes", self.eta(nodes, psi[1])),
                ("eta_faces", self.eta(faces, psi[2])),
                ("a_faces_h", face_diffusivity(grid, self.a) * grid.spacings),
                ("a_pos", a_pos),
                ("xx_over_a", _degenerate_ratio(nodes, a_pos, lambda x: x * x))):
            object.__setattr__(self, name, value)

    def _x_over_a(self, tau: float) -> float:
        if tau <= 0.0:
            return 0.0
        return tau / float(self.a.eval(np.array([tau]))[0])

    def psi_deg(self, x):
        """c1 (c2 - int_0^x tau/a) for every entry of x in one pass: one ``quad``
        over each gap between the sorted distinct points, then a running sum."""
        from scipy.integrate import quad
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pts, inv = np.unique(np.maximum(xs, 0.0), return_inverse=True)
        gaps = [quad(self._x_over_a, lo, hi, limit=200)[0]
                for lo, hi in zip(np.r_[0.0, pts[:-1]], pts)]
        out = self.c1 * (self.c2 - np.cumsum(gaps)[inv.reshape(xs.shape)])
        return out if np.ndim(x) else float(out[0])

    def psi_deg_prime(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        pos = xs > 0.0
        out[pos] = -self.c1 * xs[pos] / np.asarray(self.a.eval(xs[pos]), dtype=float)
        return out if np.ndim(x) else float(out[0])

    def _gmap(self, x):
        m = self.rho_peak
        return x * (1.0 - m) / (m + x * (1.0 - 2.0 * m))

    def _gmap_prime(self, x):
        m = self.rho_peak
        return m * (1.0 - m) / (m + x * (1.0 - 2.0 * m)) ** 2

    def rho(self, x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * self._gmap(x))

    def rho_prime(self, x):
        x = np.asarray(x, dtype=float)
        return np.pi * np.cos(np.pi * self._gmap(x)) * self._gmap_prime(x)

    def psi_cls(self, x):
        return math.exp(2.0 * self.lam) - np.exp(self.lam * self.rho(x))

    def psi_cls_prime(self, x):
        return -self.lam * self.rho_prime(x) * np.exp(self.lam * self.rho(x))

    def xi(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip((x - self.kappa_minus) / (self.kappa_plus - self.kappa_minus), 0.0, 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)

    def xi_prime(self, x):
        x = np.asarray(x, dtype=float)
        width = self.kappa_plus - self.kappa_minus
        u = (x - self.kappa_minus) / width
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(u)
        ui = u[inside]
        out[inside] = -30.0 * ui * ui * (1.0 - ui) ** 2 / width
        return out

    def eta(self, x, psi=None):
        """The blended profile; ``psi``, if given, is psi_deg(x) already computed."""
        xi = self.xi(x)
        psi = self.psi_deg(x) if psi is None else psi
        return psi * xi + (1.0 - xi) * self.psi_cls(x)

    def eta_prime(self, x, psi=None):
        xi = self.xi(x)
        dxi = self.xi_prime(x)
        psi = self.psi_deg(x) if psi is None else psi
        return (self.psi_deg_prime(x) * xi + psi * dxi
                - dxi * self.psi_cls(x) + (1.0 - xi) * self.psi_cls_prime(x))

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        return (t * (self.T - t)) ** -4.0


def c2_threshold(a: DegeneracyCoefficient) -> float:
    a1 = float(a.eval(np.array([1.0]))[0])
    return 1.0 / (a1 * (2.0 - a.K))


def _check_points(grid: GridSpec) -> np.ndarray:
    return np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 257),
                                     np.linspace(0.0, 1.0, 257), grid.nodes]))


def build_weights(a: DegeneracyCoefficient, omega: tuple, T: float,
                  c1: float = 1.0, lam: float = 2.0, c2: float | None = None,
                  *, grid: GridSpec) -> CarlemanWeights:
    """Construct and validate the blended weight for a control region with w1 > 0.

    ``c2`` defaults to 1.05 times the positivity threshold 1/(a(1)(2-K)).
    Raises ``WeightInvalid`` if psi_deg fails to stay positive or eta' vanishes
    at a check node of (kappa+, w2).
    """
    w1, w2 = omega
    if not (0.0 < w1 < w2 < 1.0):
        raise ValueError("control region must satisfy 0 < w1 < w2 < 1")
    if not (np.isfinite(T) and T > 0.0):
        raise ValueError("horizon must be finite and positive")
    if not (np.isfinite(c1) and np.isfinite(lam) and c1 > 0.0 and lam > 0.0):
        raise ValueError(f"c1 and lambda must be finite and positive, got {c1}, {lam}")
    if not 2.0 * lam < np.log(np.finfo(float).max):
        raise ValueError(f"lambda = {lam} overflows the classical weight e^(2 lambda)")
    if c2 is None:
        c2 = 1.05 * c2_threshold(a)

    km = (2.0 * w1 + w2) / 3.0
    kp = (w1 + 2.0 * w2) / 3.0
    width = kp - km
    ap, bp = km + 0.25 * width, kp - 0.25 * width
    w = CarlemanWeights(a=a, T=float(T), c1=float(c1), c2=float(c2),
                        lam=float(lam), kappa_minus=km, kappa_plus=kp,
                        omega_prime=(ap, bp), rho_peak=0.5 * (ap + bp), grid=grid)

    pts, psi = w.check_points, w.psi_check
    if np.any(psi <= 0.0):
        raise WeightInvalid(
            f"psi_deg <= 0 at x = {pts[np.argmin(psi)]:.6g}; "
            f"c2 = {c2:.6g} vs threshold {c2_threshold(a):.6g}")

    region = (pts > kp) & (pts < w2)
    if np.any(region):
        dp = np.abs(w.eta_prime(pts[region], psi[region]))
        if np.any(dp <= 1e-12 * max(1.0, float(dp.max()))):
            raise WeightInvalid("eta' vanishes at a node of (kappa+, w2)")

    outside = pts[((pts > 0.0) & (pts < ap)) | ((pts > bp) & (pts < 1.0))]
    dr = np.abs(np.atleast_1d(w.rho_prime(outside)))
    if np.any(dr <= 1e-12 * max(1.0, float(dr.max()))):
        raise WeightInvalid("rho' vanishes outside the interior bump interval")
    return w


@dataclass(frozen=True)
class SourceSplit:
    """Source decomposition F0 + (beta F1)_x, both sampled on the grid."""

    F0: np.ndarray   # (M+1, N)
    F1: np.ndarray   # (M+1, N)


def beta_divergence(grid: GridSpec, beta, F1: np.ndarray,
                    case: Case) -> np.ndarray:
    """Flux-form divergence of beta*F1 at the nodes, along the last axis of F1
    (zero boundary flux at a strong-degeneracy left end)."""
    prod = np.asarray(beta(grid.nodes), dtype=float) * F1
    face_vals = 0.5 * (prod[..., :-1] + prod[..., 1:])
    out = np.zeros(prod.shape)
    out[..., 1:-1] = (face_vals[..., 1:] - face_vals[..., :-1]) / grid.weights[1:-1]
    if case is Case.SDP:
        out[..., 0] = face_vals[..., 0] / grid.weights[0]
    return out


def solve_terminal_source(p: LinearProblem, vT: np.ndarray,
                          F: np.ndarray | None = None) -> Trajectory:
    """Backward implicit-Euler solution of v_t + (a v_x)_x = F, v(T) = vT.

    Marches ``p`` as given, so the caller passes the drift-free problem
    ``p.with_drift(zero_drift())``; reusing one such problem reuses its step
    factors. F has shape (M+1, N) sampled at the time nodes.
    """
    src = None if F is None else -np.asarray(F, dtype=float)[:-1]
    return _trajectory(p, vT, src, adjoint=True)


def _degenerate_ratio(x: np.ndarray, a_pos: np.ndarray, numerator_sq) -> np.ndarray:
    """numerator(x)^2 / a(x) at the nodes x, given ``a_pos`` = a at the nodes
    x > 0, with the limiting value 0 at x = 0."""
    out = np.zeros(x.size)
    pos = x > 0.0
    out[pos] = numerator_sq(x[pos]) / a_pos
    return out


def _damping_weights(w: CarlemanWeights, theta: np.ndarray, s: float):
    """e^{-2 s phi} on (interior time, node) and (interior time, face) pairs.

    Both arrays are divided by their common maximum, taken in log space, so
    they stay representable where the raw weight underflows. Raises
    ValueError when an exponent 2 s theta eta would overflow.
    """
    # eta > 0, so every product below lies in [-max(1, 2 s) * peak, 0]
    peak = float(theta.max()) * max(float(w.eta_nodes.max()), float(w.eta_faces.max()))
    if not math.isfinite(max(1.0, 2.0 * s) * peak):
        raise ValueError(f"the weight exponent 2 s theta eta overflows at s = {s:g} "
                         f"with c1 = {w.c1:g}, lambda = {w.lam:g}")
    L_nodes = -2.0 * s * np.outer(theta, w.eta_nodes)
    L_faces = -2.0 * s * np.outer(theta, w.eta_faces)
    Lmax = max(float(L_nodes.max()), float(L_faces.max()))
    return np.exp(L_nodes - Lmax), np.exp(L_faces - Lmax)


def _admissible_s(s) -> bool:
    """s > 0 with s^3, the highest power of s the functionals take, finite."""
    try:
        return s > 0.0 and math.isfinite(s ** 3)
    except OverflowError:
        return False


def carleman_functionals(p: LinearProblem, w: CarlemanWeights, v: Trajectory,
                         src, s: float, variant: str = "lemma"):
    """Left-hand side and right-hand side of one audited estimate.

    variant "lemma": lhs = weighted energy over Q, rhs = weighted F^2 over Q
    plus the observation term; ``src`` is an (M+1, N) field or None.
    variant "theorem": the same lhs, rhs = observation term plus
    F0^2 + s^2 theta^3 (beta^2/a) F1^2; ``src`` is a SourceSplit or None.
    variant "cacciopoli": lhs = weighted v_x^2 over omega' x (0, T), rhs and
    ``src`` as for the lemma. Both sides share one log-space weight
    normalization, so their ratio is exact while the absolute scale is that
    of the largest weight. ``w`` must be built on ``p.grid``.
    """
    if variant not in ("lemma", "theorem", "cacciopoli"):
        raise ValueError(f"unknown variant {variant!r}")
    if not _admissible_s(s):
        raise ValueError(f"Carleman parameter s must be positive with s^3 finite, got {s}")
    grid = p.grid
    if w.grid is not grid:
        raise ValueError("Carleman weights were built on another grid than p.grid")
    if not np.all(np.isfinite(v.states)):
        raise NonFiniteIntegral("trajectory contains non-finite values")

    theta = np.asarray(w.theta(p.times[1:-1]), dtype=float)
    Wn, Wf = _damping_weights(w, theta, s)

    V = v.states[1:-1]
    dV = np.diff(V, axis=1) / grid.spacings
    wq = grid.weights
    dt = p.dt

    def total(integrand, weight, time_factor=1.0):
        """sum over t of time_factor(t) * sum over x of integrand * weight."""
        return float(np.sum(time_factor * np.sum(integrand * weight, axis=1)))

    if variant == "cacciopoli":
        ap, bp = w.omega_prime
        prime_mask = ((grid.faces > ap) & (grid.faces < bp)) * grid.spacings
        lhs = dt * total(prime_mask * dV * dV, Wf)
    else:
        grad = s * total(w.a_faces_h * dV * dV, Wf, theta)
        zero = s ** 3 * total(wq * w.xx_over_a * V * V, Wn, theta ** 3)
        lhs = dt * (grad + zero)

    obs = dt * total(wq * p.omega_mask() * V * V, Wn)

    if variant != "theorem":
        if src is None:
            src_term = 0.0
        else:
            F = np.asarray(src, dtype=float)[1:-1]
            if not np.all(np.isfinite(F)):
                raise NonFiniteIntegral("source field contains non-finite values")
            src_term = dt * total(wq * F * F, Wn)
        rhs = src_term + obs
    elif src is None:
        rhs = obs
    else:
        F0 = np.asarray(src.F0, dtype=float)[1:-1]
        F1 = np.asarray(src.F1, dtype=float)[1:-1]
        if not (np.all(np.isfinite(F0)) and np.all(np.isfinite(F1))):
            raise NonFiniteIntegral("source fields contain non-finite values")
        bb_over_a = _degenerate_ratio(grid.nodes, w.a_pos,
                                      lambda x: np.asarray(p.drift.beta(x)) ** 2)
        t0 = dt * total(wq * F0 * F0, Wn)
        t1 = s ** 2 * dt * total(wq * bb_over_a * F1 * F1, Wn, theta ** 3)
        rhs = obs + t0 + t1

    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NonFiniteIntegral("weighted integral evaluated non-finite")
    return float(lhs), float(rhs)


# -- random solution ensembles and the ratio experiment -------------------------

def random_smooth_field(rng: np.random.Generator, case: Case):
    """Random expansion in the ``FIELD_MODES`` lowest modes compatible with
    the boundary conditions.

    Weak case: sine modes (zero at both ends). Strong case: shifted cosine
    modes with zero slope at 0 and zero value at 1. Returning a continuum
    function (not nodal noise) keeps refinement studies comparable across
    grids.
    """
    coeffs = rng.standard_normal(FIELD_MODES) / np.arange(1, FIELD_MODES + 1)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, ck in enumerate(coeffs, start=1):
            if case is Case.SDP:
                out += ck * np.cos((k - 0.5) * np.pi * x)
            else:
                out += ck * np.sin(k * np.pi * x)
        return out

    return f


def random_space_time_field(rng: np.random.Generator, case: Case, T: float):
    spatial = random_smooth_field(rng, case)
    j = int(rng.integers(1, 3))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))

    def f(x, t):
        return spatial(x) * (1.0 + 0.5 * np.sin(2.0 * np.pi * j * t / T + phase))

    return f


def _sample_field(fun, grid: GridSpec, times: np.ndarray) -> np.ndarray:
    """fun on the (time, node) grid, from one call broadcasting times against nodes."""
    return np.asarray(fun(grid.nodes, times[:, None]), dtype=float)


@dataclass
class AuditResult:
    variant: str
    s_values: list
    max_ratios: list
    median_ratios: list
    n_samples: int
    s0: float
    plateaued: bool

    def rows(self):
        for s, mx, md in zip(self.s_values, self.max_ratios, self.median_ratios):
            yield (s, self.variant, mx, md, self.n_samples)


def calibrate_s0(s_values, max_ratios):
    """Smallest s from which the max-ratio curve stays flat per doubling,
    that is, changes by at most ``PLATEAU_REL`` relative per step.

    Returns (s0, plateaued). Without a plateau the last s is reported and
    flagged.
    """
    s_values = list(s_values)
    r = list(max_ratios)
    for k in range(len(r) - 1):
        if all(abs(r[j + 1] - r[j]) <= PLATEAU_REL * abs(r[j]) for j in range(k, len(r) - 1)):
            return float(s_values[k]), True
    return float(s_values[-1]), False


def ratio_experiment(p: LinearProblem, w: CarlemanWeights, s_values,
                     n_samples: int, variant: str = "lemma",
                     rng: np.random.Generator | None = None) -> AuditResult:
    """Ratios lhs/rhs over an ensemble of random solutions, per Carleman parameter.

    Every variant draws random smooth terminal data and random smooth sources
    (F for the lemma and Caccioppoli forms, (F0, F1) for the theorem form)
    and solves the backward equation they drive. Source-free ensembles leave
    only the observation term on the right-hand side, whose discrete maximum
    ratio is not stable under refinement; the audited inequalities are stated
    for the source-driven solution class anyway. Raises ValueError unless
    ``s_values`` is a non-empty list of s > 0 with s^3 finite and
    n_samples >= 1, and ``NonFiniteIntegral`` when a sample's weighted
    right-hand side underflows to 0, where the ratio is undefined.
    """
    s_values = [float(s) for s in s_values]
    if not (s_values and all(map(_admissible_s, s_values))):
        raise ValueError(f"need a non-empty ladder of s > 0 with s^3 finite, got {s_values}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(0) if rng is None else rng
    p0 = p.with_drift(zero_drift())
    ratios = np.zeros((n_samples, len(s_values)))
    for i in range(n_samples):
        vT = random_smooth_field(rng, p.case)(p.grid.nodes)
        if variant == "theorem":
            F0 = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
            F1 = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
            src = SourceSplit(F0=F0, F1=F1)
            v = solve_terminal_source(
                p0, vT, F0 + beta_divergence(p.grid, p.drift.beta, F1, p.case))
        else:
            src = _sample_field(random_space_time_field(rng, p.case, p.T), p.grid, p.times)
            v = solve_terminal_source(p0, vT, src)
        for j, s in enumerate(s_values):
            lhs, rhs = carleman_functionals(p, w, v, src, s, variant)
            if not rhs > 0.0:
                raise NonFiniteIntegral(
                    f"weighted right-hand side underflowed to 0 at s = {s:g}; "
                    f"the ratio lhs/rhs = {lhs:.3g}/0 is undefined")
            ratios[i, j] = lhs / rhs
    max_r = [float(np.max(ratios[:, j])) for j in range(len(s_values))]
    med_r = [float(np.median(ratios[:, j])) for j in range(len(s_values))]
    s0, plateaued = calibrate_s0(s_values, max_r)
    return AuditResult(variant=variant, s_values=s_values, max_ratios=max_r,
                       median_ratios=med_r, n_samples=n_samples, s0=s0,
                       plateaued=plateaued)
