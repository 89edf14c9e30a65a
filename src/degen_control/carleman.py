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
sorted points, for every coefficient kind, with a relative tolerance only;
``scipy.integrate`` is imported at the first psi_deg call. The weights run it
once, over the grid's nodes and faces, and sample there everything the audit
reads that depends only on the grid and the weights. tau/a >= 0 makes psi_deg
decrease, so validity reads psi_deg at the last node, x = 1, and psi_cls'.

The audit checks three estimates for solutions v of the backward equation
v_t + (a v_x)_x = F (or = F0 + (beta F1)_x), each a ``variant`` of
``carleman_functionals`` and ``ratio_experiment``, with the observation term
obs = int_{omega x (0, T)} v^2 e^{-2 s phi}:

- "lemma": the weighted energy

      lhs = int_Q (s theta a v_x^2 + s^3 theta^3 (x^2/a) v^2) e^{-2 s phi}

  against rhs = int_Q F^2 e^{-2 s phi} + obs;
- "theorem": the same energy against
  rhs = obs + int_Q (F0^2 + s^2 theta^3 (beta^2/a) F1^2) e^{-2 s phi};
- "cacciopoli": the local Caccioppoli-type gradient energy
  lhs = int_{omega' x (0, T)} v_x^2 e^{-2 s phi}, against the lemma's rhs.

Each side is a short list of terms (k, integrand, nodes or faces, time
factor) worth s^k dt sum_t factor(t) sum_x integrand e^{-2 s phi} over the
interior time levels: node integrands carry the trapezoid weights, face
integrands the spacings, with v_x the difference quotient on the faces.
The integrands depend on the sample only, so one call forms them once and
sums them for every s of the ladder.

e^{-2 s phi} underflows catastrophically at desk scale, so every integral
here is computed in log space with the weight normalized by its maximum over
the space-time grid; both sides share one normalization per s, leaving all
ratios unchanged. The normalised weight depends only on the weights, M and s,
so it is formed once per (M, s) per weights object and cached there; the
weights record a and omega, and the functionals refuse a problem built with
another coefficient, control region, grid or horizon. A side that still
underflows to 0 while its integrands are not all zero has no ratio, and is an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import Case, DegeneracyCoefficient, zero_drift
from .errors import HypothesisViolated, NonFiniteIntegral, WeightInvalid
from .mesh import GridSpec, face_diffusivity
from .pde import LinearProblem, Trajectory, _trajectory

FIELD_MODES = 6      # modes of every random smooth field
PLATEAU_REL = 0.05   # per-step relative change that counts as a plateau


@dataclass(frozen=True)
class CarlemanWeights:
    """Blended weight profiles, their parameters, and what the audit needs of
    them on ``grid``: eta at the nodes and faces, from one cumulative ``quad``
    pass, a times the face spacings, and 1/a and x^2/a at the nodes (both 0
    at x = 0). Raises ``WeightInvalid`` if psi_deg(1) <= 0. ``_damping``
    caches the normalised e^{-2 s phi} of ``_damping_weights`` per (M, s)."""

    a: DegeneracyCoefficient
    omega: tuple
    T: float
    c1: float
    c2: float
    lam: float
    kappa_minus: float
    kappa_plus: float
    omega_prime: tuple
    rho_peak: float
    grid: GridSpec = field(repr=False)
    eta_nodes: np.ndarray = field(init=False, repr=False)
    eta_faces: np.ndarray = field(init=False, repr=False)
    a_faces_h: np.ndarray = field(init=False, repr=False)   # a(faces) * spacings
    inv_a: np.ndarray = field(init=False, repr=False)       # 1/a at the nodes, 0 at x = 0
    xx_over_a: np.ndarray = field(init=False, repr=False)
    _damping: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        grid = self.grid
        nodes, faces = grid.nodes, grid.faces
        psi = self.psi_deg(np.concatenate([nodes, faces]))
        if not psi[grid.N - 1] > 0.0:   # the last node is x = 1
            raise WeightInvalid(f"psi_deg <= 0 at x = 1; c2 = {self.c2:.6g} vs "
                                f"threshold {c2_threshold(self.a):.6g}")
        pos = nodes > 0.0
        inv_a = np.zeros(nodes.size)
        inv_a[pos] = 1.0 / np.asarray(self.a.eval(nodes[pos]), dtype=float)
        for name, value in (
                ("eta_nodes", self.eta(nodes, psi[:grid.N])),
                ("eta_faces", self.eta(faces, psi[grid.N:])),
                ("a_faces_h", face_diffusivity(grid, self.a) * grid.spacings),
                ("inv_a", inv_a), ("xx_over_a", nodes * nodes * inv_a)):
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
        gaps = [quad(self._x_over_a, lo, hi, epsabs=0.0, limit=200)[0]
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

    def eta_prime(self, x):
        xi = self.xi(x)
        dxi = self.xi_prime(x)
        return (self.psi_deg_prime(x) * xi + self.psi_deg(x) * dxi
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
    Raises ``HypothesisViolated`` unless K < 2, before any quadrature, and
    ``WeightInvalid`` unless psi_deg(1) > 0 (so psi_deg > 0 on [0, 1]; read by
    the weights from their grid pass), eta' = psi_cls' != 0 on (kappa+, w2)
    and rho' != 0 off (a', b') (both at the check points, in closed form).
    """
    if not a.K < 2.0:
        raise HypothesisViolated(f"Carleman weights need K < 2, got K = {a.K:g}")
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
    w = CarlemanWeights(a=a, omega=tuple(omega), T=float(T), c1=float(c1),
                        c2=float(c2), lam=float(lam), kappa_minus=km,
                        kappa_plus=kp, omega_prime=(ap, bp),
                        rho_peak=0.5 * (ap + bp), grid=grid)

    pts = _check_points(grid)
    region = (pts > kp) & (pts < w2)
    if np.any(region):
        dp = np.abs(w.psi_cls_prime(pts[region]))
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
                          F: np.ndarray) -> Trajectory:
    """Backward implicit-Euler solution of v_t + (a v_x)_x = F, v(T) = vT.

    Marches ``p`` as given, so the caller passes the drift-free problem
    ``p.with_drift(zero_drift())``; reusing one such problem reuses its step
    factors. The source F is required, with shape (M+1, N) sampled at the
    time nodes.
    """
    return _trajectory(p, vT, -np.asarray(F, dtype=float)[:-1], adjoint=True)


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
                         src, s_values, variant: str = "lemma"):
    """(lhs, rhs) of one audited estimate, as two arrays over ``s_values``.

    ``src`` is the (M+1, N) source F, or a SourceSplit for "theorem". The
    integrands of each side's terms (see the module docstring) are formed
    once and summed for every s; ``w`` must be built for ``p.a``, ``p.omega``
    and ``p.T`` on ``p.grid``, which makes (M, s) a key of its damping
    weights. Raises ``NonFiniteIntegral`` when an input or a side is
    non-finite, or when a side with a nonzero integrand underflows to 0, where
    the ratio is undefined.
    """
    if variant not in ("lemma", "theorem", "cacciopoli"):
        raise ValueError(f"unknown variant {variant!r}")
    s_values = [float(s) for s in s_values]
    if not (s_values and all(map(_admissible_s, s_values))):
        raise ValueError(f"need a non-empty ladder of s > 0 with s^3 finite, got {s_values}")
    grid = p.grid
    if w.grid is not grid:
        raise ValueError("Carleman weights were built on another grid than p.grid")
    if w.T != p.T:
        raise ValueError(f"Carleman weights were built for T = {w.T:g}, "
                         f"not for p.T = {p.T:g}")
    if w.a is not p.a:
        raise ValueError("Carleman weights were built for another coefficient than p.a")
    if w.omega != tuple(p.omega):
        raise ValueError(f"Carleman weights were built for omega = {w.omega}, "
                         f"not for p.omega = {tuple(p.omega)}")
    fields = (src.F0, src.F1) if variant == "theorem" else (src,)
    fields = [np.asarray(f, dtype=float)[1:-1] for f in fields]
    if not all(np.all(np.isfinite(f)) for f in (v.states, *fields)):
        raise NonFiniteIntegral("trajectory or source contains non-finite values")

    theta = np.asarray(w.theta(p.times[1:-1]), dtype=float)
    V = v.states[1:-1]
    dV = np.diff(V, axis=1) / grid.spacings
    wq = grid.weights
    if variant == "cacciopoli":
        ap, bp = w.omega_prime
        prime_mask = ((grid.faces > ap) & (grid.faces < bp)) * grid.spacings
        lhs = [(0, prime_mask * dV * dV, "faces", 1.0)]
    else:
        lhs = [(1, w.a_faces_h * dV * dV, "faces", theta),
               (3, wq * w.xx_over_a * V * V, "nodes", theta ** 3)]
    obs = (0, wq * p.omega_mask() * V * V, "nodes", 1.0)
    if variant == "theorem":
        F0, F1 = fields
        bb_over_a = np.asarray(p.drift.beta(grid.nodes), dtype=float) ** 2 * w.inv_a
        rhs = [obs, (0, wq * F0 * F0, "nodes", 1.0),
               (2, wq * bb_over_a * F1 * F1, "nodes", theta ** 3)]
    else:
        rhs = [(0, wq * fields[0] * fields[0], "nodes", 1.0), obs]

    sides = (("left-hand side", lhs), ("right-hand side", rhs))
    live = [any(np.any(term[1]) for term in terms) for _, terms in sides]
    out = np.zeros((2, len(s_values)))
    for j, s in enumerate(s_values):
        key = (p.M, s)
        if key not in w._damping:
            w._damping[key] = _damping_weights(w, theta, s)
        W = dict(zip(("nodes", "faces"), w._damping[key]))
        for i, (side, terms) in enumerate(sides):
            out[i, j] = sum(s ** k * p.dt * float(np.sum(tf * np.sum(I * W[at], axis=1)))
                            for k, I, at, tf in terms)
            if not math.isfinite(out[i, j]):
                raise NonFiniteIntegral(f"weighted {side} evaluated non-finite at s = {s:g}")
            if out[i, j] == 0.0 and live[i]:
                raise NonFiniteIntegral(f"weighted {side} underflowed to 0 at "
                                        f"s = {s:g}; the ratio lhs/rhs is undefined")
    return out[0], out[1]


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
                     n_samples: int, variant: str,
                     rng: np.random.Generator) -> AuditResult:
    """Ratios lhs/rhs over an ensemble of random solutions, per Carleman parameter.

    Every variant draws random smooth terminal data and random smooth sources
    (F for the lemma and Caccioppoli forms, (F0, F1) for the theorem form)
    and solves the backward equation they drive. Source-free ensembles leave
    only the observation term on the right-hand side, whose discrete maximum
    ratio is not stable under refinement; the audited inequalities are stated
    for the source-driven solution class anyway. One ``carleman_functionals``
    call per sample checks and covers the whole ladder, and raises where a
    side underflows to 0. Raises ValueError before any solve unless
    n_samples >= 1 and the ladder increases strictly, as ``calibrate_s0`` reads.
    """
    s_values = [float(s) for s in s_values]
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not np.all(np.diff(s_values) > 0.0):
        raise ValueError(f"s values must be strictly increasing, got {s_values}")
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
        lhs, rhs = carleman_functionals(p, w, v, src, s_values, variant)
        ratios[i] = lhs / rhs
    max_r = np.max(ratios, axis=0).tolist()
    med_r = np.median(ratios, axis=0).tolist()
    s0, plateaued = calibrate_s0(s_values, max_r)
    return AuditResult(variant=variant, s_values=s_values, max_ratios=max_r,
                       median_ratios=med_r, n_samples=n_samples, s0=s0,
                       plateaued=plateaued)
