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

psi_deg's integral is the coefficient's own primitive ``a.primitive``, worked
out once by its constructor: a closed form for power laws and the classical
coefficient, one vectorised Gauss-Legendre pass for a table. The weights derive
their geometry from omega, run psi_deg once over the grid's nodes and faces,
sample there everything the audit reads that depends only on the grid and the
weights, and check their validity on the same points.

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

obs carries no s^3 theta^3, unlike that of Cannarsa, Martinez & Vancostenoble
(SIAM J. Control Optim. 47, 2008); where s theta >= 1, at every t once
s >= (T^2/4)^4, this shrinks the rhs, so the audited form is the stronger one.

The ensemble is drawn as arrays on the problem's nodes and times. A smooth
field sums the ``FIELD_MODES`` lowest modes meeting the boundary conditions,
sin(k pi x) (weak case) or cos((k - 1/2) pi x) (strong), with coefficients
``standard_normal(FIELD_MODES) / k``: a function of x, not nodal noise, so
refinement studies compare like with like. A sample draws vT, a smooth field,
then each source in turn (F, or F0 before F1), a smooth field times
1 + sin(2 pi j t / T + phase) / 2 with j = ``integers(1, 3)`` and then
phase = ``uniform(0, 2 pi)`` drawn after its coefficients. v solves the
backward equation from vT on the drift-free problem, built once.

Each side is a short list of terms (k, nodes or faces, integrand) worth
s^k dt sum_{t, x} integrand e^{-2 s phi} over the interior time levels, with
v_x the difference quotient on the faces. A term's integrand is a sample
quadratic (v^2, v_x^2, F^2, F0^2 or F1^2) times a coefficient table: the
term's time factor (1, theta or theta^3) times its space factor, which
carries the trapezoid weights w at the nodes and the spacings h on the faces
(w x^2/a, a h, w 1_omega, w or 1_omega' h). The tables depend only on the
weights and M, so they are built once per M per weights object and cached
there; the theorem's beta^2/a, which the weights do not record, multiplies
F1^2 per call. One call forms each integrand once, and each term is then one
dot product with the damping weight per s of the ladder; the source and the
observation terms share s^0 and the nodes, so they form one integrand.

e^{-2 s phi} underflows catastrophically at desk scale, so every integral
here is computed in log space with the weight normalized by its maximum over
the space-time grid; both sides share one normalization per s, leaving all
ratios unchanged. The normalised weight depends only on the weights, M and s,
so it is formed once per (M, s) per weights object and cached there; the
weights record a and omega, and the functionals refuse a problem built with
another coefficient, control region, grid or horizon. A side that still
underflows to 0 while its integrands are not all zero has no ratio, and is an
error; so is a horizon where theta or theta^3 is 0 or inf (``_interior_theta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import Case, DegeneracyCoefficient, zero_drift
from .errors import HypothesisViolated, NonFiniteIntegral, WeightInvalid
from .mesh import GridSpec, face_diffusivity
from .pde import LinearProblem, _finite, march

FIELD_MODES = 6      # modes of every random smooth field
PLATEAU_REL = 0.05   # per-step relative change that counts as a plateau


@dataclass(frozen=True)
class CarlemanWeights:
    """Blended weight profiles, their parameters, the geometry they derive from
    omega (kappa+-, omega' = (a', b') and the bump's peak) and what the audit
    needs of them on ``grid``: eta at the nodes and faces, from one
    ``a.primitive`` call, a times the face spacings, and 1/a and x^2/a at the
    nodes (both 0 at x = 0). Raises ``WeightInvalid`` unless omega' holds a
    face and (kappa+, w2) a node or face, eta' = psi_cls' != 0 at those and
    rho' != 0 at the nodes and faces off [a', b'], all before psi_deg, and
    psi_deg(1) > 0 (psi_deg decreases, as tau/a >= 0). ``_damping`` caches
    the normalised e^{-2 s phi} of ``_damping_weights`` per (M, s), and
    ``_tables`` the coefficient tables of ``_term_tables`` per M."""

    a: DegeneracyCoefficient
    omega: tuple
    T: float
    c1: float
    c2: float
    lam: float
    grid: GridSpec = field(repr=False)
    kappa_minus: float = field(init=False)
    kappa_plus: float = field(init=False)
    omega_prime: tuple = field(init=False)
    rho_peak: float = field(init=False)
    eta_nodes: np.ndarray = field(init=False, repr=False)
    eta_faces: np.ndarray = field(init=False, repr=False)
    a_faces_h: np.ndarray = field(init=False, repr=False)   # a(faces) * spacings
    inv_a: np.ndarray = field(init=False, repr=False)       # 1/a at the nodes, 0 at x = 0
    xx_over_a: np.ndarray = field(init=False, repr=False)
    _damping: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _tables: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        w1, w2 = self.omega
        km, kp = (2.0 * w1 + w2) / 3.0, (w1 + 2.0 * w2) / 3.0
        ap, bp = km + 0.25 * (kp - km), kp - 0.25 * (kp - km)
        for name, value in (("kappa_minus", km), ("kappa_plus", kp),
                            ("omega_prime", (ap, bp)), ("rho_peak", 0.5 * (ap + bp))):
            object.__setattr__(self, name, value)
        grid = self.grid
        nodes, faces = grid.nodes, grid.faces
        pts = np.concatenate([nodes, faces])
        if not np.any((faces > ap) & (faces < bp)):
            raise WeightInvalid(f"omega' = ({ap:.6g}, {bp:.6g}) holds no grid face")
        region = pts[(pts > kp) & (pts < w2)]
        if not region.size:
            raise WeightInvalid(f"(kappa+, w2) = ({kp:.6g}, {w2:.6g}) holds no node or face")
        dp = np.abs(self.psi_cls_prime(region))
        if np.any(dp <= 1e-12 * np.max(dp, initial=1.0)):
            raise WeightInvalid("eta' vanishes at a grid point of (kappa+, w2)")
        off = ((pts > 0.0) & (pts < ap)) | ((pts > bp) & (pts < 1.0))
        dr = np.abs(self.rho_prime(pts[off]))
        if np.any(dr <= 1e-12 * np.max(dr, initial=1.0)):
            raise WeightInvalid("rho' vanishes outside the interior bump interval")
        psi = self.psi_deg(pts)
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

    def psi_deg(self, x):
        """c1 (c2 - int_0^x tau/a), with the integral from ``a.primitive``
        (0 for x <= 0)."""
        out = self.c1 * (self.c2 - self.a.primitive(np.maximum(x, 0.0)))
        return out if np.ndim(x) else float(out)

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


def build_weights(a: DegeneracyCoefficient, omega: tuple, T: float,
                  c1: float = 1.0, lam: float = 2.0, *, grid: GridSpec) -> CarlemanWeights:
    """Construct and validate the blended weight for a control region with w1 > 0.

    ``c2`` is 1.05 times the positivity threshold 1/(a(1)(2-K)).
    Raises ``HypothesisViolated`` unless K < 2, before any weight, then
    ``ValueError`` on an omega, T, c1 or lambda out of range; the weights raise
    ``WeightInvalid`` (see ``CarlemanWeights``).
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
    return CarlemanWeights(a=a, omega=tuple(omega), T=float(T), c1=float(c1),
                           c2=1.05 * c2_threshold(a), lam=float(lam), grid=grid)


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


def _interior_theta(p: LinearProblem, w: CarlemanWeights) -> np.ndarray:
    """theta on the interior time levels of ``p``; ValueError, unwarned, where
    theta^3 (the highest power the tables form), and so theta, is 0 or inf."""
    with np.errstate(all="ignore"):
        theta = np.asarray(w.theta(p.times[1:-1]), dtype=float)
        cube = theta ** 3
    if not np.all((cube > 0.0) & (cube < np.inf)):
        raise ValueError(f"the Carleman weight's theta = (t(T-t))^-4 or theta^3 is 0 "
                         f"or not finite at T = {p.T:g}, M = {p.M}")
    return theta


def _term_tables(p: LinearProblem, w: CarlemanWeights) -> dict:
    """theta on the interior time levels of ``p`` and the coefficient table of
    every term the functionals sum: its time factor (1, theta or theta^3)
    times its space factor, which carries the quadrature weights (w at the
    nodes, the spacings h on the faces). A table whose time factor is 1 is its
    space factor alone. ``w`` must be tied to ``p`` (grid, T, a and omega), so
    the tables depend on the weights and M only; none depends on the drift."""
    g = w.grid
    theta = _interior_theta(p, w)
    theta3 = theta[:, None] ** 3
    ap, bp = w.omega_prime
    return {"theta": theta,
            "a_vx2": theta[:, None] * w.a_faces_h,        # s theta a v_x^2
            "xx_v2": theta3 * (g.weights * w.xx_over_a),   # s^3 theta^3 (x^2/a) v^2
            "bb_F12": theta3 * g.weights,                  # s^2 theta^3 (beta^2/a) F1^2
            "obs_v2": g.weights * p.omega_mask(),          # v^2 on omega
            "prime_vx2": ((g.faces > ap) & (g.faces < bp)) * g.spacings}   # v_x^2 on omega'


def carleman_functionals(p: LinearProblem, w: CarlemanWeights, v: np.ndarray,
                         src, s_values, variant: str = "lemma"):
    """(lhs, rhs) of one audited estimate, as two arrays over ``s_values``.

    ``v`` is the (M+1, N) solution at ``p.times`` and ``src`` the (M+1, N)
    source F, or a SourceSplit for "theorem"; other shapes are a ValueError,
    as they would broadcast against the tables. Each term of a side (see the
    module docstring) is a sample quadratic times a coefficient table of
    ``_term_tables``, with v^2 and v_x^2 formed once and shared, and is one
    dot product with the damping weight per s. ``w`` must be built for
    ``p.a``, ``p.omega`` and ``p.T`` on ``p.grid``, which makes M a key of its
    tables and (M, s) one of its damping weights. Raises ``NonFiniteIntegral``
    when an input or a side is non-finite, or when a side with a nonzero
    integrand underflows to 0, where the ratio is undefined.
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
    fields = [np.asarray(f, dtype=float) for f in fields]
    shape = (p.M + 1, grid.N)
    if any(np.shape(f) != shape for f in (v, *fields)):
        raise ValueError(f"trajectory and source must be {shape} arrays at p.times, "
                         f"got {[np.shape(f) for f in (v, *fields)]}")
    if not all(np.all(np.isfinite(f)) for f in (v, *fields)):
        raise NonFiniteIntegral("trajectory or source contains non-finite values")
    fields = [f[1:-1] for f in fields]

    tables = w._tables.get(p.M)
    if tables is None:
        tables = w._tables[p.M] = _term_tables(p, w)
    V = v[1:-1]
    V2 = V * V
    dV = np.diff(V, axis=1) / grid.spacings
    dV2 = dV * dV
    if variant == "cacciopoli":
        lhs = [(0, "faces", dV2 * tables["prime_vx2"])]
    else:
        lhs = [(1, "faces", dV2 * tables["a_vx2"]), (3, "nodes", V2 * tables["xx_v2"])]
    F = fields[0]
    rhs = [(0, "nodes", F * F * grid.weights + V2 * tables["obs_v2"])]
    if variant == "theorem":
        F1 = fields[1]
        bb_over_a = np.asarray(p.drift.beta(grid.nodes), dtype=float) ** 2 * w.inv_a
        rhs.append((2, "nodes", F1 * F1 * bb_over_a * tables["bb_F12"]))

    sides = (("left-hand side", lhs), ("right-hand side", rhs))
    out = np.zeros((2, len(s_values)))
    for j, s in enumerate(s_values):
        key = (p.M, s)
        if key not in w._damping:
            w._damping[key] = _damping_weights(w, tables["theta"], s)
        W = dict(zip(("nodes", "faces"), w._damping[key]))
        for i, (side, terms) in enumerate(sides):
            out[i, j] = sum(s ** k * p.dt * float(np.vdot(W[at], I)) for k, at, I in terms)
            if not math.isfinite(out[i, j]):
                raise NonFiniteIntegral(f"weighted {side} evaluated non-finite at s = {s:g}")
            if out[i, j] == 0.0 and any(np.any(I) for _, _, I in terms):
                raise NonFiniteIntegral(f"weighted {side} underflowed to 0 at "
                                        f"s = {s:g}; the ratio lhs/rhs is undefined")
    return out[0], out[1]


# -- random solution ensembles and the ratio experiment -------------------------

def _draw_sample(p0: LinearProblem, rng: np.random.Generator, beta=None):
    """One sample of the ensemble (module docstring) as (v, src) at ``p0``'s
    nodes and times: src is F, or with ``beta`` the theorem's SourceSplit with
    F = F0 + (beta F1)_x. ``p0`` is marched as given, so the caller passes the
    drift-free problem; an overflowing state raises ``NonFiniteIntegral``."""
    x, case = p0.grid.nodes, p0.a.case

    def smooth():
        coeffs = rng.standard_normal(FIELD_MODES) / np.arange(1, FIELD_MODES + 1)
        return sum(ck * (np.cos((k - 0.5) * np.pi * x) if case is Case.SDP
                         else np.sin(k * np.pi * x)) for k, ck in enumerate(coeffs, start=1))

    def source():
        spatial = smooth()
        j = int(rng.integers(1, 3))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        t = p0.times[:, None]
        return spatial * (1.0 + 0.5 * np.sin(2.0 * np.pi * j * t / p0.T + phase))

    vT = smooth()
    if beta is None:
        src = F = source()
    else:
        src = SourceSplit(F0=source(), F1=source())
        F = src.F0 + beta_divergence(p0.grid, beta, src.F1, case)
    return _finite(march(p0, vT, -F[:-1], adjoint=True), True), src


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
    """Ratios lhs/rhs over ``n_samples`` draws of the ensemble, per Carleman
    parameter. Every draw carries sources (F, or F0 and F1 for the theorem):
    a source-free ensemble leaves only obs on the rhs, whose discrete maximum
    ratio is not stable under refinement. One ``carleman_functionals`` call per
    sample covers the ladder and raises where a side underflows to 0. Raises
    ValueError before any solve unless n_samples >= 1, the ladder increases
    strictly, as ``calibrate_s0`` reads, and T passes ``_interior_theta``.
    """
    s_values = [float(s) for s in s_values]
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not np.all(np.diff(s_values) > 0.0):
        raise ValueError(f"s values must be strictly increasing, got {s_values}")
    _interior_theta(p, w)
    p0 = p.with_drift(zero_drift())
    beta = p.drift.beta if variant == "theorem" else None
    ratios = np.zeros((n_samples, len(s_values)))
    for i in range(n_samples):
        v, src = _draw_sample(p0, rng, beta)
        lhs, rhs = carleman_functionals(p, w, v, src, s_values, variant)
        ratios[i] = lhs / rhs
    max_r = np.max(ratios, axis=0).tolist()
    med_r = np.median(ratios, axis=0).tolist()
    s0, plateaued = calibrate_s0(s_values, max_r)
    return AuditResult(variant=variant, s_values=s_values, max_ratios=max_r,
                       median_ratios=med_r, n_samples=n_samples, s0=s0,
                       plateaued=plateaued)
