"""Degenerate diffusion coefficients, drift envelopes, and hypothesis checks.

A coefficient a(x) >= 0 on [0,1] with a(0) = 0 is classified by the smallest
constant K with x a'(x) <= K a(x): K < 1 is the weakly degenerate case (WDP,
Dirichlet condition at x = 0), 1 <= K < 2 the strongly degenerate case (SDP,
weighted Neumann condition (a y_x)(0) = 0). The strong case additionally
requires a sigma with a(x)/x^sigma nondecreasing near 0. The drift envelope
beta(x) must keep beta(x)/x bounded, which in turn bounds beta^2/a by the
constant pattern C^2 x^2 / a(x) <= C^2 / a(1).

All hypothesis checks are sampling-based: the continuum statements are
verified on a finite sample set clustered geometrically toward the degeneracy
point, with relative tolerance ``TOL_HYP``. No certification between samples
is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import EnvelopeUnbounded, HypothesisViolated, NonPositiveCoefficient

TOL_HYP = 1e-10
BETA_CAP = 1e6       # largest |beta(x)/x| that validate_beta accepts near x = 0


class Case(str, Enum):
    WDP = "WDP"
    SDP = "SDP"


@dataclass(frozen=True)
class DegeneracyCoefficient:
    """Diffusion coefficient with its degeneracy data.

    ``eval`` and ``deriv`` are vectorized callables; ``deriv`` is only ever
    evaluated on (0, 1]. ``K`` is the slope constant and ``case`` the
    boundary-condition tag; the SDP monotonicity exponent sigma is measured
    by ``validate_coefficient``. ``sample_floor`` is the smallest x at which
    hypothesis checks may probe; tabular coefficients set it to their first
    positive abscissa because the interpolant knows nothing below that.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    K: float
    case: Case
    label: str = ""
    sample_floor: float = 1e-10


@dataclass(frozen=True)
class DriftEnvelope:
    """First/zero-order coefficient data for the linear equation.

    ``b`` multiplies the state and ``beta(x) * c`` its gradient. Each of b
    and c is a number or an (N,) vector on the grid nodes, constant in time,
    or an (M+1, N) table over the time nodes t_k = k T/M, whose row k+1
    serves the step to t_{k+1}. ``time_dependent`` reads the shapes: a table
    means one step matrix per time level.
    """

    beta: Callable[[np.ndarray], np.ndarray]
    b: float | np.ndarray
    c: float | np.ndarray

    @property
    def time_dependent(self) -> bool:
        return np.ndim(self.b) == 2 or np.ndim(self.c) == 2


@dataclass(frozen=True)
class ValidationReport:
    K: float
    case_admissible: Case
    sigma: float | None
    clauses: dict
    passed: bool

    def summary_lines(self):
        lines = [
            f"case = {self.case_admissible.value}",
            f"K = {self.K:.17g}",
        ]
        if self.sigma is not None:
            lines.append(f"sigma = {self.sigma:.17g}")
        lines.append(f"passed = {self.passed}")
        for name, ok in self.clauses.items():
            lines.append(f"clause {name} = {ok}")
        return lines


# -- constructors -------------------------------------------------------------

def power_coefficient(alpha: float) -> DegeneracyCoefficient:
    """a(x) = x^alpha with analytic derivative; K = alpha exactly."""
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")

    def f(x):
        return np.asarray(x, dtype=float) ** alpha

    def df(x):
        return alpha * np.asarray(x, dtype=float) ** (alpha - 1.0)

    case = Case.WDP if alpha < 1.0 else Case.SDP
    return DegeneracyCoefficient(f, df, K=alpha, case=case, label=f"power({alpha:g})")


def classical_coefficient() -> DegeneracyCoefficient:
    """Non-degenerate a(x) = 1 (classical heat operator, Dirichlet ends).

    Does not satisfy a(0) = 0; kept outside the hypothesis gate as the
    reference case for oracles and regressions.
    """
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return DegeneracyCoefficient(one, zero, K=0.0, case=Case.WDP, label="classical")


def tabular_coefficient(xs, values, case: Case | None = None) -> DegeneracyCoefficient:
    """Coefficient from a strictly increasing (x, a(x)) table starting at (0, 0).

    Interpolation is monotone (PCHIP) in log-log coordinates, so power-law
    behavior near the degeneracy point is reproduced exactly and the slope
    constant x a'/a is the log-log slope of the interpolant. The constants
    and case are measured on samples from the first tabulated abscissa up.
    """
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 4:
        raise ValueError("table needs matching 1-D columns with >= 4 rows")
    if xs[0] != 0.0 or values[0] != 0.0:
        raise ValueError("first table row must be x = 0 with a = 0")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table x column must be strictly increasing")
    if np.any(values[1:] <= 0.0):
        raise ValueError("table values must be positive away from x = 0")
    logp = PchipInterpolator(np.log(xs[1:]), np.log(values[1:]), extrapolate=True)
    dlogp = logp.derivative()

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = np.exp(logp(np.log(x[pos])))
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = f(x[pos]) * np.asarray(dlogp(np.log(x[pos]))) / x[pos]
        return out

    # the table says nothing below its first positive abscissa; measure the
    # constants from there up rather than trusting interpolant fill-in
    floor = float(xs[1])
    probe = DegeneracyCoefficient(f, df, K=0.0, case=case or Case.WDP,
                                  label="table", sample_floor=floor)
    report = validate_coefficient(probe, case=case or Case.WDP, n_samples=128)
    use_case = case or report.case_admissible
    return DegeneracyCoefficient(f, df, K=report.K, case=use_case, label="table",
                                 sample_floor=floor)


def load_tabular_coefficient(path, case: Case | None = None) -> DegeneracyCoefficient:
    data = np.loadtxt(path, delimiter=",", dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("coefficient table must have two comma-separated columns")
    return tabular_coefficient(data[:, 0], data[:, 1], case=case)


COEFFICIENT_CATALOG = {
    "sqrt": lambda: power_coefficient(0.5),
    "linear": lambda: power_coefficient(1.0),
    "x32": lambda: power_coefficient(1.5),
    "classical": classical_coefficient,
}


def linear_beta(scale: float = 1.0):
    scale = float(scale)
    if not np.isfinite(scale):
        raise ValueError(f"beta scale must be finite, got {scale}")

    def beta(x):
        return scale * np.asarray(x, dtype=float)

    return beta


def zero_beta(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def constant_drift(b0: float = 0.0, c0: float = 0.0, beta=None) -> DriftEnvelope:
    """Drift with constant zero/first-order coefficients and beta(x) = x by default."""
    beta = beta if beta is not None else linear_beta(1.0)
    b0, c0 = float(b0), float(c0)
    if not (np.isfinite(b0) and np.isfinite(c0)):
        raise ValueError(f"drift constants must be finite, got b0 = {b0}, c0 = {c0}")
    return DriftEnvelope(beta=beta, b=b0, c=c0)


def zero_drift() -> DriftEnvelope:
    return constant_drift(0.0, 0.0)


# -- hypothesis validation ----------------------------------------------------

def hypothesis_samples(n_samples: int, x_min: float = 1e-10) -> np.ndarray:
    """Sample set on (0, 1]: geometric toward the degeneracy point, uniform above 0.1."""
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    x_min = min(max(x_min, 1e-300), 0.05)
    n_geo = n_samples // 2
    geo = np.geomspace(x_min, 0.1, n_geo)
    uni = np.linspace(0.1, 1.0, n_samples - n_geo + 1)[1:]
    return np.concatenate([geo, uni])


def _sigma_search(a: DegeneracyCoefficient, K: float) -> float | None:
    """Largest exponent with a(x)/x^sigma nondecreasing on (0, 0.1]."""
    lo = min(max(1e-8, a.sample_floor), 0.05)
    near = np.geomspace(lo, 0.1, 64)
    vals = np.asarray(a.eval(near), dtype=float)
    if K > 1.0 + TOL_HYP:
        candidates = K - (K - 1.0) * np.linspace(0.0, 0.96, 13)
    else:
        candidates = np.linspace(0.95, 0.05, 13)
    for sigma in candidates:
        ratio = vals / near ** sigma
        if np.all(ratio[1:] >= ratio[:-1] * (1.0 - 1e-9)):
            return float(sigma)
    return None


def validate_coefficient(a: DegeneracyCoefficient, case: Case,
                         n_samples: int = 256) -> ValidationReport:
    """Check the degeneracy hypotheses on samples and measure the constants.

    Returns a report with the smallest K making x a'(x) <= K a(x) hold over
    the samples, the case that K admits, and (for SDP) the monotonicity
    exponent sigma. Raises ``NonPositiveCoefficient`` if a <= 0 at an interior
    sample and ``HypothesisViolated`` if no K < 2 works.
    """
    case = Case(case)
    xs = hypothesis_samples(n_samples, x_min=a.sample_floor)

    vals = np.asarray(a.eval(xs), dtype=float)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        bad = xs[np.argmin(vals)]
        raise NonPositiveCoefficient(f"a(x) <= 0 at interior sample x = {bad:.3e}")

    a1 = float(a.eval(np.array([1.0]))[0])
    a0 = float(a.eval(np.array([0.0]))[0])
    vanishes = abs(a0) <= TOL_HYP * max(abs(a1), 1.0)

    derivs = np.asarray(a.deriv(xs), dtype=float)
    ratios = xs * derivs / vals
    if not np.all(np.isfinite(ratios)):
        raise HypothesisViolated("x a'(x)/a(x) non-finite at a sample; no K < 2 works")
    K = float(max(0.0, np.max(ratios)))
    if K >= 2.0 - TOL_HYP:
        raise HypothesisViolated(
            f"smallest admissible K is {K:.12g}, outside [0, 2)")

    admissible = Case.WDP if K < 1.0 else Case.SDP
    case_match = admissible is case

    sigma = None
    sigma_ok = True
    if case is Case.SDP and admissible is Case.SDP:
        sigma = _sigma_search(a, K)
        sigma_ok = sigma is not None

    clauses = {
        "vanishes_at_zero": bool(vanishes),
        "positive_interior": True,
        "slope_bound": True,
        "case_match": bool(case_match),
    }
    if case is Case.SDP:
        clauses["sigma_monotone"] = bool(sigma_ok)
    passed = all(clauses.values())
    return ValidationReport(K=K, case_admissible=admissible, sigma=sigma,
                            clauses=clauses, passed=passed)


def validate_beta(beta, a: DegeneracyCoefficient, n_samples: int = 256) -> float:
    """sup over samples of |beta(x)/x|, guarding against blow-up at 0.

    Probes a geometric refinement of the sample floor toward x = 0; if the
    envelope exceeds ``BETA_CAP`` there, raises ``EnvelopeUnbounded``. Also checks
    the induced bound beta(x)^2 / a(x) <= C_beta^2 / a(1) at the samples.
    """
    xs = hypothesis_samples(n_samples, x_min=a.sample_floor)
    env = np.abs(np.asarray(beta(xs), dtype=float) / xs)
    if not np.all(np.isfinite(env)):
        raise EnvelopeUnbounded("beta(x)/x non-finite at a sample")
    c_beta = float(np.max(env))

    floor = float(np.min(xs))
    probes = np.geomspace(floor * 1e-6, floor, 16)
    probe_env = np.abs(np.asarray(beta(probes), dtype=float) / probes)
    worst = max(c_beta, float(np.max(probe_env))) if np.all(np.isfinite(probe_env)) else np.inf
    if worst > BETA_CAP:
        raise EnvelopeUnbounded(
            f"|beta(x)/x| reaches {worst:.3e} (> cap {BETA_CAP:.3e}) as x -> 0")

    a_vals = np.asarray(a.eval(xs), dtype=float)
    a1 = float(a.eval(np.array([1.0]))[0])
    lhs = np.asarray(beta(xs), dtype=float) ** 2 / a_vals
    if np.any(lhs > c_beta ** 2 / a1 * (1.0 + 1e-9) + TOL_HYP):
        raise HypothesisViolated(
            "beta^2/a exceeds C_beta^2/a(1) at a sample; coefficient violates "
            "x^2/a(x) <= 1/a(1)")
    return c_beta
