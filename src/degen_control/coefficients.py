"""Degenerate diffusion coefficients, drift envelopes, and hypothesis checks.

A coefficient a(x) >= 0 on [0,1] with a(0) = 0 is classified by the smallest
constant K with x a'(x) <= K a(x): K < 1 is the weakly degenerate case (WDP,
Dirichlet condition at x = 0), 1 <= K < 2 the strongly degenerate case (SDP,
weighted Neumann condition (a y_x)(0) = 0). The strong case additionally
requires a sigma with a(x)/x^sigma nondecreasing near 0. The drift envelope
beta(x) must keep beta(x)/x bounded, which in turn bounds beta^2/a by the
constant pattern C^2 x^2 / a(x) <= C^2 / a(1).

Both constants are extremes of the log-slope s(x) = x a'(x)/a(x): K is its
supremum on (0, 1] (at least 0) and sigma its infimum on (0, 0.1], the
largest exponent with a/x^sigma nondecreasing there. Each constructor works
them out once from its formula, so they are exact: K = sigma = alpha for
x^alpha, K = sigma = 0 for the classical coefficient, and for a table the
extremes of its s, where below its first knot x1 a table is a power law.
Every constructor builds an a that is positive on (0, 1].

Each coefficient also carries the primitive P(x) = int_0^x tau/a(tau) dtau
of the degenerate Carleman profile, from the same formula: x^(2-alpha)/(2-alpha)
for x^alpha, x^2/2 for the classical coefficient, and for a table
x^2/((2 - s(x1)) a) below x1 and Gauss-Legendre panels in log tau above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import HypothesisViolated

TOL_HYP = 1e-10
BETA_CAP = 1e6       # largest C_beta = |beta.scale| that ``validate`` accepts
GAUSS_POINTS = 16    # Gauss-Legendre points per panel of a table's primitive
GAUSS_PANEL = 0.5    # longest panel in t = log x between a table's knots


class Case(str, Enum):
    WDP = "WDP"
    SDP = "SDP"


@dataclass(frozen=True)
class DegeneracyCoefficient:
    """Diffusion coefficient with its degeneracy data.

    ``eval`` is a vectorized callable and ``primitive`` the vectorized
    P(x) = int_0^x tau/a(tau) dtau on x >= 0. ``K`` is the supremum of the
    log-slope x a'/a on (0, 1] (at least 0) and ``sigma`` its infimum on
    (0, 0.1], all exact from the constructor's formula; ``case`` is the
    boundary-condition tag.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    K: float
    sigma: float
    case: Case
    label: str = ""


@dataclass(frozen=True)
class DriftEnvelope:
    """First/zero-order coefficient data for the linear equation.

    ``b`` multiplies the state and ``beta(x) * c`` its gradient. Each of b
    and c is a number or an (N,) vector on the grid nodes, constant in time,
    so the problem has one step matrix. A b or c that varies in time is a
    factor of (x, t) frozen by ``semilinear.FrozenDrift``, which offers the
    same beta, time_dependent and check_shape.
    """

    beta: Callable[[np.ndarray], np.ndarray]
    b: float | np.ndarray
    c: float | np.ndarray

    time_dependent = False

    def check_shape(self, M: int, N: int) -> None:
        """ValueError unless b and c are each a number or an (N,) vector."""
        for name, f in (("b", self.b), ("c", self.c)):
            if np.shape(f) not in ((), (N,)):
                raise ValueError(f"drift {name} must be a number or an (N,) = ({N},) "
                                 f"vector, got {np.shape(f)}")


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
    """a(x) = x^alpha, whose log-slope is alpha: K = sigma = alpha, and
    P(x) = x^(2-alpha)/(2-alpha), infinite for alpha >= 2."""
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")

    def f(x):
        return np.asarray(x, dtype=float) ** alpha

    def primitive(x):
        x = np.asarray(x, dtype=float)
        if alpha >= 2.0:
            return np.where(x > 0.0, np.inf, 0.0)
        return x ** (2.0 - alpha) / (2.0 - alpha)

    case = Case.WDP if alpha < 1.0 else Case.SDP
    return DegeneracyCoefficient(f, primitive, K=alpha, sigma=alpha, case=case,
                                 label=f"power({alpha:g})")


def classical_coefficient() -> DegeneracyCoefficient:
    """Non-degenerate a(x) = 1 (classical heat operator, Dirichlet ends).

    Does not satisfy a(0) = 0; kept outside the hypothesis gate as the
    reference case for oracles and regressions.
    """
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    half_square = lambda x: 0.5 * np.asarray(x, dtype=float) ** 2
    return DegeneracyCoefficient(one, half_square, K=0.0, sigma=0.0, case=Case.WDP,
                                 label="classical")


def tabular_coefficient(xs, values, case: Case | None = None) -> DegeneracyCoefficient:
    """Coefficient from a strictly increasing (x, a(x)) table starting at (0, 0).

    Interpolation is monotone (PCHIP) in log-log coordinates, so power-law
    behavior near the degeneracy point is reproduced exactly and the log-slope
    s = x a'/a is the derivative of the interpolant, a quadratic in log x on
    each piece. Below the first positive abscissa x1 = xs[1] the table is the
    power law a(x1) (x/x1)^s1, s1 = s(x1), C^1 in log-log at x1, so K and
    sigma, the extremes of s at x1, the window's end, the knots and the
    vertices, are exact on (0, 1] and (0, 0.1]. ``case`` defaults to the one
    K admits; K >= 2 raises ``HypothesisViolated``.

    Below x1, P = x^2/((2 - s1) a), finite since s1 <= K < 2. Above, P is
    integrated in t = log tau, where tau/a dtau = e^(2t - log a) dt is smooth
    on each piece, with ``GAUSS_POINTS``-point Gauss-Legendre panels at most
    ``GAUSS_PANEL`` long in t: once per piece for P at the knots, one
    cumulative sum from P(x1), then once more from the knot below each x.
    """
    from numpy.polynomial.legendre import leggauss
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 4:
        raise ValueError("table needs matching 1-D columns with >= 4 rows")
    for name, column in (("x", xs), ("a", values)):
        if not np.all(np.isfinite(column)):
            raise ValueError(f"table {name} column must be finite")
    if xs[0] != 0.0 or values[0] != 0.0:
        raise ValueError("first table row must be x = 0 with a = 0")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table x column must be strictly increasing")
    if np.any(values[1:] <= 0.0):
        raise ValueError("table values must be positive away from x = 0")
    logp = PchipInterpolator(np.log(xs[1:]), np.log(values[1:]), extrapolate=True)
    slope = logp.derivative()           # s as a function of t = log x
    knots = slope.x
    t1, s1 = knots[0], float(slope(knots[0]))

    def log_a(t):
        return logp(np.maximum(t, t1)) + s1 * np.minimum(t - t1, 0.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = np.exp(log_a(np.log(x[pos])))
        return out

    # roots() is nan on a piece where s' is 0 (a power law); the range test
    # drops it, as it drops the vertices outside the window
    t = np.concatenate([knots, slope.derivative().roots(), [0.0, np.log(0.1)]])
    K = max(0.0, float(np.max(slope(t[(t >= t1) & (t <= max(t1, 0.0))]))))
    sigma = float(np.min(slope(t[(t >= t1) & (t <= max(t1, np.log(0.1)))])))
    admissible = _case_of(K)

    nodes, wts = leggauss(GAUSS_POINTS)
    per_piece = max(1, int(np.ceil(np.max(np.diff(knots)) / GAUSS_PANEL)))

    def gauss(lo, hi, panels):
        """int_lo^hi e^(2t - log a) dt per entry of (lo, hi), in equal panels."""
        edges = lo[:, None] + (hi - lo)[:, None] * (np.arange(panels + 1) / panels)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        t = edges[:, :-1, None] + half * (1.0 + nodes)
        return np.sum(half * wts * np.exp(2.0 * t - logp(t)), axis=(1, 2))

    def below_first(t):
        return np.exp(2.0 * t - log_a(t)) / (2.0 - s1)

    at_knots = np.cumsum(np.r_[below_first(knots[:1]),
                               gauss(knots[:-1], knots[1:], per_piece)])

    def primitive(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0.0
        t = np.log(x[pos])
        piece = np.searchsorted(knots, t, side="right") - 1
        first = piece < 0
        k = piece[~first]
        vals = np.empty(t.shape)
        vals[first] = below_first(t[first])
        vals[~first] = at_knots[k] + gauss(knots[k], t[~first], per_piece)
        out[pos] = vals
        return out

    return DegeneracyCoefficient(f, primitive, K=K, sigma=sigma, case=case or admissible,
                                 label="table")


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

def _case_of(K: float) -> Case:
    """The case that slope constant K admits; none admits K >= 2."""
    if K >= 2.0 - TOL_HYP:
        raise HypothesisViolated(f"smallest admissible K is {K:.12g}, outside [0, 2)")
    return Case.WDP if K < 1.0 else Case.SDP


def validate_coefficient(a: DegeneracyCoefficient, case: Case) -> ValidationReport:
    """Report the hypotheses for ``case`` from the coefficient's exact K and sigma.

    Returns the case that K admits and, for SDP, sigma. The clause
    ``sigma_monotone`` is the strong-degeneracy hypothesis of Cannarsa,
    Martinez & Vancostenoble (SIAM J. Control Optim. 47, 2008): for K > 1,
    some theta in (1, K] makes a/x^theta nondecreasing near 0, that is
    sigma > 1, since sigma <= K; for K <= 1 it asks nothing. Raises
    ``HypothesisViolated`` if K >= 2.
    """
    case = Case(case)
    admissible = _case_of(a.K)
    a1 = float(a.eval(np.array([1.0]))[0])
    a0 = float(a.eval(np.array([0.0]))[0])
    vanishes = abs(a0) <= TOL_HYP * max(abs(a1), 1.0)

    sigma = a.sigma if case is Case.SDP and admissible is Case.SDP else None
    clauses = {"vanishes_at_zero": bool(vanishes), "case_match": admissible is case}
    if case is Case.SDP:
        clauses["sigma_monotone"] = a.K <= 1.0 or a.sigma > 1.0
    passed = all(clauses.values())
    return ValidationReport(K=a.K, case_admissible=admissible, sigma=sigma,
                            clauses=clauses, passed=passed)
