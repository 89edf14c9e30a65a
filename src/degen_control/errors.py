"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` and the process exit
status the CLI maps it to: 2 for hypothesis/validation failures, 3 for
solver/runtime failures.
"""


class DegenControlError(Exception):
    code = "ERROR"
    exit_code = 3


# -- validation family (exit 2) ---------------------------------------------

class NonPositiveCoefficient(DegenControlError):
    """Diffusion coefficient is <= 0 at an interior sample."""
    code = "NONPOSITIVE_COEFFICIENT"
    exit_code = 2


class HypothesisViolated(DegenControlError):
    """No admissible slope constant K < 2 exists for the coefficient."""
    code = "HYPOTHESIS_VIOLATED"
    exit_code = 2


class EnvelopeUnbounded(DegenControlError):
    """|beta(x)/x| grows past the configured cap as x -> 0."""
    code = "ENVELOPE_UNBOUNDED"
    exit_code = 2


class BadResolution(DegenControlError):
    """Grid request below the minimum supported resolution, or with a grading
    exponent that is not finite and >= 1 or leaves a spacing h with 1/h^2 = inf."""
    code = "BAD_RESOLUTION"
    exit_code = 2


class WeightInvalid(DegenControlError):
    """Carleman weight construction violates its validity conditions."""
    code = "WEIGHT_INVALID"
    exit_code = 2


class UnboundedFrozenCoefficient(DegenControlError):
    """A frozen nonlinearity factor exceeded its declared cap."""
    code = "UNBOUNDED_FROZEN_COEFFICIENT"
    exit_code = 2


class ConfigError(DegenControlError):
    """Missing or ill-typed configuration key."""
    code = "CONFIG"
    exit_code = 2


# -- solver family (exit 3) --------------------------------------------------

class SolverBreakdown(DegenControlError):
    """Tridiagonal solve hit a singular system."""
    code = "SOLVER_BREAKDOWN"
    exit_code = 3


class DegenerateSample(DegenControlError):
    """A nonzero sample produced zero gradient energy (broken grid)."""
    code = "DEGENERATE_SAMPLE"
    exit_code = 3


class NonFiniteIntegral(DegenControlError):
    """A weighted integrand evaluated to a non-finite value."""
    code = "NONFINITE_INTEGRAL"
    exit_code = 3


class NoConvergence(DegenControlError):
    """Conjugate gradient exhausted its iteration budget."""
    code = "NO_CONVERGENCE"
    exit_code = 3

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NotSPD(DegenControlError):
    """A CG direction produced nonpositive curvature beyond round-off."""
    code = "NOT_SPD"
    exit_code = 3


class NoFixedPoint(DegenControlError):
    """Fixed-point iteration hit its budget with growing increments."""
    code = "NO_FIXED_POINT"
    exit_code = 3
