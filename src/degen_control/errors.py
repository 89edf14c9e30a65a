"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` and the process exit
status the CLI maps it to: 2 for hypothesis/validation failures, 3 for
solver/runtime failures.
"""


class DegenControlError(Exception):
    code = "ERROR"
    exit_code = 3


# -- validation family (exit 2) ---------------------------------------------

class HypothesisViolated(DegenControlError):
    """No admissible slope constant K < 2 exists for the coefficient."""
    code = "HYPOTHESIS_VIOLATED"
    exit_code = 2


class EnvelopeUnbounded(DegenControlError):
    """C_beta = sup |beta(x)/x| exceeds its cap."""
    code = "ENVELOPE_UNBOUNDED"
    exit_code = 2


class BadResolution(DegenControlError):
    """Grid or step count outside the supported resolutions (8 to ``N_MAX``
    nodes, at most ``M_MAX`` steps), or a grading exponent that is not finite
    and >= 1 or leaves a spacing h with 1/h^2 = inf."""
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
    """A weighted stiffness (of ``mesh.hardy_check`` or the diffusion
    preconditioner) is not positive definite; no CLI input reaches it."""
    code = "DEGENERATE_SAMPLE"
    exit_code = 3


class NonFiniteIntegral(DegenControlError):
    """A weighted integrand evaluated to a non-finite value."""
    code = "NONFINITE_INTEGRAL"
    exit_code = 3


class NoConvergence(DegenControlError):
    """CG exhausted its budget, or a control failed its optimality-gap check."""
    code = "NO_CONVERGENCE"
    exit_code = 3

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NotSPD(DegenControlError):
    """Not positive definite beyond round-off: a CG direction's curvature,
    the preconditioner's Gramian plus the penalty (its Cholesky factor), or
    a ``sweep`` Gramian at the ladder's smallest penalty."""
    code = "NOT_SPD"
    exit_code = 3


class OutOfMemory(DegenControlError):
    """An array could not be allocated; the CLI maps ``MemoryError`` to it,
    keeping numpy's size and shape and naming the config's grid.N and M."""
    code = "OUT_OF_MEMORY"
    exit_code = 3


class NoFixedPoint(DegenControlError):
    """Fixed-point iteration hit its budget with growing increments."""
    code = "NO_FIXED_POINT"
    exit_code = 3
