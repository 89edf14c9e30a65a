"""Null-controllability toolbox for 1D degenerate parabolic equations."""

from .coefficients import (Case, DegeneracyCoefficient, DriftEnvelope,
                           classical_coefficient, constant_drift,
                           power_coefficient, tabular_coefficient,
                           validate_beta, validate_coefficient, zero_drift)
from .mesh import (GridSpec, TriDiagOperator, assemble_operator, build_grid,
                   hardy_check)
from .pde import LinearProblem, Trajectory, solve_adjoint, solve_forward
from .carleman import (CarlemanWeights, SourceSplit, build_weights,
                       carleman_functionals, ratio_experiment)
from .control import (HUMResult, ObservabilityReport, epsilon_sweep, gramian,
                      hum_solve, observability_estimate)
from .semilinear import (FixedPointReport, Nonlinearity, freeze_coefficients,
                         picard_null_control)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
