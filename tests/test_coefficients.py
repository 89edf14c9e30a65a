import numpy as np
import pytest

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, power_coefficient,
                                        tabular_coefficient, validate_beta,
                                        validate_coefficient)
from degen_control.errors import (EnvelopeUnbounded, HypothesisViolated,
                                  NonPositiveCoefficient)


def test_sqrt_passes_wdp():
    report = validate_coefficient(power_coefficient(0.5), Case.WDP)
    assert report.passed
    assert report.case_admissible is Case.WDP
    assert abs(report.K - 0.5) <= 1e-12


def test_power_family_k_exact():
    # x a' = alpha a exactly for the power family
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 1.9):
        case = Case.WDP if alpha < 1.0 else Case.SDP
        report = validate_coefficient(power_coefficient(alpha), case)
        assert abs(report.K - alpha) <= 1e-10
        assert report.case_admissible is case
        assert report.passed


def test_x_squared_rejected():
    with pytest.raises(HypothesisViolated):
        validate_coefficient(power_coefficient(2.0), Case.SDP)


def test_x32_sdp_sigma():
    report = validate_coefficient(power_coefficient(1.5), Case.SDP)
    assert report.passed
    assert abs(report.K - 1.5) <= 1e-10
    # a / x^sigma is constant at sigma = K, the largest admissible exponent
    assert report.sigma == pytest.approx(1.5, abs=1e-9)


def test_alpha_one_is_sdp_with_fractional_sigma():
    report = validate_coefficient(power_coefficient(1.0), Case.SDP)
    assert report.passed
    assert report.case_admissible is Case.SDP
    assert report.sigma is not None and 0.0 < report.sigma < 1.0


def test_case_mismatch_fails_without_raising():
    # K = 0.5 coefficient declared strongly degenerate: clause fails, no error
    report = validate_coefficient(power_coefficient(0.5), Case.SDP)
    assert not report.passed
    assert not report.clauses["case_match"]
    assert report.case_admissible is Case.WDP


def test_nonpositive_coefficient():
    bad = DegeneracyCoefficient(eval=lambda x: np.asarray(x, dtype=float) - 0.5,
                                deriv=np.ones_like, K=0.0, case=Case.WDP)
    with pytest.raises(NonPositiveCoefficient):
        validate_coefficient(bad, Case.WDP)


def test_nonvanishing_at_zero_fails_clause():
    report = validate_coefficient(classical_coefficient(), Case.WDP)
    assert not report.passed
    assert not report.clauses["vanishes_at_zero"]
    assert report.K == 0.0


def test_tabular_coefficient_roundtrip(tmp_path):
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 400)])
    table = np.column_stack([xs, xs ** 0.5])
    path = tmp_path / "coef.csv"
    np.savetxt(path, table, delimiter=",")
    from degen_control.coefficients import load_tabular_coefficient
    a = load_tabular_coefficient(path)
    assert a.case is Case.WDP
    assert a.K == pytest.approx(0.5, abs=1e-6)
    assert float(a.eval(np.array([0.25]))[0]) == pytest.approx(0.5, rel=1e-3)


def test_tabular_sdp_with_curvature_revalidates_cleanly():
    # curved-in-log-log strongly degenerate table; re-validation must not
    # probe the interpolant below the table's resolution
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 400)])
    vals = xs ** 1.5 * (1.0 + 0.3 * xs)
    a = tabular_coefficient(xs, vals)
    assert a.case is Case.SDP
    assert a.sample_floor == pytest.approx(1e-6)
    report = validate_coefficient(a, Case.SDP)
    assert report.passed
    assert report.sigma is not None
    assert report.K == pytest.approx(1.5 + 0.3 / 1.3, rel=1e-2)


def test_tabular_rejects_bad_tables():
    with pytest.raises(ValueError):
        tabular_coefficient([0.0, 0.5, 0.4, 1.0], [0.0, 0.1, 0.2, 1.0])
    with pytest.raises(ValueError):
        tabular_coefficient([0.1, 0.5, 0.7, 1.0], [0.1, 0.2, 0.3, 1.0])


# -- drift envelope -------------------------------------------------------------

def test_beta_linear_is_one():
    assert validate_beta(lambda x: x, power_coefficient(0.5)) == pytest.approx(1.0)


def test_beta_oscillatory_bounded_by_three():
    beta = lambda x: x * (2.0 + np.sin(1.0 / x))
    a = power_coefficient(0.5)
    # refinement oracle: the envelope stays <= 3 on successively denser grids
    for n in (64, 256, 1024):
        c = validate_beta(beta, a, n_samples=n)
        assert c <= 3.0 + 1e-12
    assert validate_beta(beta, a) >= 1.0


def test_beta_sqrt_unbounded():
    with pytest.raises(EnvelopeUnbounded):
        validate_beta(lambda x: np.sqrt(x), power_coefficient(0.5))


def test_power_requires_positive_alpha():
    with pytest.raises(ValueError):
        power_coefficient(0.0)


def test_coefficient_is_reusable_and_pure():
    a = power_coefficient(0.5)
    x = np.linspace(0.0, 1.0, 11)
    first = a.eval(x)
    second = a.eval(x)
    assert np.array_equal(first, second)
    assert isinstance(a, DegeneracyCoefficient)
