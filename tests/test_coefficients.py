import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from degen_control.coefficients import (Case, DegeneracyCoefficient,
                                        classical_coefficient, power_coefficient,
                                        tabular_coefficient, validate_coefficient)
from degen_control.errors import HypothesisViolated
from degen_control.mesh import build_grid


def test_sqrt_passes_wdp():
    report = validate_coefficient(power_coefficient(0.5), Case.WDP)
    assert report.passed
    assert report.case_admissible is Case.WDP
    assert abs(report.K - 0.5) <= 1e-12


def test_power_family_k_exact():
    # x a' = alpha a exactly for the power family: K = sigma = alpha, bit for bit
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 1.9):
        case = Case.WDP if alpha < 1.0 else Case.SDP
        a = power_coefficient(alpha)
        assert a.K == alpha and a.sigma == alpha
        report = validate_coefficient(a, case)
        assert report.K == alpha
        assert report.sigma == (alpha if case is Case.SDP else None)
        assert report.case_admissible is case
        assert report.passed


def test_x_squared_rejected():
    with pytest.raises(HypothesisViolated):
        validate_coefficient(power_coefficient(2.0), Case.SDP)


def test_x32_sdp_sigma():
    report = validate_coefficient(power_coefficient(1.5), Case.SDP)
    assert report.passed
    assert report.K == 1.5
    # a / x^sigma is constant at sigma = K, the largest admissible exponent
    assert report.sigma == 1.5


def test_alpha_one_is_sdp_with_fractional_sigma():
    report = validate_coefficient(power_coefficient(1.0), Case.SDP)
    assert report.passed
    assert report.case_admissible is Case.SDP
    # a / x is constant: sigma = 1 exactly
    assert report.sigma == 1.0


def test_case_mismatch_fails_without_raising():
    # K = 0.5 coefficient declared strongly degenerate: clause fails, no error
    report = validate_coefficient(power_coefficient(0.5), Case.SDP)
    assert not report.passed
    assert not report.clauses["case_match"]
    assert report.case_admissible is Case.WDP


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
    report = validate_coefficient(a, Case.SDP)
    assert report.passed
    assert report.K == a.K and report.sigma == a.sigma
    assert report.K == pytest.approx(1.5 + 0.3 / 1.3, rel=1e-2)


def test_tabular_constants_are_the_extremes_of_the_log_slope():
    # s = x a'/a of the log-log PCHIP on 2e6 log-spaced points: K is its
    # supremum on [xs[1], 1] and sigma its infimum on [xs[1], 0.1]
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200)])
    vals = xs ** 1.3 * (1.0 + 0.3 * np.sin(3.0 * xs))
    a = tabular_coefficient(xs, vals)
    logp = PchipInterpolator(np.log(xs[1:]), np.log(vals[1:]))
    probe = np.geomspace(1e-6, 1.0, 1000)
    assert np.allclose(a.eval(probe), np.exp(logp(np.log(probe))), rtol=1e-14)
    s = logp.derivative()
    dense_max = np.max(s(np.log(np.geomspace(1e-6, 1.0, 2_000_000))))
    dense_min = np.min(s(np.log(np.geomspace(1e-6, 0.1, 2_000_000))))
    assert dense_max <= a.K <= dense_max + 1e-12
    assert dense_min - 1e-12 <= a.sigma <= dense_min
    assert a.K == pytest.approx(1.4377439471040, abs=1e-12)
    assert a.sigma == pytest.approx(1.3000008984755, abs=1e-12)
    assert a.case is Case.SDP


def test_tabular_log_slope_below_the_first_knot_is_within_k_and_sigma():
    # below x1 = xs[1] a table is the power law of its log-slope at x1, so
    # the central-difference slope of a.eval there stays inside [sigma, K]
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200)])
    a = tabular_coefficient(xs, xs ** 1.9 / (1.0 + 0.5 * xs))
    x, h = np.geomspace(1e-30, 1e-6, 241), 1e-3
    s = (np.log(a.eval(x * np.exp(h))) - np.log(a.eval(x * np.exp(-h)))) / (2.0 * h)
    assert np.all(s <= a.K + 1e-9)
    assert np.all(s >= a.sigma - 1e-9)


def test_tabular_k_two_is_rejected():
    xs = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 20)])
    for case in (None, Case.SDP):
        with pytest.raises(HypothesisViolated):
            tabular_coefficient(xs, xs ** 2.0, case=case)


def test_tabular_rejects_bad_tables():
    with pytest.raises(ValueError):
        tabular_coefficient([0.0, 0.5, 0.4, 1.0], [0.0, 0.1, 0.2, 1.0])
    with pytest.raises(ValueError):
        tabular_coefficient([0.1, 0.5, 0.7, 1.0], [0.1, 0.2, 0.3, 1.0])
    # a non-finite entry is refused by name before scipy sees it
    with pytest.raises(ValueError, match="table x column must be finite"):
        tabular_coefficient([0.0, 0.5, np.nan, 1.0], [0.0, 0.1, 0.2, 1.0])
    with pytest.raises(ValueError, match="table a column must be finite"):
        tabular_coefficient([0.0, 0.5, 0.7, 1.0], [0.0, np.inf, 0.2, 1.0])


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


UNIFORM_ROWS = np.linspace(0.0, 1.0, 201)
GEOMETRIC_ROWS = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200)])


@pytest.mark.parametrize("alpha, xs", [
    *(pytest.param(alpha, UNIFORM_ROWS, id=str(alpha)) for alpha in (0.5, 1.5, 1.9)),
    *(pytest.param(alpha, GEOMETRIC_ROWS, id=f"geometric-{alpha}")
      for alpha in (1.5, 1.9, 1.99))])
def test_tabular_primitive_of_a_power_law(alpha, xs):
    # log-log PCHIP reproduces a table of x^alpha, so its primitive is
    # int_0^x tau^(1 - alpha) = x^(2 - alpha)/(2 - alpha): the closed form
    # below the first knot x1 and the Gauss rule above it
    a = tabular_coefficient(xs, xs ** alpha)
    grid = build_grid(128)
    x = np.concatenate([grid.nodes, grid.faces])
    assert np.allclose(a.primitive(x), x ** (2.0 - alpha) / (2.0 - alpha),
                       rtol=1e-11, atol=0.0)
    below, above = a.primitive(xs[1] * np.array([1.0 - 1e-13, 1.0 + 1e-13]))
    assert above == pytest.approx(below, rel=1e-12)
    if xs is GEOMETRIC_ROWS:
        return
    # uniform rows hold x^alpha to round-off in log-log, a tighter check
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 97), np.linspace(0.0, 1.0, 333),
                        xs])
    assert np.allclose(a.primitive(x), x ** (2.0 - alpha) / (2.0 - alpha),
                       rtol=0.0, atol=1e-12)
    assert a.primitive(0.25) == pytest.approx(0.25 ** (2.0 - alpha) / (2.0 - alpha),
                                              rel=1e-13)


def test_tabular_primitive_of_a_curved_table():
    # P(1) - P(x) against Simpson's rule in t = log tau with 64 intervals on
    # each piece between the PCHIP's knots, where the integrand is smooth
    # (error far below 1e-12), for a table whose PCHIP is curved
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200)])
    vals = xs ** 1.3 * (1.0 + 0.3 * np.sin(3.0 * xs))
    a = tabular_coefficient(xs, vals)
    knots = np.log(xs[1:])
    simpson = np.r_[1.0, np.tile([4.0, 2.0], 32)[:-1], 1.0] / (3.0 * 64)
    for x in (3e-7, 1e-3, 0.37):
        cuts = np.unique(np.r_[np.log(x), knots[knots > np.log(x)]])
        t = cuts[:-1, None] + np.diff(cuts)[:, None] * np.linspace(0.0, 1.0, 65)
        f = np.exp(t) ** 2 / a.eval(np.exp(t))
        want = np.sum(np.diff(cuts) * (f @ simpson))
        got = a.primitive(np.array([1.0]))[0] - a.primitive(np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-13)


def _hand_built(K, sigma):
    return DegeneracyCoefficient(eval=power_coefficient(K).eval,
                                 primitive=power_coefficient(K).primitive,
                                 K=K, sigma=sigma, case=Case.SDP, label="hand")


def test_sigma_monotone_is_the_strong_degeneracy_hypothesis():
    # for K > 1 some theta in (1, K] must make a/x^theta nondecreasing near
    # 0, that is sigma > 1; K <= 1 asks nothing
    for K, sigma, holds in ((1.0, 0.9, True), (1.0, 0.05, True),
                            (1.0 + 2e-10, 0.9, False), (1.5, 1.0, False),
                            (1.5, 1.01, True), (1.9, 1.0 + 1e-12, True)):
        report = validate_coefficient(_hand_built(K, sigma), Case.SDP)
        assert report.clauses["sigma_monotone"] is holds, (K, sigma)
        assert report.passed is holds


def test_validate_reports_only_clauses_an_input_can_fail():
    report = validate_coefficient(power_coefficient(1.5), Case.SDP)
    assert list(report.clauses) == ["vanishes_at_zero", "case_match", "sigma_monotone"]
    assert list(validate_coefficient(power_coefficient(0.5), Case.WDP).clauses) == [
        "vanishes_at_zero", "case_match"]
