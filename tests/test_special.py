import math

import numpy as np
import pytest

from lapdual import InputError, gamma, log_gamma
from lapdual.special import frexp_exp


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_matches_factorial():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_at_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_log_gamma_zeros():
    assert abs(log_gamma(1.0)) <= 1e-13
    assert abs(log_gamma(2.0)) <= 1e-13


def test_log_gamma_101_against_exact_factorial():
    # ln(100!) through the exact big-integer factorial.
    oracle = math.log(float(math.factorial(100)))
    assert log_gamma(101.0) == pytest.approx(oracle, rel=1e-12)


def test_recurrence_on_grid():
    for x in np.linspace(0.1, 60.0, 120):
        lhs = gamma(x + 1.0)
        rhs = x * gamma(x)
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_exp_log_consistency():
    for x in np.linspace(0.1, 60.0, 120):
        g = gamma(x)
        assert abs(math.exp(log_gamma(x)) - g) <= 1e-11 * g


def test_against_stdlib_oracle():
    # The stdlib is the reference over the whole documented range; for
    # gamma that runs up to the overflow point near 171.62.
    for x in np.geomspace(0.05, 170.0, 200):
        assert log_gamma(float(x)) == pytest.approx(math.lgamma(float(x)), abs=1e-12, rel=1e-12)
    for x in np.geomspace(0.05, 171.6, 100):
        assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(InputError):
            gamma(bad)
        with pytest.raises(InputError):
            log_gamma(bad)


def test_overflow_is_reported():
    assert math.isfinite(gamma(171.6))
    with pytest.raises(OverflowError):
        gamma(171.7)
    with pytest.raises(OverflowError):
        gamma(500.0)
    with pytest.raises(OverflowError):
        gamma(math.inf)
    # log_gamma keeps working far beyond the gamma overflow point.
    assert math.isfinite(log_gamma(1e6))


@pytest.mark.parametrize("log_value", [0.0, 1.0, -700.0, 709.7, -708.3, -708.5, -745.2, 709.8, 1e4, -1e4])
def test_frexp_exp_splits_exp_of_any_finite_log(log_value):
    mantissa, power = frexp_exp(log_value)
    assert 0.5 <= mantissa < 1.0
    if -708.3 <= log_value <= 709.7:  # exp is a normal double: bit for bit
        assert (mantissa, power) == math.frexp(math.exp(log_value))
    assert math.log(mantissa) + power * math.log(2.0) == pytest.approx(log_value, rel=1e-15, abs=1e-15)
