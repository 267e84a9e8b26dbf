import math

import numpy as np
import pytest

from lapdual import (
    EvaluationError,
    GeneralizedPolynomial,
    InputError,
    QuadratureSpec,
    SimplexMonomial,
    SublevelProblem,
    dual_integral,
    generalized_polynomial_v,
    monte_carlo_sublevel,
    multivariate_laplace_monomial,
    simplex_laplace_of_v,
    simplex_monomial_v,
)
from lapdual.simplex import orthant_monomial_evaluator, simplex_gauge


def test_laplace_monomial_exponential():
    assert multivariate_laplace_monomial((0.0,), (1.0,)) == pytest.approx(1.0, rel=1e-13)


def test_laplace_monomial_first_moment():
    # integral of x * exp(-2x) over [0, inf) = 1/4
    assert multivariate_laplace_monomial((1.0,), (2.0,)) == pytest.approx(0.25, rel=1e-13)


def test_laplace_monomial_product_form():
    for lam in (0.5, 1.0, 3.0):
        assert multivariate_laplace_monomial((0.0, 0.0), (lam, lam)) == pytest.approx(
            1.0 / lam**2, rel=1e-13
        )


def test_laplace_monomial_domain_errors():
    with pytest.raises(InputError):
        multivariate_laplace_monomial((-1.0,), (1.0,))
    with pytest.raises(InputError):
        multivariate_laplace_monomial((0.0,), (0.0,))
    with pytest.raises(InputError):
        multivariate_laplace_monomial((0.0, 0.0), (1.0,))


def test_simplex_area():
    assert simplex_monomial_v((0.0, 0.0), 1.0) == pytest.approx(0.5, rel=1e-12)


def test_simplex_first_moment():
    # iterated integral: int_0^1 int_0^(1-x) x dy dx = 1/6
    assert simplex_monomial_v((1.0, 0.0), 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_simplex_inverse_sqrt():
    # int_0^1 x^(-1/2) dx = 2
    assert simplex_monomial_v((-0.5,), 1.0) == pytest.approx(2.0, rel=1e-12)


def test_simplex_cubic_moment():
    # int over {x,y >= 0, x+y <= 1} of x^2 y = 1/60 by iterated integration.
    assert simplex_monomial_v((2.0, 1.0), 1.0) == pytest.approx(1.0 / 60.0, rel=1e-12)


def test_simplex_v_at_zero():
    assert simplex_monomial_v((0.5, 0.5), 0.0) == 0.0


def test_simplex_v_domain_errors():
    with pytest.raises(InputError):
        simplex_monomial_v((-1.5,), 1.0)
    with pytest.raises(InputError):
        simplex_monomial_v((0.0,), -1.0)


def test_simplex_large_exponents_survive_in_log_space():
    value = simplex_monomial_v((120.0, 95.0), 1.0)
    assert value > 0.0 and math.isfinite(value)


def test_simplex_laplace_of_v():
    assert simplex_laplace_of_v((0.0, 0.0), 1.0) == pytest.approx(1.0, rel=1e-13)
    assert simplex_laplace_of_v((1.0, 0.0), 2.0) == pytest.approx(1.0 / 16.0, rel=1e-13)


def test_simplex_laplace_overflow_is_reported():
    # Gamma(201) / 0.5^202 is beyond the double range.
    with pytest.raises(EvaluationError):
        simplex_laplace_of_v((200.0, 0.0), 0.5)
    with pytest.raises(EvaluationError):
        multivariate_laplace_monomial((200.0, 0.0), (0.5, 0.5))


def test_simplex_laplace_identity():
    # lam * L_v(lam) equals the orthant transform on the diagonal.
    for alpha in ((0.0, 0.0), (1.5, -0.25), (2.0, 1.0, 0.5)):
        for lam in (0.5, 1.0, 4.0):
            lhs = lam * simplex_laplace_of_v(alpha, lam)
            rhs = multivariate_laplace_monomial(alpha, (lam,) * len(alpha))
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_generalized_polynomial_sum():
    p = GeneralizedPolynomial(
        (SimplexMonomial((0.0, 0.0), 1.0), SimplexMonomial((1.0, 0.0), 1.0))
    )
    assert generalized_polynomial_v(p, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_generalized_polynomial_empty_and_scaling():
    assert generalized_polynomial_v(GeneralizedPolynomial(()), 1.0) == 0.0
    base = GeneralizedPolynomial((SimplexMonomial((1.0, 0.0), 1.0),))
    scaled = GeneralizedPolynomial((SimplexMonomial((1.0, 0.0), 3.5),))
    assert generalized_polynomial_v(scaled, 2.0) == pytest.approx(
        3.5 * generalized_polynomial_v(base, 2.0), rel=1e-12
    )


def test_generalized_polynomial_rejects_mixed_dims():
    with pytest.raises(InputError):
        GeneralizedPolynomial((SimplexMonomial((0.0,), 1.0), SimplexMonomial((0.0, 0.0), 1.0)))


def test_homogeneous_scaling_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        alpha = tuple(float(a) for a in rng.uniform(-0.9, 3.0, size=d))
        y = float(rng.uniform(0.1, 5.0))
        t = float(rng.uniform(0.2, 4.0))
        p = d + sum(alpha)
        lhs = simplex_monomial_v(alpha, t * y)
        rhs = t**p * simplex_monomial_v(alpha, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("alpha", [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_closed_form_vs_monte_carlo(alpha, y):
    f = orthant_monomial_evaluator(alpha)
    spec = QuadratureSpec(sample_count=400_000, seed=2024)
    est = monte_carlo_sublevel(f, simplex_gauge, 2, y, y, spec)
    exact = simplex_monomial_v(alpha, y)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_transform_consistency_with_dual_integral():
    # The dual side of the simplex problem: integrate x^alpha (zero off
    # the orthant) against exp(-lam * sum|x_i|); the abs-sum gauge agrees
    # with the simplex gauge wherever the integrand is nonzero and is
    # homogeneous of degree 1, which the problem metadata states.  The
    # kinks and orthant-boundary jumps keep the box engine well below
    # its smooth-integrand accuracy; Monte Carlo confirms the value
    # within its own error band.
    def gauge_abs(pts):
        return np.sum(np.abs(np.asarray(pts, dtype=float)), axis=1)

    cases = (
        ((1.0, 0.0), 2.0, 1e-4, 128, 1e-4),
        ((2.0, 1.0), 2.0, 1e-3, 64, 1e-2),
    )
    for alpha, lam, rel_tol, nodes, box_tol in cases:
        f = orthant_monomial_evaluator(alpha)
        target = lam * simplex_laplace_of_v(alpha, lam)
        problem = SublevelProblem(2, f, gauge_abs, g_degree=1)
        est = dual_integral(problem, lam, QuadratureSpec(nodes_per_axis=nodes, rel_tol=rel_tol))
        assert est.value == pytest.approx(target, rel=box_tol)

        def weighted(pts):
            return f(pts) * np.exp(-lam * gauge_abs(pts))

        mc = monte_carlo_sublevel(
            weighted,
            gauge_abs,
            2,
            1e9,  # effectively no level restriction: whole-box integral
            60.0 / lam,
            QuadratureSpec(sample_count=2_000_000, seed=8),
        )
        assert abs(mc.value - target) <= 4.0 * mc.std_error


def test_monomial_validation():
    with pytest.raises(InputError):
        SimplexMonomial((), 1.0)
    with pytest.raises(InputError):
        SimplexMonomial((-1.0,), 1.0)
    with pytest.raises(InputError):
        SimplexMonomial((0.0,), "x")


def _points(d, rows, lo=-0.5, seed=0):
    """Rows in [lo, 2)^d with exact zeros and negatives mixed in."""
    pts = np.random.default_rng(seed).uniform(lo, 2.0, (rows, d))
    pts[::7, d - 1] = 0.0
    pts[::11, 0] = -0.0
    return pts


@pytest.mark.parametrize("d", range(1, 8))
def test_simplex_evaluators_equal_numpy_reductions(d):
    pts = _points(d, 5000, seed=d)
    # The column sum starts from 0, as numpy's does, so even -0.0 rows agree.
    assert simplex_gauge(pts).tobytes() == np.sum(pts, axis=1).tobytes()
    alpha = np.random.default_rng(100 + d).uniform(0.0, 2.5, d)
    alpha[0] = (0.0, 0.5, 1.0, 2.0)[d % 4]
    mask = np.all(pts > 0.0, axis=1)
    reference = np.zeros(len(pts))
    reference[mask] = np.prod(pts[mask] ** alpha, axis=1)
    assert orthant_monomial_evaluator(alpha)(pts).tobytes() == reference.tobytes()


@pytest.mark.parametrize("d", range(8, 13))
def test_simplex_gauge_within_d_ulps_of_numpy_sum(d):
    # From d = 8 numpy sums pairwise, the gauge column by column.
    on_simplex = _points(d, 20000, lo=0.0, seed=d)
    reference = np.sum(on_simplex, axis=1)
    assert np.all(np.abs(simplex_gauge(on_simplex) - reference) <= d * np.spacing(reference))
    mixed = _points(d, 20000, seed=d)
    scale = np.sum(np.abs(mixed), axis=1)
    assert np.all(np.abs(simplex_gauge(mixed) - np.sum(mixed, axis=1)) <= d * np.spacing(scale))


def test_orthant_monomial_zero_rows_and_indicator():
    pts = _points(3, 3000)
    off = ~np.all(pts > 0.0, axis=1)
    assert off.any()
    values = orthant_monomial_evaluator((0.5, 1.5, 2.0))(pts)
    assert np.all(values[off] == 0.0) and not np.signbit(values[off]).any()
    indicator = orthant_monomial_evaluator((0.0, 0.0, 0.0))(pts)
    assert indicator.tobytes() == np.where(off, 0.0, 1.0).tobytes()
