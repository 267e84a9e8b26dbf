import math
import sys
import threading
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import separable_power_integral
from lapdual import (
    BracketError,
    DualCertificate,
    EffortError,
    EvaluationError,
    EvaluationNoiseError,
    InputError,
    LapdualError,
    MultiPoly,
    QuadratureSpec,
    SublevelProblem,
    UnboundedSublevelError,
    auto_enclosing_radius,
    dual_integral,
    find_lambda_for_target,
    lambda_y_homogeneous,
    laplace_of_v,
    laplace_transform_by_quadrature,
    monte_carlo_sublevel,
    v_polynomial,
)
from lapdual import cubature, duality

SPEC = QuadratureSpec()


@pytest.fixture
def disc_problem(disc_g, one_2d):
    return SublevelProblem(2, one_2d, disc_g)


@pytest.fixture
def interval_problem(interval_g, one_1d):
    return SublevelProblem(1, one_1d, interval_g)


def test_lambda_y_interval():
    assert lambda_y_homogeneous(1, 0, 2, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_lambda_y_balanced_degrees_is_reciprocal():
    for y in (0.25, 1.0, 3.0, 10.0):
        assert abs(lambda_y_homogeneous(2, 0, 2, y) * y - 1.0) <= 1e-14
        assert abs(lambda_y_homogeneous(1, 3, 4, y) * y - 1.0) <= 1e-14


def test_lambda_y_gamma_two_over_five():
    assert lambda_y_homogeneous(2, 0, 2, 5.0) == pytest.approx(0.2, rel=1e-13)


def test_lambda_y_validation():
    with pytest.raises(InputError):
        lambda_y_homogeneous(0, 0, 2, 1.0)
    with pytest.raises(InputError):
        lambda_y_homogeneous(1, -1, 2, 1.0)
    with pytest.raises(InputError):
        lambda_y_homogeneous(1, 0, 0.5, 1.0)
    with pytest.raises(InputError):
        lambda_y_homogeneous(1, 0, 2, 0.0)


def test_dual_constant_over_y_grid():
    const = lambda_y_homogeneous(2, 0, 4, 1.0)
    for y in np.geomspace(0.05, 50.0, 20):
        lam = lambda_y_homogeneous(2, 0, 4, float(y))
        assert abs(float(y) * lam - const) <= 1e-12 * const


def test_closed_form_disc(disc_problem):
    for y in (0.5, 1.0, 3.0):
        assert v_polynomial(disc_problem, y, SPEC)[0] == pytest.approx(math.pi * y, rel=1e-12)


def test_closed_form_interval(interval_problem):
    value = v_polynomial(interval_problem, 4.0, SPEC)[0]
    assert value == pytest.approx(4.0, rel=1e-12)  # interval length 2*sqrt(y)


def test_closed_form_requires_degrees(interval_g):
    opaque = SublevelProblem(1, lambda p: np.ones(p.shape[0]), interval_g)
    with pytest.raises(InputError):
        v_polynomial(opaque, 1.0, SPEC)


def test_dual_integral_interval(interval_problem):
    est = dual_integral(interval_problem, math.pi / 4.0, SPEC)
    assert est.engine == "gaussian-quadratic"
    assert est.value == pytest.approx(2.0, rel=1e-12)


def test_dual_integral_disc(disc_problem):
    est = dual_integral(disc_problem, 1.0, SPEC)
    assert est.value == pytest.approx(math.pi, rel=1e-12)


def test_dual_integral_quartic_matches_monte_carlo(quartic_g, one_2d):
    problem = SublevelProblem(2, one_2d, quartic_g)
    lam_1 = lambda_y_homogeneous(2, 0, 4, 1.0)
    est = dual_integral(problem, lam_1, QuadratureSpec(nodes_per_axis=96))
    assert est.engine == "polar"
    radius = auto_enclosing_radius(quartic_g, 1.0)
    mc = monte_carlo_sublevel(
        one_2d, quartic_g, 2, 1.0, radius,
        QuadratureSpec(sample_count=2 * 10**6, seed=5),
    )
    assert abs(est.value - mc.value) <= 4.0 * mc.std_error


def test_dual_integral_rejects_negative_g(one_1d):
    g = MultiPoly.monomial(1, (1,))  # x, negative on half the line
    problem = SublevelProblem(1, one_1d, g)
    with pytest.raises(InputError):
        dual_integral(problem, 1.0, SPEC)


def test_dual_integral_rejects_nonpositive_lambda(disc_problem):
    with pytest.raises(InputError):
        dual_integral(disc_problem, 0.0, SPEC)


def test_v_dual_disc_scales(disc_problem):
    cert = v_polynomial(disc_problem, 3.0, SPEC)[1][0]
    assert cert.lambda_y == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert cert.v_value == pytest.approx(3.0 * math.pi, rel=1e-10)
    assert cert.method == "dual-gaussian"


def test_v_dual_interval(interval_problem):
    cert = v_polynomial(interval_problem, 1.0, SPEC)[1][0]
    assert cert.lambda_y == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert cert.v_value == pytest.approx(2.0, rel=1e-10)


def test_v_dual_quadratic_integrand(disc_g):
    f = disc_g  # f = |x|^2, homogeneous of degree 2
    problem = SublevelProblem(2, f, disc_g)
    cert = v_polynomial(problem, 1.0, SPEC)[1][0]
    assert cert.lambda_y == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cert.v_value == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_dual_identity_against_analytic_oracles(disc_g, interval_g):
    ball_g = MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    instances = [
        (SublevelProblem(2, MultiPoly.constant(2, 1.0), disc_g), lambda y: math.pi * y),
        (SublevelProblem(1, MultiPoly.constant(1, 1.0), interval_g), lambda y: 2.0 * math.sqrt(y)),
        (
            SublevelProblem(3, MultiPoly.constant(3, 1.0), ball_g),
            lambda y: 4.0 / 3.0 * math.pi * y**1.5,
        ),
    ]
    spec = QuadratureSpec(nodes_per_axis=32)
    for problem, oracle in instances:
        for y in (0.5, 1.0, 2.0, 10.0):
            cert = v_polynomial(problem, y, spec)[1][0]
            assert abs(cert.v_value - oracle(y)) <= max(1e-6, cert.error_estimate)


def test_v_dual_opaque_nonpolynomial_gauge():
    # g = |x|^3 is positively homogeneous of degree 3 but no polynomial;
    # the stated degrees, checked on the axes, route it to the sphere.
    # Oracle: K_y is the ball of radius y^(1/3), so v(y) = pi * y^(2/3).
    g_cubed = lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 1.5
    f_one = lambda p: np.ones(p.shape[0])
    problem = SublevelProblem(2, f_one, g_cubed, f_degree=0, g_degree=3)
    spec = QuadratureSpec(nodes_per_axis=48)
    for y in (0.5, 1.0, 2.0):
        cert = v_polynomial(problem, y, spec)[1][0]
        assert cert.method == "dual-cubature"
        assert cert.v_value == pytest.approx(math.pi * y ** (2.0 / 3.0), rel=1e-9)


def test_v_polynomial_disc_decomposition(disc_g):
    f = MultiPoly(2, {(0, 0): 1.0, (2, 0): 1.0})  # 1 + x1^2
    problem = SublevelProblem(2, f, disc_g)
    value, certs = v_polynomial(problem, 1.0, SPEC)
    assert value == pytest.approx(math.pi + math.pi / 4.0, rel=1e-12)
    assert [c.lambda_y for c in certs] == pytest.approx([1.0, math.sqrt(2.0)], rel=1e-12)
    assert certs[0].v_value == pytest.approx(math.pi, rel=1e-12)  # disc area at y=1
    assert certs[1].v_value == pytest.approx(math.pi / 4.0, rel=1e-12)  # x1^2 over the disc


def test_v_polynomial_odd_integrand_vanishes(disc_g):
    problem = SublevelProblem(2, MultiPoly.monomial(2, (1, 0)), disc_g)
    value, certs = v_polynomial(problem, 1.0, SPEC)
    assert abs(value) <= 1e-12
    assert len(certs) == 1


def test_v_polynomial_vanishing_box_component_converges(quartic_g):
    # xy integrates to zero over the symmetric quartic star, so the box
    # loop's estimates are rounding noise; convergence and the error
    # estimate are judged on the scale of sum(w * |phi|), not of |v|.
    problem = SublevelProblem(2, MultiPoly.monomial(2, (1, 1)), quartic_g)
    value, certs = v_polynomial(problem, 1.0, SPEC)
    assert certs[0].method == "dual-cubature"
    assert abs(value) <= certs[0].error_estimate <= 1e-8


def test_dual_box_path_ignores_numeric_box_radius(quartic_g):
    # An opaque f with no degree keeps the quartic on the box engine.
    # box_radius 3.0 encloses K_1, but the dual still chooses and verifies
    # its own box.  Stating f's degree moves the same data to the sphere.
    f_one = lambda p: np.ones(p.shape[0])
    opaque = SublevelProblem(2, f_one, quartic_g)
    lam = lambda_y_homogeneous(2, 0, 4, 1.0)
    auto = dual_integral(opaque, lam, SPEC)
    numeric = dual_integral(opaque, lam, QuadratureSpec(box_radius=3.0))
    assert auto.engine == numeric.engine == "box-gauss-legendre"
    assert numeric.value == auto.value
    stated = dual_integral(SublevelProblem(2, f_one, quartic_g, f_degree=0), lam, SPEC)
    polar = dual_integral(SublevelProblem(2, MultiPoly.constant(2, 1.0), quartic_g), lam, SPEC)
    assert stated.engine == polar.engine == "polar"
    assert abs(auto.value - polar.value) <= SPEC.rel_tol * auto.magnitude


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_opaque_cubic_gauge_matches_the_gamma_form(lam):
    # g = |x|^3 in the plane: the integral of exp(-lam g) is
    # 2 pi Gamma(2/3) / (3 lam^(2/3)).  The sphere integrand is constant.
    g_cubed = lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 1.5
    problem = SublevelProblem(2, lambda p: np.ones(p.shape[0]), g_cubed, f_degree=0, g_degree=3)
    est = dual_integral(problem, lam, SPEC)
    exact = 2.0 * math.pi * math.gamma(2.0 / 3.0) / (3.0 * lam ** (2.0 / 3.0))
    assert est.engine == "polar"
    assert abs(est.value - exact) <= 1e-14 * exact


def test_opaque_f_over_a_three_dim_quartic_is_the_polynomial_result():
    g = MultiPoly(3, {(4, 0, 0): 1.0, (0, 4, 0): 2.0, (0, 0, 4): 0.5})
    opaque = dual_integral(SublevelProblem(3, lambda p: np.ones(p.shape[0]), g, f_degree=0), 0.7, SPEC)
    poly = dual_integral(SublevelProblem(3, MultiPoly.constant(3, 1.0), g), 0.7, SPEC)
    assert opaque.engine == poly.engine == "polar"
    assert (opaque.value, opaque.error_estimate, opaque.effort) == (
        poly.value, poly.error_estimate, poly.effort,
    )


def test_misstated_degree_is_refused_before_any_pass(monkeypatch):
    # |x|^3 stated as degree 2: only the axis probes (4 points each) run.
    shapes = []

    def g_cubed(p):
        shapes.append(p.shape[0])
        return (p[:, 0] ** 2 + p[:, 1] ** 2) ** 1.5

    monkeypatch.setattr(cubature, "_sphere_integral", None)
    with pytest.raises(InputError):
        SublevelProblem(2, lambda p: np.ones(p.shape[0]), g_cubed, f_degree=0, g_degree=2)
    assert shapes == [4, 4]


def _norm_squared(p):
    return p[:, 0] ** 2 + p[:, 1] ** 2


def test_opaque_f_over_a_quadratic_form_is_priced_only_at_its_degree(disc_g):
    # Stated as degree 0, f = |x|^2 over the unit disc took the Gaussian
    # route unchecked and gave pi for v(1) = pi / 2 under a 3e-14 certificate.
    with pytest.raises(InputError, match="does not scale with its stated degree"):
        SublevelProblem(2, _norm_squared, disc_g, f_degree=0)
    cert = v_polynomial(SublevelProblem(2, _norm_squared, disc_g, f_degree=2), 1.0, SPEC)[1][0]
    assert cert.method == "dual-gaussian"
    assert cert.v_value == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_misstated_g_degree_is_refused_on_the_box_route():
    # An opaque f of no degree keeps this problem on the box, where a wrong
    # g_degree only skewed the starting radius.
    with pytest.raises(InputError, match="does not scale with its stated degree"):
        SublevelProblem(
            2, lambda p: np.ones(p.shape[0]), lambda p: _norm_squared(p) ** 1.5, g_degree=2
        )


def test_stated_degree_is_probed_once_at_construction():
    # The probe's first call is g at the doubled axis points 2 * (+-e_j).
    doubled = np.vstack((2.0 * np.eye(2), -2.0 * np.eye(2)))
    probes = []

    def g_cubed(p):
        if p.shape == doubled.shape and np.array_equal(p, doubled):
            probes.append(p)
        return _norm_squared(p) ** 1.5

    problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), g_cubed, g_degree=3)
    assert len(probes) == 1
    lam = find_lambda_for_target(problem, 1.0, (1e-3, 1e3), SPEC)
    exact = (2.0 * math.pi * math.gamma(2.0 / 3.0) / 3.0) ** 1.5
    assert lam == pytest.approx(exact, rel=1e-8)
    assert len(probes) == 1


def test_homogeneous_polynomials_never_reach_the_box(quartic_g, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the box path ran")

    monkeypatch.setattr(duality, "integrate_box", refuse)
    monkeypatch.setattr(duality, "sphere_minimum", refuse)
    f = MultiPoly(2, {(0, 0): 1.0, (1, 0): 2.0, (2, 0): -0.5, (1, 1): 3.0, (0, 4): 1.0})
    value, certs = v_polynomial(SublevelProblem(2, f, quartic_g), 1.0, SPEC)
    assert [c.method for c in certs] == ["dual-cubature"] * 4
    assert value == pytest.approx(sum(c.v_value for c in certs), rel=1e-15)
    # dual_integral sums the components' sphere integrals in ascending degree.
    whole = dual_integral(SublevelProblem(2, f, quartic_g), 0.7, SPEC)
    parts = [
        dual_integral(SublevelProblem(2, f_k, quartic_g), 0.7, SPEC)
        for _, f_k in f.homogeneous_components()
    ]
    assert whole.engine == "polar"
    assert whole.value == math.fsum(p.value for p in parts)
    assert whole.effort == sum(p.effort for p in parts)
    positive = SublevelProblem(2, MultiPoly(2, {(0, 0): 1.0, (2, 0): 0.5, (0, 2): 0.5}), quartic_g)
    target = dual_integral(positive, 0.7, SPEC).value
    lam = find_lambda_for_target(positive, target, (1e-3, 1e3), SPEC)
    assert lam == pytest.approx(0.7, rel=1e-8)
    assert dual_integral(positive, 1e-3, SPEC).value > target


@pytest.mark.parametrize("dim", [2, 4])
def test_dual_integral_of_a_zero_polynomial_is_exactly_zero(quartic_g, dim):
    # The zero polynomial has no homogeneous components, so nothing runs.
    g = quartic_g if dim == 2 else _four_dim_quartic()
    est = dual_integral(SublevelProblem(dim, MultiPoly.zero(dim), g), 1.0, SPEC)
    assert est.engine == "polar"
    assert (est.value, est.effort, est.magnitude, est.error_estimate) == (0.0, 0, 0.0, 0.0)


def _four_dim_quartic(extra=None):
    """sum a_i x_i^4 with a_i = 1, 1.5, 2, 2.5, plus ``extra`` terms."""
    terms = {(4, 0, 0, 0): 1.0, (0, 4, 0, 0): 1.5, (0, 0, 4, 0): 2.0, (0, 0, 0, 4): 2.5}
    return MultiPoly(4, {**terms, **(extra or {})})


@pytest.mark.parametrize("nodes", [8, 16, 64])
@pytest.mark.parametrize("rel_tol", [1e-4, 1e-9])
def test_four_dim_separable_quartic_runs_on_the_sphere(nodes, rel_tol):
    # At 64 nodes only one pass fits, so the sphere starts from 32.
    spec = QuadratureSpec(nodes_per_axis=nodes, rel_tol=rel_tol)
    problem = SublevelProblem(4, MultiPoly.constant(4, 1.0), _four_dim_quartic())
    est = dual_integral(problem, 1.0, spec)
    exact = separable_power_integral({(0, 0, 0, 0): 1.0}, (1.0, 1.5, 2.0, 2.5), 1.0, 4)
    assert est.engine == "polar"
    assert abs(est.value - exact) <= est.error_estimate


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
def test_four_dim_radial_quartic(lam):
    # (sum x_i^2)^2 = |x|^4: |S^3| * integral r^3 exp(-lam r^4) dr = pi^2 / (2 lam).
    g = MultiPoly(4, {})
    for i in range(4):
        for j in range(4):
            g = g + MultiPoly.monomial(4, tuple(2 * (k == i) + 2 * (k == j) for k in range(4)))
    problem = SublevelProblem(4, MultiPoly.constant(4, 1.0), g)
    est = dual_integral(problem, lam, QuadratureSpec(nodes_per_axis=16))
    assert est.value == pytest.approx(math.pi**2 / (2.0 * lam), rel=1e-13)


def test_four_dim_quartic_with_cross_terms_matches_monte_carlo():
    # |0.4 x1 x2^3| <= 0.1 x1^4 + 0.3 x2^4 and |0.8 x3^2 x4^2| <= 0.4 (x3^4 + x4^4),
    # so g is positive on the sphere.
    g = _four_dim_quartic({(1, 3, 0, 0): 0.4, (0, 0, 2, 2): -0.8, (2, 0, 2, 0): 0.7})
    problem = SublevelProblem(4, MultiPoly(4, {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 1.0}), g)
    value, certs = v_polynomial(problem, 1.0, QuadratureSpec(nodes_per_axis=16))
    doubled, _ = v_polynomial(problem, 1.0, QuadratureSpec(nodes_per_axis=32))
    assert [c.method for c in certs] == ["dual-cubature"] * 2
    assert abs(value - doubled) <= sum(c.error_estimate for c in certs)
    spec = QuadratureSpec(sample_count=400_000, seed=1)
    mc = monte_carlo_sublevel(problem.f, g, 4, 1.0, auto_enclosing_radius(g, 1.0), spec)
    assert abs(value - mc.value) <= 3.0 * mc.std_error


@pytest.mark.parametrize(
    "dim, f, g",
    [
        (1, {(3,): 1.0}, {(4,): 2.0}),
        (2, {(1, 2): 1.0, (3, 0): -2.0}, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925}),
        (3, {(1, 2, 0): 1.0, (1, 1, 1): 4.0}, {(4, 0, 0): 1.0, (0, 4, 0): 2.0, (0, 0, 4): 0.5}),
    ],
    ids=["1d", "2d", "3d"],
)
def test_polar_odd_component_within_certificate(dim, f, g):
    problem = SublevelProblem(dim, MultiPoly(dim, f), MultiPoly(dim, g))
    cert = v_polynomial(problem, 1.0, SPEC)[1][0]
    assert cert.method == "dual-cubature"
    assert abs(cert.v_value) <= cert.error_estimate <= 1e-8


@pytest.mark.parametrize(
    "dim, g, error",
    [
        # x1^2 vanishes on the x2 axis: K_y is an unbounded strip.
        (2, {(2, 0): 1.0}, LapdualError),
        (2, {(2, 2): 1.0}, UnboundedSublevelError),
        # (x1 - 1.1 x2)^2 vanishes on a ray that no node hits, so the
        # passes never agree and the doubling cap refuses.
        (2, {(2, 0): 1.0, (1, 1): -2.2, (0, 2): 1.21}, EffortError),
        (2, {(4, 0): 1.0, (0, 4): -1.0}, InputError),  # negative on the x2 axis
        (3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0}, LapdualError),
        (3, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}, InputError),
    ],
    ids=["x1sq", "x1sq-x2sq", "off-axis-ray", "negative", "3d-x3-axis", "3d-cubic"],
)
def test_polar_degenerate_g_raises(dim, g, error):
    problem = SublevelProblem(dim, MultiPoly.constant(dim, 1.0), MultiPoly(dim, g))
    with pytest.raises(error):
        v_polynomial(problem, 1.0, SPEC)


def test_v_polynomial_zero(disc_g):
    problem = SublevelProblem(2, MultiPoly.zero(2), disc_g)
    value, certs = v_polynomial(problem, 1.0, SPEC)
    assert value == 0.0 and certs == []


def test_v_polynomial_requires_homogeneous_g(one_2d):
    mixed = MultiPoly(2, {(0, 0): 1.0, (2, 0): 1.0})
    problem = SublevelProblem(2, one_2d, mixed)
    with pytest.raises(InputError):
        v_polynomial(problem, 1.0, SPEC)


def test_v_polynomial_requires_polynomial_f(disc_g):
    problem = SublevelProblem(2, lambda p: np.ones(p.shape[0]), disc_g)
    with pytest.raises(InputError):
        v_polynomial(problem, 1.0, SPEC)


def test_f_pieces_is_the_one_split_of_f(disc_g):
    homogeneous = MultiPoly(2, {(2, 0): 1.0, (1, 1): -3.0})
    (piece,) = SublevelProblem(2, homogeneous, disc_g).f_pieces
    assert piece[0] == 2 and piece[1] is homogeneous
    mixed = MultiPoly(2, {(0, 0): 2.0, (2, 0): 1.0, (1, 0): 3.0})
    problem = SublevelProblem(2, mixed, disc_g)
    assert problem.f_pieces == tuple(mixed.homogeneous_components())
    assert [k for k, _ in problem.f_pieces] == [0, 1, 2]
    assert SublevelProblem(2, MultiPoly.zero(2), disc_g).f_pieces == ()

    def opaque(p):
        return np.ones(p.shape[0])

    assert SublevelProblem(2, opaque, disc_g, f_degree=0).f_pieces == ((0, opaque),)
    assert SublevelProblem(2, opaque, disc_g).f_pieces is None
    # Derived, so replace rebuilds it, and it takes no part in ==, hash or repr.
    assert replace(problem, f=homogeneous).f_pieces == ((2, homogeneous),)
    assert problem == SublevelProblem(2, mixed, disc_g)
    assert hash(problem) == hash(SublevelProblem(2, mixed, disc_g))
    assert "f_pieces" not in repr(problem)


def test_v_polynomial_serves_an_opaque_f_of_stated_degree_as_one_piece(disc_g):
    calls = []

    def f(p):
        calls.append(p.shape[0])
        return np.ones(p.shape[0])

    problem = SublevelProblem(2, f, disc_g, f_degree=0)
    assert calls == [4, 4]  # the axis probe at 2 * (+-e_j), then at +-e_j
    value, certs = v_polynomial(problem, 1.5, SPEC)
    assert 4 not in calls[2:]  # the problem is dualized as it stands, not rebuilt
    assert len(certs) == 1
    assert value == v_polynomial(problem, 1.5, SPEC)[1][0].v_value
    assert value == pytest.approx(1.5 * math.pi, rel=1e-12)


def test_polynomial_path_matches_componentwise_duals(disc_g):
    f = MultiPoly(2, {(0, 0): 2.0, (2, 0): 1.0, (0, 2): -0.5, (1, 0): 3.0})
    problem = SublevelProblem(2, f, disc_g)
    value, certs = v_polynomial(problem, 1.5, SPEC)
    total = 0.0
    for k, f_k in f.homogeneous_components():
        cert = v_polynomial(replace(problem, f=f_k, f_degree=k), 1.5, SPEC)[1][0]
        total += cert.v_value
    assert total == value  # identical engine calls, identical accumulation order


def test_v_polynomial_signed_random_vs_monte_carlo(disc_g):
    # Sign-changing integrands stress the decomposition path: the direct
    # hit-or-miss estimate needs no sign assumption and pins the value.
    rng = np.random.default_rng(2718)
    radius = auto_enclosing_radius(disc_g, 1.0)
    for case in range(4):
        terms = {}
        for _ in range(5):
            exps = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            terms[exps] = terms.get(exps, 0.0) + float(rng.normal())
        f = MultiPoly(2, terms)
        problem = SublevelProblem(2, f, disc_g)
        value, _ = v_polynomial(problem, 1.0, SPEC)
        mc = monte_carlo_sublevel(
            f, disc_g, 2, 1.0, radius,
            QuadratureSpec(sample_count=400_000, seed=100 + case),
        )
        assert abs(value - mc.value) <= 4.0 * mc.std_error + 1e-12


def test_laplace_of_v_interval(interval_problem):
    assert laplace_of_v(interval_problem, 1.0, SPEC) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12
    )


def test_laplace_of_v_disc(disc_problem):
    assert laplace_of_v(disc_problem, 2.0, SPEC) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_laplace_transform_consistency(interval_problem):
    # y-side quadrature of the analytic v(y) = 2 sqrt(y) versus the
    # whole-space evaluation.
    for lam in (0.5, 1.0, 2.0):
        lhs = laplace_transform_by_quadrature(lambda y: 2.0 * np.sqrt(y), lam)
        rhs = laplace_of_v(interval_problem, lam, SPEC)
        assert lhs == pytest.approx(rhs, rel=1e-6)
        # Closed form: L_v(lam) = sqrt(pi) / lam^(3/2).
        assert lhs == pytest.approx(math.sqrt(math.pi) / lam**1.5, rel=1e-9)


def test_transform_quadrature_refuses_a_panel_past_the_double_range():
    # v(y) e^(-lam y) = 1: Y doubles from 4e307 until 2Y has no double.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="panel beyond"):
            laplace_transform_by_quadrature(lambda ys: np.exp(1e-306 * ys), 1e-306)


def test_phi_is_nonincreasing(disc_problem, interval_problem):
    for problem in (disc_problem, interval_problem):
        values = [
            dual_integral(problem, float(lam), SPEC).value
            for lam in np.geomspace(1e-2, 1e3, 30)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-9)


def test_phi_nonincreasing_box_engine(quartic_g, one_2d):
    # The constant polynomial runs on the sphere; an opaque f with no
    # degree keeps the quartic on the box engine.
    spec = QuadratureSpec(nodes_per_axis=48, rel_tol=1e-7)
    for f in (one_2d, lambda p: np.ones(p.shape[0])):
        problem = SublevelProblem(2, f, quartic_g)
        estimates = [dual_integral(problem, float(lam), spec) for lam in np.geomspace(0.1, 10.0, 8)]
        for a, b in zip(estimates, estimates[1:]):
            assert b.value <= a.value * (1.0 + 1e-6)
    assert {e.engine for e in estimates} == {"box-gauss-legendre"}


def test_find_lambda_interval(interval_problem):
    lam = find_lambda_for_target(interval_problem, 2.0, (1e-3, 1e3), SPEC)
    assert lam == pytest.approx(math.pi / 4.0, rel=1e-8)


def test_find_lambda_disc(disc_problem):
    lam = find_lambda_for_target(disc_problem, math.pi, (1e-3, 1e3), SPEC)
    assert lam == pytest.approx(1.0, rel=1e-8)


def test_find_lambda_bracket_error(disc_problem):
    # target above phi(lo): the range of phi over the bracket is exceeded.
    phi_lo = dual_integral(disc_problem, 1e-3, SPEC).value
    with pytest.raises(BracketError):
        find_lambda_for_target(disc_problem, 2.0 * phi_lo, (1e-3, 1e3), SPEC)


def test_find_lambda_invalid_bracket(disc_problem):
    with pytest.raises(InputError):
        find_lambda_for_target(disc_problem, 1.0, (1.0, 0.5), SPEC)


def test_find_lambda_refuses_a_target_that_is_not_finite(disc_problem):
    # An infinite target was searched for, and ended in a BracketError.
    for target in (math.inf, math.nan):
        with pytest.raises(InputError, match="target must be finite and positive"):
            find_lambda_for_target(disc_problem, target, (1e-3, 1e3), SPEC)


def test_an_infinite_level_is_refused_by_name(quartic_g, one_2d):
    # lambda_y was Gamma(1 + p)^(1/p) / inf = 0, and the polar engine then
    # raised a raw ValueError from log 0.
    with pytest.raises(InputError, match="level y must be finite and positive, got inf"):
        duality.lambda_y_for_order(1.5, math.inf)
    with pytest.raises(InputError, match="level y must be finite and positive, got inf"):
        v_polynomial(SublevelProblem(2, one_2d, quartic_g), math.inf, SPEC)


def test_initial_value_check_decays(interval_problem, disc_problem):
    assert dual_integral(interval_problem, 1e4, SPEC).value == pytest.approx(
        math.sqrt(math.pi / 1e4), rel=1e-10
    )
    assert dual_integral(disc_problem, 1e6, SPEC).value == pytest.approx(
        math.pi * 1e-6, rel=1e-10
    )
    assert dual_integral(interval_problem, 1e4, SPEC).value > dual_integral(
        interval_problem, 1e6, SPEC
    ).value


def test_final_value_check_opaque_gaussian_density():
    # f the Gaussian density (opaque), g = x^2 (opaque): both routed
    # through the box engine; phi(lam) = sqrt(pi / (1 + lam)) -> sqrt(pi).
    problem = SublevelProblem(
        1, lambda p: np.exp(-p[:, 0] ** 2), lambda p: p[:, 0] ** 2
    )
    value = dual_integral(problem, 0.01, SPEC).value
    assert value == pytest.approx(math.sqrt(math.pi / 1.01), rel=1e-6)


def test_final_value_check_divergent_growth(interval_problem):
    # v(infinity) = +infinity here: phi grows as lambda decreases.
    phi_001 = dual_integral(interval_problem, 0.01, SPEC).value
    assert phi_001 == pytest.approx(math.sqrt(100.0 * math.pi), rel=1e-10)
    assert phi_001 > dual_integral(interval_problem, 0.1, SPEC).value


def test_problem_metadata_consistency(disc_g, one_2d):
    problem = SublevelProblem(2, one_2d, disc_g)
    assert problem.f_degree == 0
    assert problem.g_degree == 2
    with pytest.raises(InputError):
        SublevelProblem(2, one_2d, disc_g, g_degree=3)
    with pytest.raises(InputError):
        SublevelProblem(2, one_2d, MultiPoly.constant(3, 1.0))
    with pytest.raises(InputError):
        SublevelProblem(2, "not callable", disc_g)
    f_mixed = MultiPoly(2, {(0, 0): 1.0, (2, 0): 1.0})  # 1 + x1^2 has no degree
    with pytest.raises(InputError):
        SublevelProblem(2, f_mixed, disc_g, f_degree=0)
    opaque = lambda p: p[:, 0] ** 2
    for degrees in ({"f_degree": "abc"}, {"g_degree": -2}, {"g_degree": 0}, {"f_degree": -1},
                    {"g_degree": math.inf}, {"g_degree": True}, {"f_degree": 10**400}):
        with pytest.raises(InputError):
            SublevelProblem(2, opaque, opaque, **degrees)
    constant_g = SublevelProblem(2, one_2d, MultiPoly.constant(2, 2.0))
    assert constant_g.g_degree is None
    with pytest.raises(InputError):
        v_polynomial(constant_g, 1.0, SPEC)
    with pytest.raises(InputError):
        SublevelProblem(2, one_2d, MultiPoly.constant(2, 2.0), g_degree=1)


def test_a_misstated_f_degree_cannot_misprice_v(disc_g):
    # f = 1 + x1^2 over the unit disc: v(1) = pi + pi/4.  Stated as degree
    # 0, it was dualized whole at the degree-0 lambda and gave 3 pi / 2
    # under a 2e-14 certificate; only the component route prices it now.
    f = MultiPoly(2, {(0, 0): 1.0, (2, 0): 1.0})
    with pytest.raises(InputError):
        v_polynomial(SublevelProblem(2, f, disc_g, f_degree=0), 1.0, SPEC)[1][0]
    value, _ = v_polynomial(SublevelProblem(2, f, disc_g), 1.0, SPEC)
    assert value == pytest.approx(5.0 * math.pi / 4.0, rel=1e-13)


def test_certificate_validation():
    with pytest.raises(InputError):
        DualCertificate(0.0, 1.0, 1.0, "dual-gaussian", 0.0)
    with pytest.raises(InputError):
        DualCertificate(1.0, 0.0, 1.0, "dual-gaussian", 0.0)
    with pytest.raises(InputError):
        DualCertificate(1.0, 1.0, 1.0, "dual-gaussian", -1.0)


def _count_phi_evals(monkeypatch):
    lams = []
    inner = duality.dual_integral

    def counting(problem, lam, spec):
        lams.append(lam)
        return inner(problem, lam, spec)

    monkeypatch.setattr(duality, "dual_integral", counting)
    return lams


@pytest.mark.parametrize("target", [2.7 * math.pi, 0.02, 50.0])
def test_find_lambda_disc_takes_at_most_four_integrals(disc_problem, target, monkeypatch):
    # phi = pi / lam: log phi is linear in log lam, so the secant is exact.
    lams = _count_phi_evals(monkeypatch)
    lam = find_lambda_for_target(disc_problem, target, (1e-3, 1e3), SPEC)
    assert lam == pytest.approx(math.pi / target, rel=1e-13)
    assert len(lams) <= 4


@pytest.mark.parametrize("target", [0.3, 2.0, 20.0])
def test_find_lambda_polar_quartic_takes_at_most_four_integrals(target, monkeypatch):
    g = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.9})
    problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), g)
    assert dual_integral(problem, 1.0, SPEC).engine == "polar"
    lams = _count_phi_evals(monkeypatch)
    lam = find_lambda_for_target(problem, target, (1e-3, 1e3), SPEC)
    assert len(lams) <= 4
    assert abs(dual_integral(problem, lam, SPEC).value - target) <= SPEC.rel_tol * target


def test_find_lambda_target_below_phi_hi(disc_problem):
    phi_hi = dual_integral(disc_problem, 1e3, SPEC).value
    with pytest.raises(BracketError):
        find_lambda_for_target(disc_problem, 0.5 * phi_hi, (1e-3, 1e3), SPEC)


@pytest.mark.parametrize("bracket", [(1e-3, 1e3), (0.5, 50.0), (1.5, 8.0)])
@pytest.mark.parametrize("target", [0.1, 0.5, 0.7])
def test_find_lambda_non_monotone_phi_never_returns_a_bad_root(disc_g, bracket, target):
    # f = 1 - |x|^2 changes sign: phi = pi (lam - 1) / lam^2 rises from
    # below 0 to pi/4 at lam = 2, then falls.
    f = MultiPoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    problem = SublevelProblem(2, f, disc_g)
    try:
        lam = find_lambda_for_target(problem, target, bracket, SPEC)
    except (EvaluationNoiseError, BracketError):
        return
    assert abs(math.pi * (lam - 1.0) / lam**2 - target) <= SPEC.rel_tol * target


def test_find_lambda_non_homogeneous_g_skips_the_bracket_ends():
    # The lam = 1e-3 end needs a box far beyond the effort cap; the
    # search never goes there because the root lies near lam = 0.78.
    g = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (4, 0): 1.0})
    problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), g)
    spec = QuadratureSpec(nodes_per_axis=16, rel_tol=1e-6)
    lam = find_lambda_for_target(problem, 3.0, (1e-3, 1e3), spec)
    assert lam == pytest.approx(0.781491, rel=1e-5)
    assert abs(dual_integral(problem, lam, spec).value - 3.0) <= spec.rel_tol * 3.0


# find-lambda's g = |x|^2 + |x|^4 and f = 1.3 + 0.4|x|^2: g has no degree,
# so every phi of the search runs the box engine.
_RADIAL_G = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
_RADIAL_F = MultiPoly(2, {(0, 0): 1.3, (2, 0): 0.4, (0, 2): 0.4})
_RADIAL_SPEC = QuadratureSpec(nodes_per_axis=16, rel_tol=1e-6)


def _record_samples(monkeypatch):
    samples = []
    inner = duality.dual_integral

    def recording(problem, lam, spec):
        samples.append((lam, inner(problem, lam, spec)))
        return samples[-1][1]

    monkeypatch.setattr(duality, "dual_integral", recording)
    return samples


def _assert_samples_are_fresh_integrals(samples, problem, spec):
    # The problem's store changes no bits: each phi of the search is what a
    # call on a fresh problem gives (this module's dual_integral is the
    # unpatched one).
    assert len(samples) >= 2
    for lam, est in samples:
        fresh = dual_integral(replace(problem), lam, spec)
        assert (est.value, est.magnitude, est.error_estimate, est.effort) == (
            fresh.value, fresh.magnitude, fresh.error_estimate, fresh.effort)


def _radial_problem_seeing_points():
    """The radial problem, with f and g recording the points they are given."""
    seen = {"f": [], "g": []}

    def counted(name, h):
        def evaluator(pts):
            seen[name].append(pts.copy())
            return h(pts)
        return evaluator

    return SublevelProblem(2, counted("f", _RADIAL_F), counted("g", _RADIAL_G)), seen


def _assert_each_point_seen_once(seen):
    for name, calls in seen.items():
        pts = np.concatenate(calls)
        assert np.unique(pts, axis=0).shape[0] == pts.shape[0], name


def test_find_lambda_evaluates_f_and_g_once_per_box_grid_point(monkeypatch):
    problem, seen = _radial_problem_seeing_points()
    samples = _record_samples(monkeypatch)
    find_lambda_for_target(problem, 1.5, (1e-2, 1e2), _RADIAL_SPEC)
    assert {est.engine for _, est in samples} == {"box-gauss-legendre"}
    _assert_each_point_seen_once(seen)
    _assert_samples_are_fresh_integrals(samples, problem, _RADIAL_SPEC)


def test_find_lambda_runs_each_sphere_sum_once(quartic_g, monkeypatch):
    # f = x1^2 + 0.3 x1 x2 + 1 has two pieces; g is opaque with its
    # degree stated, so its evaluations count what the sphere sums run.
    points = []

    def g(pts):
        points.append(pts.shape[0])
        return quartic_g(pts)

    f = MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.3, (0, 0): 1.0})
    problem = SublevelProblem(2, f, g, g_degree=4)
    samples = _record_samples(monkeypatch)
    points.clear()
    find_lambda_for_target(problem, 2.0, (1e-3, 1e3), SPEC)
    in_search = sum(points)
    assert {est.engine for _, est in samples} == {"polar"}
    fresh = replace(problem)
    points.clear()
    dual_integral(fresh, samples[0][0], SPEC)
    assert in_search == sum(points) > 0
    _assert_samples_are_fresh_integrals(samples, problem, SPEC)


def _hexes(est):
    return tuple(float(x).hex() for x in (est.value, est.magnitude, est.error_estimate, est.effort))


def test_a_problem_runs_each_sphere_sum_once_over_separate_calls(quartic_g, monkeypatch):
    # Two pieces of f, three lam, then two levels y of v_polynomial, whose
    # pieces read the problem's sums: one sphere integral per piece in all.
    calls = []
    inner = cubature._sphere_integral

    def counting(f, g, dim, p, spec):
        calls.append(p)
        return inner(f, g, dim, p, spec)

    problem = SublevelProblem(2, MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.3, (0, 0): 1.0}), quartic_g)
    monkeypatch.setattr(cubature, "_sphere_integral", counting)
    ests = [dual_integral(problem, lam, SPEC) for lam in (0.5, 1.0, 4.0)]
    assert sorted(calls) == [0.5, 1.0]  # p = (2 + k) / 4 for k = 0 and 2
    v_polynomial(problem, 1.5, SPEC)
    v_polynomial(problem, 3.0, SPEC)
    assert len(calls) == 2
    for lam, est in zip((0.5, 1.0, 4.0), ests):
        assert _hexes(est) == _hexes(dual_integral(replace(problem), lam, SPEC))


def test_a_problem_evaluates_f_and_g_once_per_box_grid_over_separate_calls(monkeypatch):
    problem, seen = _radial_problem_seeing_points()
    samples = _record_samples(monkeypatch)
    for lam in (0.3, 1.0, 3.0):
        duality.dual_integral(problem, lam, _RADIAL_SPEC)
    assert {est.engine for _, est in samples} == {"box-gauss-legendre"}
    _assert_each_point_seen_once(seen)
    _assert_samples_are_fresh_integrals(samples, problem, _RADIAL_SPEC)


def test_replace_starts_an_empty_store_that_comparisons_ignore(quartic_g):
    problem = SublevelProblem(2, MultiPoly(2, {(2, 0): 1.0, (0, 0): 1.0}), quartic_g)
    fresh = replace(problem)
    dual_integral(problem, 1.0, SPEC)
    assert problem._lam_free and not replace(problem)._lam_free
    assert problem == fresh and hash(problem) == hash(fresh) and repr(problem) == repr(fresh)
    assert "_lam_free" not in repr(problem)


def _count_calls(monkeypatch, owner, name):
    """A list that grows by one on each call of ``owner.name``."""
    calls, inner = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("g", [
    MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925}),  # the fig1 quartic: polar
    MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}),  # the disc: Gaussian weight
], ids=["fig1-quartic", "disc"])
def test_v_polynomial_builds_no_piece_problem(g, monkeypatch):
    problem = SublevelProblem(2, MultiPoly(2, {(0, 0): 1.0, (1, 0): 3.0, (2, 0): 1.0, (1, 1): 0.3}), g)
    assert [k for k, _ in problem.f_pieces] == [0, 1, 2]
    fresh = replace(problem)
    built = _count_calls(monkeypatch, SublevelProblem, "__post_init__")
    value, certs = v_polynomial(problem, 1.5, SPEC)
    assert built == [] and len(certs) == 3 and value == sum(c.v_value for c in certs)
    monkeypatch.undo()
    # Each certificate is its piece's own problem dualized at its own lambda_{y,k}.
    for (k, f_k), cert in zip(problem.f_pieces, certs):
        alone = v_polynomial(SublevelProblem(2, f_k, g, f_degree=k), 1.5, SPEC)[1][0]
        assert alone == cert
    assert v_polynomial(fresh, 1.5, SPEC) == (value, certs)


def test_a_problem_finds_its_gaussian_form_once(disc_g, quartic_g, monkeypatch):
    built = _count_calls(monkeypatch, duality, "_quadratic_form_matrix")
    problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), disc_g)
    assert len(built) == 1
    np.testing.assert_array_equal(problem._gaussian_q, np.eye(2))
    assert not problem._gaussian_q.flags.writeable
    ests = [dual_integral(problem, lam, SPEC) for lam in (0.5, 1.0, 4.0)]
    assert len(built) == 1
    assert {est.engine for est in ests} == {"gaussian-quadratic"}
    assert [est.value for est in ests] == pytest.approx([2 * math.pi, math.pi, math.pi / 4], rel=1e-14)
    # Derived, so replace finds it again, and it takes no part in ==, hash or repr.
    fresh = replace(problem)
    assert len(built) == 2 and fresh._gaussian_q is not problem._gaussian_q
    assert replace(problem, g=quartic_g, g_degree=4)._gaussian_q is None
    assert SublevelProblem(2, MultiPoly.constant(2, 1.0), lambda p: disc_g(p), g_degree=2)._gaussian_q is None
    assert problem == fresh and hash(problem) == hash(fresh) and repr(problem) == repr(fresh)
    assert "_gaussian_q" not in repr(problem)


def test_box_route_refuses_a_g_of_degree_that_vanishes_on_a_ray(monkeypatch):
    # An opaque f takes the box route; g = x1^2 vanishes on the x2 axis, so
    # its sublevel sets are unbounded and no box can hold the integral.
    def refuse(*args, **kwargs):
        raise AssertionError("the box engine ran")

    monkeypatch.setattr(duality, "integrate_box", refuse)
    problem = SublevelProblem(2, lambda p: np.ones(p.shape[0]), MultiPoly(2, {(2, 0): 1.0}))
    with pytest.raises(UnboundedSublevelError, match="sphere minimum 0.0"):
        dual_integral(problem, 1.0, SPEC)


@pytest.mark.parametrize("make, spec", [
    (lambda: SublevelProblem(2, _RADIAL_F, _RADIAL_G), _RADIAL_SPEC),
    (lambda: SublevelProblem(2, MultiPoly(2, {(2, 0): 1.0, (0, 0): 1.0}),
                             MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.9})), SPEC),
], ids=["box", "polar"])
def test_threads_sharing_a_problem_give_the_single_thread_bits(make, spec):
    # More threads than cores, switching often, fill and read one store.
    lams = (0.3, 1.0, 3.0, 0.3)
    expected = [_hexes(dual_integral(make(), lam, spec)) for lam in lams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            problem, got = make(), [None] * len(lams)
            start = threading.Barrier(len(lams), timeout=60)

            def run(i):
                start.wait()
                got[i] = _hexes(dual_integral(problem, lams[i], spec))

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(lams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert got == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("problem, target, bracket, lam_hex", [
    (SublevelProblem(2, _RADIAL_F, _RADIAL_G), 6.0, (1e-2, 1e2), "0x1.48103222e47a4p-2"),
    (SublevelProblem(2, _RADIAL_F, _RADIAL_G), 1.5, (1e-2, 1e2), "0x1.e9e033967a554p+0"),
    (SublevelProblem(2, _RADIAL_F, _RADIAL_G), 0.4, (1e-2, 1e2), "0x1.1e7d5390c8f11p+3"),
    (SublevelProblem(2, MultiPoly.constant(2, 1.0), MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (4, 0): 1.0})),
     3.0, (1e-3, 1e3), "0x1.901fa46998493p-1"),
])
def test_find_lambda_returns_the_same_bits(problem, target, bracket, lam_hex):
    # Pinned from the search that evaluated f and g afresh at every lam.
    assert find_lambda_for_target(problem, target, bracket, _RADIAL_SPEC).hex() == lam_hex


def test_gaussian_certificate_bounds_high_degree_error(interval_g):
    # f = x^k, g = x^2, y = 1: v = 2 / (k + 1).  A fixed 1e-14 * |v| fell
    # below the observed error from k = 60 on.
    misses = []
    for k in range(20, 401, 2):
        problem = SublevelProblem(1, MultiPoly.monomial(1, (k,)), interval_g)
        cert = v_polynomial(problem, 1.0, SPEC)[1][0]
        assert cert.method == "dual-gaussian"
        if abs(cert.v_value - 2.0 / (k + 1)) > cert.error_estimate:
            misses.append(k)
    assert misses == []


def test_subnormal_certificate_is_no_finer_than_its_rounding():
    # f = x1^40 over x1^4 + x2^4 has v(y) = y^10.5 v(1).  At y = 1e-30 v is
    # subnormal, rel_tol * |v| underflowed, and the certificate claimed 0.0.
    mpmath = pytest.importorskip("mpmath")
    problem = SublevelProblem(2, MultiPoly(2, {(40, 0): 1.0}), MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0}))
    v_one = v_polynomial(problem, 1.0, SPEC)[0]
    y = 1e-30
    v, (cert,) = v_polynomial(problem, y, SPEC)
    assert 0.0 < v < sys.float_info.min
    assert cert.error_estimate >= math.ulp(v)
    with mpmath.workdps(40):
        error = abs(mpmath.mpf(v) - mpmath.mpf(v_one) * mpmath.mpf(y) ** mpmath.mpf(10.5))
    assert error <= cert.error_estimate


@pytest.mark.parametrize("r", [0.9, 0.999, 0.99999])
def test_gaussian_certificate_covers_ill_conditioned_q(r):
    # K_1 = {x1^2 + 2 r x1 x2 + x2^2 <= 1} has area pi / sqrt(1 - r^2).
    # 1 - r^2 is formed exactly from the binary r, so the reference is
    # good to about an ulp, while the engine's det Q loses ~1 / (1 - r).
    g = MultiPoly(2, {(2, 0): 1.0, (1, 1): 2.0 * r, (0, 2): 1.0})
    cert = v_polynomial(SublevelProblem(2, MultiPoly.constant(2, 1.0), g), 1.0, SPEC)[1][0]
    assert cert.method == "dual-gaussian"
    exact = math.pi / math.sqrt(float(1 - Fraction(r) ** 2))
    assert abs(cert.v_value - exact) <= cert.error_estimate


def test_gaussian_certificate_for_opaque_f(disc_g):
    # An opaque f carries no degree to bound the rule's rounding with, so
    # its passes double until two agree, and the certificate is the agreement
    # test's rel_tol * max(|v|, magnitude); f = 1 has magnitude v.
    problem = SublevelProblem(2, lambda p: np.ones(p.shape[0]), disc_g, f_degree=0)
    cert = v_polynomial(problem, 2.0, SPEC)[1][0]
    assert cert.method == "dual-gaussian"
    assert cert.v_value == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert cert.error_estimate == SPEC.rel_tol * cert.v_value
    assert abs(cert.v_value - 2.0 * math.pi) <= cert.error_estimate


def test_box_refuses_a_schedule_without_two_passes_up_front():
    # An opaque f with no degree keeps the data on the box engine.  At 64
    # nodes per axis in d = 4 only the first pass (64^4 = 2^24 points)
    # fits under the cap, so no two passes can ever agree.
    calls = []

    def f(p):
        calls.append(p.shape[0])
        return np.ones(p.shape[0])

    with pytest.raises(EffortError):
        dual_integral(SublevelProblem(4, f, _four_dim_quartic()), 1.0, SPEC)
    assert calls == []


def test_sphere_refuses_a_schedule_without_two_passes_up_front():
    # With f's degree stated the data runs on the sphere.  In d = 22 even
    # the pass at 2 nodes per angle has 2 * 2^21 points, over the 2^21 cap,
    # so no two passes fit from any start and only the axis probes run: the
    # degree check's two and the sphere's one, 44 points each.
    calls = []

    def f(p):
        calls.append(p.shape[0])
        return np.ones(p.shape[0])

    g = MultiPoly(22, {tuple(4 * (j == i) for j in range(22)): 1.0 for i in range(22)})
    with pytest.raises(EffortError, match="none run"):
        dual_integral(SublevelProblem(22, f, g, f_degree=0), 1.0, SPEC)
    assert calls == [44, 44, 44]


def test_polynomial_gaussian_dual_builds_no_rule_or_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial f reached a Gauss-Hermite rule or a tensor grid")

    monkeypatch.setattr(cubature, "gauss_hermite_rule", refuse)
    monkeypatch.setattr(cubature, "_tensor_apply", refuse)
    f = MultiPoly(3, {(0, 0, 0): 1.0, (2, 0, 2): 2.0, (1, 1, 0): -1.0})
    g = MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.5, (0, 0, 2): 2.0})
    est = dual_integral(SublevelProblem(3, f, g), 0.8, SPEC)
    assert est.engine == "gaussian-quadratic"
    assert est.value == pytest.approx(
        separable_power_integral(f.terms, (1.0, 1.5, 2.0), 0.8, 2), rel=1e-13
    )


@pytest.mark.parametrize("dim", [5, 10, 16])
def test_v_polynomial_over_a_quadratic_form_in_high_dimension(dim):
    # v(1) = integral f exp(-g) / Gamma(1 + (d + 4) / 2) for f of degree 4.
    a = [1.0 + 0.1 * i for i in range(dim)]
    g = MultiPoly(dim, {tuple(2 * (j == i) for j in range(dim)): a_i for i, a_i in enumerate(a)})
    f_terms = {(2, 2) + (0,) * (dim - 2): 1.0}
    t0 = time.perf_counter()
    value, certs = v_polynomial(SublevelProblem(dim, MultiPoly(dim, f_terms), g), 1.0, SPEC)
    assert time.perf_counter() - t0 < 0.05
    exact = separable_power_integral(f_terms, a, 1.0, 2) / math.gamma(1.0 + (dim + 4) / 2.0)
    assert [c.method for c in certs] == ["dual-gaussian"]
    assert abs(value - exact) <= certs[0].error_estimate
