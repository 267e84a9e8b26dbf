import math

import pytest

from lapdual import (
    ExtractionError,
    InputError,
    MultiPoly,
    QuadratureSpec,
    SublevelProblem,
    mean_value_point,
)

SPEC = QuadratureSpec()


def test_constant_integrand_any_member_works(disc_g, one_2d):
    problem = SublevelProblem(2, one_2d, disc_g)
    result = mean_value_point(problem, 1.0, SPEC)
    assert result.residual <= 1e-9 * (1.0 + abs(result.target_mean))
    assert result.attempts == 0
    assert disc_g(result.point) <= 1.0


def test_interval_quadratic_instance(interval_g):
    # f = g = x^2, y = 1: c = (2/3)/2 = 1/3, so |x*| = 3^(-1/2).
    problem = SublevelProblem(1, interval_g, interval_g)
    result = mean_value_point(problem, 1.0, SPEC)
    c = result.target_mean
    assert c == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert result.residual <= 1e-6 * (1.0 + abs(c))
    assert abs(result.point[0]) == pytest.approx(3.0**-0.5, abs=1e-6)
    assert interval_g(result.point) <= 1.0


def test_disc_radial_instance(disc_g):
    # f = g = |x|^2, y = 1: c = (pi/2)/pi = 1/2, point on radius 2^(-1/2).
    problem = SublevelProblem(2, disc_g, disc_g)
    result = mean_value_point(problem, 1.0, SPEC)
    assert result.target_mean == pytest.approx(0.5, rel=1e-10)
    radius = math.hypot(*result.point)
    assert radius == pytest.approx(2.0**-0.5, abs=1e-6)
    assert disc_g(result.point) <= 1.0


def test_nonconvex_quartic_star(quartic_g, disc_g):
    # f = |x|^2 over the four-lobed quartic star: segments between lobes
    # can leave the set, exercising the resample-and-retry policy.
    problem = SublevelProblem(2, disc_g, quartic_g)
    result = mean_value_point(problem, 1.0, QuadratureSpec(nodes_per_axis=96))
    assert quartic_g(result.point) <= 1.0
    assert result.residual <= 1e-6 * (1.0 + abs(result.target_mean))
    assert result.f_at_point == pytest.approx(result.target_mean, abs=1e-8)


def test_membership_and_determinism_across_seeds(interval_g):
    problem = SublevelProblem(1, interval_g, interval_g)
    for seed in range(20):
        spec = QuadratureSpec(seed=seed)
        result = mean_value_point(problem, 1.0, spec)
        assert interval_g(result.point) <= 1.0
        again = mean_value_point(problem, 1.0, spec)
        assert again.point == result.point


def test_disconnected_set_reports_extraction_failure():
    # g = (x^2 - 1)^2 at level 1/4: two disjoint intervals.  f = x has
    # mean zero, so any straddling pair crosses the gap and every
    # segment midpoint leaves the set.
    g = MultiPoly(1, {(4,): 1.0, (2,): -2.0, (0,): 1.0})
    f = MultiPoly.monomial(1, (1,))
    problem = SublevelProblem(1, f, g)
    spec = QuadratureSpec(box_radius=2.0, sample_count=50_000)
    with pytest.raises(ExtractionError) as err:
        mean_value_point(problem, 0.25, spec)
    best = err.value.best
    assert best is not None
    assert g((best.point[0],)) <= 0.25


def test_requires_enclosure_information(one_2d):
    problem = SublevelProblem(2, one_2d, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2)
    with pytest.raises(InputError):
        mean_value_point(problem, 1.0, QuadratureSpec())


def test_rejects_nonpositive_y(disc_g, one_2d):
    problem = SublevelProblem(2, one_2d, disc_g)
    with pytest.raises(InputError):
        mean_value_point(problem, 0.0, SPEC)


@pytest.mark.parametrize(
    "f, g",
    [
        ({(400,): 1.0}, {(2,): 10.0}),  # c = 2.5e-203
        ({(4,): 1e-10}, {(2,): 1.0}),  # c = 2.0e-11
    ],
    ids=["x400", "tiny-quartic"],
)
def test_small_target_mean_is_met_relatively(f, g):
    problem = SublevelProblem(1, MultiPoly(1, f), MultiPoly(1, g))
    result = mean_value_point(problem, 1.0, SPEC)
    assert result.residual <= 1e-9 * abs(result.target_mean)
    assert result.f_at_point == pytest.approx(result.target_mean, rel=1e-9)
