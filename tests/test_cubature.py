import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import separable_power_integral
from lapdual import (
    EffortError,
    EvaluationError,
    GeneralizedPolynomial,
    InputError,
    IntegralEstimate,
    MultiPoly,
    QuadratureSpec,
    SimplexMonomial,
    SublevelProblem,
    UnboundedSublevelError,
    auto_enclosing_radius,
    box_pass,
    dual_integral,
    find_lambda_for_target,
    gauss_hermite_rule,
    gauss_legendre_rule,
    integrate_box,
    integrate_gaussian_quadratic,
    lambda_y_homogeneous,
    monte_carlo_sublevel,
    sphere_minimum,
)
from lapdual import cubature, rng
from lapdual.cubature import MAX_HERMITE_NODES
from lapdual.simplex import simplex_box_indicator

MC_SPEC = QuadratureSpec(sample_count=10**6, seed=0)


def test_gauss_legendre_midpoint_rule():
    nodes, weights = gauss_legendre_rule(1)
    assert nodes[0] == 0.0
    assert weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_two_points():
    nodes, weights = gauss_legendre_rule(2)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_degree_three_exactness():
    nodes, weights = gauss_legendre_rule(2)
    assert float(np.dot(weights, nodes**2)) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64, 128, 200])
def test_gauss_legendre_weights(n):
    nodes, weights = gauss_legendre_rule(n)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 2.0) <= 1e-14
    assert np.array_equal(nodes, -nodes[::-1])  # exact symmetry
    assert np.all(np.diff(nodes) > 0)


def test_gauss_legendre_polynomial_exactness_property():
    rng = np.random.default_rng(123)
    for n in (1, 2, 3, 4, 6, 8, 16, 32):
        nodes, weights = gauss_legendre_rule(n)
        for _ in range(10):
            coefs = rng.normal(size=2 * n)  # degree 2n - 1
            vals = np.polynomial.polynomial.polyval(nodes, coefs)
            estimate = float(np.dot(weights, vals))
            exact = sum(
                c * (1.0 - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coefs)
            )
            assert estimate == pytest.approx(exact, rel=1e-12, abs=1e-12)


def _legendre_root_by_root(n):
    """The Gauss-Legendre rule by Newton's method on P_n, one root at a time
    in Python floats: the iteration the rule must reproduce bit for bit."""
    nodes, weights = np.empty(n), np.empty(n)
    for i in range(1, (n + 1) // 2 + 1):
        t = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, t
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
            dp = n * (t * p - p_prev) / (t * t - 1.0)
            dt = -p / dp
            t += dt
            if abs(dt) <= 1e-15 * max(1.0, abs(t)):
                break
        p_prev, p = 1.0, t
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
        dp = n * (t * p - p_prev) / (t * t - 1.0)
        nodes[i - 1], nodes[n - i] = -t, t
        weights[i - 1] = weights[n - i] = 2.0 / ((1.0 - t * t) * dp * dp)
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    return nodes, weights


def test_gauss_legendre_rule_is_the_root_by_root_iteration():
    # All roots iterate at once in numpy; each must be the same double,
    # down to the sign of zero, as when it iterates alone.
    for n in [*range(1, 301), 511, 512, 1023, 1024, 2048]:
        nodes, weights = gauss_legendre_rule(n)
        ref_nodes, ref_weights = _legendre_root_by_root(n)
        assert nodes.tobytes() == ref_nodes.tobytes(), n
        assert weights.tobytes() == ref_weights.tobytes(), n


def test_gauss_legendre_rejects_bad_n():
    with pytest.raises(InputError):
        gauss_legendre_rule(0)


def test_gauss_hermite_moments():
    nodes, weights = gauss_hermite_rule(8)
    root_pi = math.sqrt(math.pi)
    assert float(weights.sum()) == pytest.approx(root_pi, rel=1e-13)
    assert float(np.dot(weights, nodes**2)) == pytest.approx(root_pi / 2, rel=1e-12)
    assert float(np.dot(weights, nodes**4)) == pytest.approx(3 * root_pi / 4, rel=1e-12)
    assert np.array_equal(nodes, -nodes[::-1])
    # The default 64-node rule: every even moment through degree 2n - 2,
    # where the small tail weights carry the whole value.
    nodes, weights = gauss_hermite_rule(64)
    for k in range(0, 127, 2):
        moment = math.fsum(weights * nodes**k)
        assert moment == pytest.approx(math.gamma((k + 1) / 2), rel=1e-13), k
    assert np.array_equal(nodes, -nodes[::-1])


def test_gauss_hermite_rule_size_cap():
    nodes, weights = gauss_hermite_rule(MAX_HERMITE_NODES)
    assert math.fsum(weights) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    with pytest.raises(InputError):
        gauss_hermite_rule(MAX_HERMITE_NODES + 1)
    # The engine caps a larger request instead of failing: its doubling
    # passes start at 370 halved, so that twice the start fits, and end at 370.
    spec = QuadratureSpec(nodes_per_axis=512)
    est = integrate_gaussian_quadratic(lambda p: p[:, 0] ** 2, np.eye(1), 1.0, spec)
    assert est.value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert est.effort == MAX_HERMITE_NODES // 2 + MAX_HERMITE_NODES


def test_integrate_box_constant_is_volume():
    value, magnitude, points = box_pass(lambda p: np.ones(p.shape[0]), 2, 1.0, 8)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert magnitude == value
    assert points == 64


def test_integrate_box_gaussian_oracle():
    value, _, _ = box_pass(lambda p: np.exp(-p[:, 0] ** 2), 1, 8.0, 64)
    assert abs(value - math.sqrt(math.pi)) <= 1e-10


def test_integrate_box_auto_pinned_by_monte_carlo(quartic_g, one_2d):
    # The whole-space weight integral equals Gamma(3/2) * v(1), with v(1)
    # estimated independently by hit-or-miss sampling of the level set.
    def weight(p):
        return np.exp(-quartic_g(p))

    m_sphere = (1.0 + 1.0 - 1.925) / 4.0  # exact sphere minimum, at the diagonals
    r0 = (40.0 / m_sphere) ** 0.25
    est = integrate_box(weight, 2, QuadratureSpec(nodes_per_axis=96), initial_radius=r0)
    assert est.box_radius_used >= r0

    radius = auto_enclosing_radius(quartic_g, 1.0)
    mc = monte_carlo_sublevel(one_2d, quartic_g, 2, 1.0, radius, MC_SPEC)
    gamma_15 = math.gamma(1.5)
    assert abs(est.value - gamma_15 * mc.value) <= 4.0 * gamma_15 * mc.std_error


def test_integrate_box_effort_cap():
    # 512^3 points exceed the tensor cap: at most 256 nodes per axis in d = 3.
    with pytest.raises(EffortError, match="at most 256 nodes per axis"):
        box_pass(lambda p: np.ones(p.shape[0]), 3, 1.0, 512)


def test_integrate_box_divergent_integrand_flags():
    # Constant integrand grows with the box: enlargement cannot stabilize.
    spec = QuadratureSpec(nodes_per_axis=4)
    with pytest.raises(EffortError):
        integrate_box(lambda p: np.ones(p.shape[0]), 1, spec)


def test_integrate_box_non_finite_value():
    with pytest.raises(EvaluationError):
        box_pass(lambda p: np.full(p.shape[0], np.nan), 1, 1.0, 4)


def test_box_pass_memo_keeps_one_chunk_grids_only():
    calls = []

    def parts(pts):
        calls.append(pts.shape[0])
        return (np.sum(pts * pts, axis=1),)

    phi = cubature.SplitIntegrand(parts, lambda r2: np.exp(-0.5 * r2))
    memo = {}
    small = [box_pass(phi, 2, 3.0, 64, memo=memo) for _ in range(2)]
    assert small == [box_pass(phi, 2, 3.0, 64)] * 2
    assert calls == [64 * 64, 64 * 64]  # the memo's fill, then the pass without one
    assert list(memo) == [("box", 3.0, 64)]
    # 1024^2 points take four chunks: the memo is emptied, none is kept.
    assert box_pass(phi, 2, 3.0, 1024, memo=memo) == box_pass(phi, 2, 3.0, 1024)
    assert memo == {}
    # A non-finite value is refused on every pass, the memo's too.
    bad = cubature.SplitIntegrand(lambda pts: (pts[:, 0],), lambda x: np.where(x > 0, np.inf, 1.0))
    for _ in range(2):
        with pytest.raises(EvaluationError):
            box_pass(bad, 1, 1.0, 4, memo=memo)


def _gaussian_2d(p):
    return np.exp(-np.sum(p * p, axis=1))


@pytest.mark.parametrize("run", [
    lambda spec: integrate_box(_gaussian_2d, 2, spec),
    lambda spec: integrate_gaussian_quadratic(MultiPoly(2, {(2, 2): 1.0}), np.eye(2) + 0.1, 0.7, spec),
    lambda spec: integrate_gaussian_quadratic(lambda p: np.exp(p[:, 0]), np.eye(2), 1.0, spec),
    lambda spec: dual_integral(SublevelProblem(
        2, MultiPoly.constant(2, 1.0), MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0})), 1.0, spec),
    lambda spec: monte_carlo_sublevel(
        MultiPoly.constant(2, 1.0), MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), 2, 1.0, 1.0, spec),
], ids=["box", "gaussian-moments", "gauss-hermite", "polar", "monte-carlo"])
def test_engines_ignore_spec_engine(run):
    # The caller chooses an engine by calling it; the spec's engine name,
    # kept only for the benchmark, changes nothing.
    spec = QuadratureSpec(sample_count=10_000, seed=3)
    ref = run(spec)
    for name in cubature._ENGINES:
        est = run(replace(spec, engine=name))
        assert (est.value.hex(), est.error_estimate.hex()) == (ref.value.hex(), ref.error_estimate.hex())


def test_integrate_box_ignores_a_numeric_box_radius():
    # The adaptive box chooses and verifies its radius; one pass at a given
    # radius is box_pass.
    auto = integrate_box(_gaussian_2d, 2, QuadratureSpec())
    assert repr(integrate_box(_gaussian_2d, 2, QuadratureSpec(box_radius=3.0))) == repr(auto)


@pytest.mark.parametrize("error", [None, -1.0, math.nan])
def test_integral_estimate_requires_an_error_bound(error):
    with pytest.raises(InputError, match="error_estimate"):
        IntegralEstimate(1.0, None, "polar", 1, None, 1.0, error)


@pytest.mark.parametrize("value", [0.0, 5e-320, -3e-310, 1.0])
def test_integral_estimate_error_is_at_least_the_ulp_of_its_value(value):
    est = IntegralEstimate(value, None, "polar", 1, None, abs(value), 0.0)
    assert est.error_estimate == math.ulp(value)
    assert IntegralEstimate(value, None, "polar", 1, None, 1.0, 0.5).error_estimate == 0.5
    # No evaluation formed the exact zero of a zero f: nothing was rounded.
    assert IntegralEstimate(0.0, None, "polar", 0, None, 0.0, 0.0).error_estimate == 0.0


def test_sublevel_integrand_runs_f_inside_and_halves_the_level_set():
    seen = []

    def f(p):
        seen.append(p.copy())
        return 2.0 + p[:, 0]

    pts = np.array([[-2.0], [-1.0], [0.5], [1.0], [3.0]])
    integrand = cubature.sublevel_integrand(f, lambda p: np.abs(p[:, 0]), 1.0)
    assert integrand(pts).tolist() == [0.0, 0.5, 2.5, 1.5, 0.0]
    assert seen[0].tolist() == [[-1.0], [0.5], [1.0]]
    assert integrand(pts[[0, 4]]).tolist() == [0.0, 0.0]
    assert len(seen) == 1  # no point inside: f does not run


def _boolean_index_integrand(f, g, y):
    """``sublevel_integrand`` with its rows taken by boolean indexing."""

    def integrand(pts):
        g_vals = np.asarray(g(pts), dtype=float)
        inside = g_vals <= y
        vals = np.zeros(pts.shape[0])
        if inside.any():
            vals[inside] = f(pts[inside])
        vals[g_vals == y] *= 0.5
        return vals

    return integrand


@pytest.mark.parametrize("d", range(1, 13))
def test_sublevel_integrand_equals_a_boolean_index_reference(d):
    gen = np.random.default_rng(d)
    f = MultiPoly(d, {(0,) * d: -0.25, tuple(gen.integers(0, 4, d)): 1.5, tuple(gen.integers(0, 3, d)): 0.7})
    g = MultiPoly(d, {tuple(2 * (j == i) for j in range(d)): 1.0 + i for i in range(d)})
    wide = gen.uniform(-1.0, 1.0, (3000, 2 * d))
    on_level = float(g(wide[:1, :d])[0])
    for pts in (wide[:, :d].copy(), wide[:, ::2], wide[::3, :d], np.asfortranarray(wide[:, :d])):
        g_vals = g(pts)
        # No row inside, some (one of them on the level set), and all.
        for y, inside in ((-1.0, 0), (on_level, None), (float(g_vals.max()), len(pts))):
            got = cubature.sublevel_integrand(f, g, y)(pts)
            assert got.tobytes() == _boolean_index_integrand(f, g, y)(pts).tobytes()
            assert inside is None or np.count_nonzero(g_vals <= y) == inside
    assert 0 < np.count_nonzero(g(wide[:, :d]) <= on_level) < len(wide)


def test_gaussian_quadratic_identity_weight():
    spec = QuadratureSpec(nodes_per_axis=16)
    est = integrate_gaussian_quadratic(
        lambda p: np.ones(p.shape[0]), np.eye(2), 1.0, spec
    )
    assert est.value == pytest.approx(math.pi, rel=1e-12)


def test_gaussian_quadratic_interval_dual_value():
    spec = QuadratureSpec(nodes_per_axis=16)
    est = integrate_gaussian_quadratic(
        lambda p: np.ones(p.shape[0]), np.eye(1), math.pi / 4.0, spec
    )
    assert est.value == pytest.approx(2.0, rel=1e-12)


def test_gaussian_quadratic_second_moment():
    spec = QuadratureSpec(nodes_per_axis=16)
    est = integrate_gaussian_quadratic(
        lambda p: p[:, 0] ** 2, np.diag([1.0, 1.0]), 1.0, spec
    )
    assert est.value == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_gaussian_quadratic_non_diagonal_oracle():
    # Q = [[2, 1/2], [1/2, 1]], lam = 1.3:
    # integral of exp(-lam x'Qx) = pi / (lam * sqrt(det Q)), and
    # integral of x1^2 exp(-x'Qx) = pi / sqrt(det Q) * (Q^{-1})_{11} / 2.
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    det = 2.0 - 0.25
    spec = QuadratureSpec(nodes_per_axis=16)
    mass = integrate_gaussian_quadratic(lambda p: np.ones(p.shape[0]), Q, 1.3, spec)
    assert mass.value == pytest.approx(math.pi / (1.3 * math.sqrt(det)), rel=1e-12)
    inv_11 = float(np.linalg.inv(Q)[0, 0])
    moment = integrate_gaussian_quadratic(lambda p: p[:, 0] ** 2, Q, 1.0, spec)
    assert moment.value == pytest.approx(
        math.pi / math.sqrt(det) * inv_11 / 2.0, rel=1e-12
    )


def test_gaussian_quadratic_rejects_bad_matrices():
    spec = QuadratureSpec()
    f = lambda p: np.ones(p.shape[0])
    with pytest.raises(InputError):
        integrate_gaussian_quadratic(f, np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, spec)
    with pytest.raises(InputError):
        integrate_gaussian_quadratic(f, np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, spec)
    with pytest.raises(InputError):
        integrate_gaussian_quadratic(f, np.eye(2), -1.0, spec)


@pytest.mark.parametrize(
    "f",
    [MultiPoly(3, {(2, 0, 2): 1.0}), MultiPoly(1, {(2,): 1.0}), MultiPoly.constant(3, 1.0)],
    ids=["x1sq-x3sq", "1d", "constant-3d"],
)
def test_gaussian_quadratic_refuses_f_of_another_dim(f, monkeypatch):
    formed = []
    monkeypatch.setattr(cubature, "_gaussian_moments", lambda *args: formed.append(args))
    with pytest.raises(InputError, match="dim"):
        integrate_gaussian_quadratic(f, np.eye(2), 1.0, GAUSS_SPEC)
    assert formed == []


@pytest.mark.parametrize("lam", [1e100, 1e-100])
def test_gaussian_quadratic_opaque_scale_stays_in_range(lam):
    # The integral of exp(-lam |x|^2) over R^8 is (pi / lam)^4: 9.7e-399
    # rounds to 0, and 9.7e401 is past the largest double.
    spec = QuadratureSpec(nodes_per_axis=4)
    f = lambda p: np.ones(p.shape[0])
    if lam > 1:
        assert integrate_gaussian_quadratic(f, np.eye(8), lam, spec).value == 0.0
    else:
        with pytest.raises(EvaluationError, match="overflows"):
            integrate_gaussian_quadratic(f, np.eye(8), lam, spec)


def test_gaussian_moments_of_a_value_whose_scale_leaves_the_double_range():
    # sqrt(det Q) = 1e393 and E[x1^100] = 99!! * (5e5)^50 are each past the
    # double range; v = 1.7435e-5 is inside it.
    dim = 100
    a = [1e-6] + [1e8] * (dim - 1)
    f = MultiPoly.monomial(dim, (100,) + (0,) * (dim - 1))
    est = integrate_gaussian_quadratic(f, np.diag(a), 1.0, GAUSS_SPEC)
    exact = separable_power_integral(f.terms, a, 1.0, 2)
    assert exact == pytest.approx(1.7435e-5, rel=1e-4)
    assert abs(est.value - exact) <= est.error_estimate


def test_gaussian_quadratic_consistent_with_box():
    # Random PD forms and low-degree polynomial integrands: the two
    # deterministic engines must agree.
    rng = np.random.default_rng(99)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        Q = a.T @ a + 0.5 * np.eye(2)
        lam = float(rng.uniform(0.5, 2.0))
        coefs = rng.normal(size=3)

        def f(p):
            return coefs[0] + coefs[1] * p[:, 0] ** 2 + coefs[2] * p[:, 0] * p[:, 1]

        gauss = integrate_gaussian_quadratic(
            f, Q, lam, QuadratureSpec(nodes_per_axis=24)
        )
        eig_min = float(np.linalg.eigvalsh(Q).min())
        r0 = math.sqrt(40.0 / (lam * eig_min))

        def weighted(p):
            return f(p) * np.exp(-lam * np.einsum("ij,jk,ik->i", p, Q, p))

        box = integrate_box(
            weighted, 2, QuadratureSpec(nodes_per_axis=64, rel_tol=1e-10), initial_radius=r0
        )
        assert box.value == pytest.approx(gauss.value, rel=1e-8)


def test_monte_carlo_disc_hits_pi(disc_g, one_2d):
    spec = QuadratureSpec(sample_count=10**7, seed=0)
    est = monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 1.0, spec)
    assert est.std_error is not None and est.std_error > 0
    assert abs(est.value - math.pi) <= 4.0 * est.std_error
    assert est.effort == 10**7


def test_monte_carlo_measure_zero_level(disc_g, one_2d):
    spec = QuadratureSpec(sample_count=10**5, seed=1)
    est = monte_carlo_sublevel(one_2d, disc_g, 2, 0.0, 1.0, spec)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_monte_carlo_determinism(disc_g, one_2d):
    spec = QuadratureSpec(sample_count=10**5, seed=33)
    a = monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 1.0, spec)
    b = monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 1.0, spec)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    other = monte_carlo_sublevel(
        one_2d, disc_g, 2, 1.0, 1.0, QuadratureSpec(sample_count=10**5, seed=34)
    )
    assert other.value != a.value


def test_monte_carlo_unbiased_at_scale(disc_g, one_2d):
    hits = 0
    for seed in range(50):
        spec = QuadratureSpec(sample_count=200_000, seed=seed)
        est = monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 1.0, spec)
        if abs(est.value - math.pi) <= 3.0 * est.std_error:
            hits += 1
    assert hits >= 45


def test_monte_carlo_std_error_reads_the_spread_at_both_ends_of_the_double_range():
    # f = x1^40 over x1^4 + x2^4: the box and the samples scale with y, so
    # std_error / value is the same at every level.  At y = 3e29 the squared
    # summands overflow, at y = 1e-30 they underflow (both read 0.0 before
    # each chunk was scaled); at 1e-30 value and std_error are subnormal.
    f, g = MultiPoly(2, {(40, 0): 1.0}), MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0})
    spec = QuadratureSpec(sample_count=2000)

    def spread(y):
        est = monte_carlo_sublevel(f, g, 2, y, cubature.enclosing_radius(g, y, spec), spec)
        return est.std_error / est.value

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spread(3e29) == pytest.approx(spread(1.0), rel=1e-12)
        assert spread(1e-30) == pytest.approx(spread(1.0), rel=1e-6)


def test_monte_carlo_std_error_scale_changes_no_bit_in_the_normal_range(monkeypatch):
    # Chunks of 2^14 samples whose largest |summand| 1/|x1| differs by
    # powers of two: each is squared in its own scale, and the variance is
    # formed in the largest's, yet every bit is the unscaled formula's.
    monkeypatch.setattr(cubature, "_MC_CHUNK", 1 << 14)
    n, dim, radius, seed = 2**17 + 123, 2, 1.0, 9

    def f(pts):
        return 1.0 / (np.abs(pts[:, 0]) + 1e-12)

    def g(pts):
        return np.zeros(pts.shape[0])

    est = monte_carlo_sublevel(f, g, dim, 1.0, radius, QuadratureSpec(sample_count=n, seed=seed))
    summands = f((2.0 * rng.uniforms(seed, 0, n * dim).reshape(n, dim) - 1.0) * radius)
    chunks = [summands[lo:lo + (1 << 14)] for lo in range(0, n, 1 << 14)]
    assert len({math.frexp(float(c.max()))[1] for c in chunks}) > 1
    mean = math.fsum(float(np.sum(c)) for c in chunks) / n
    count, centre, squares = 0, 0.0, 0.0
    for c in chunks:  # centred per chunk, merged by Chan, Golub and LeVeque's update
        rough = float(np.sum(c)) / c.size
        shift = float(np.sum(c - rough)) / c.size
        delta = rough + shift - centre
        merged = count + c.size
        centre += delta * (c.size / merged)
        squares += float(np.sum(np.square(c - rough - shift))) + delta * delta * (count * c.size / merged)
        count = merged
    box_volume = (2.0 * radius) ** dim
    std_error = box_volume * math.sqrt(squares / (n - 1) / n)
    assert (est.value, est.std_error) == (box_volume * mean, std_error)


@pytest.mark.parametrize("samples", [2**16, 2**20])
@pytest.mark.parametrize("summand", [0.1, 1 / 3])
def test_monte_carlo_std_error_of_equal_summands_is_zero(summand, samples):
    # s2 - n * mean^2 cancelled: f = 0.1 read 5.1e-12 at 2^16 samples and
    # 1.3e-12 at 2^20, f = 1/3 read 3.6e-11 and 8.9e-12.
    est = monte_carlo_sublevel(lambda pts: np.full(pts.shape[0], summand), lambda pts: np.zeros(pts.shape[0]),
                               1, 1.0, 0.5, QuadratureSpec(sample_count=samples))
    assert est.std_error == 0.0
    assert est.value == pytest.approx(summand, rel=1e-15)


def test_monte_carlo_refuses_a_std_error_past_the_double_range():
    # Summands 1e307 on half of a box of volume 400: the spread of the
    # mean is about 5e308.
    def f(pts):
        return np.full(pts.shape[0], 1e307)

    with pytest.raises(EvaluationError, match="std_error"):
        monte_carlo_sublevel(f, lambda pts: pts[:, 0], 2, 0.0, 10.0, QuadratureSpec(sample_count=16, seed=0))


def test_monte_carlo_adds_chunk_sums_past_the_double_range_in_scale():
    # Two chunks of 2^19 summands 3.3e302 each sum to 1.73e308, and the two
    # to past the largest double; their mean is in range, as is the value
    # over a box of volume 1.  A mean past the range would need a summand
    # past it, which the engine refuses first.
    def constant(c):
        return lambda pts: np.full(pts.shape[0], c)

    def run(c):
        return monte_carlo_sublevel(constant(c), lambda pts: np.zeros(pts.shape[0]), 1, 1.0, 0.5,
                                    QuadratureSpec(sample_count=2**20))

    est = run(3.3e302)
    assert est.value == pytest.approx(3.3e302, rel=1e-15) and est.std_error == 0.0
    # The same bits as an unbounded exponent: the summands 2^-30 times smaller.
    assert est.value == math.ldexp(run(math.ldexp(3.3e302, -30)).value, 30)


def test_monte_carlo_adds_a_chunk_sum_past_the_double_range_in_scale():
    # Each chunk of 2^19 summands 1e307 sums past the largest double, so the
    # chunks are added again in their own scale; no numpy overflow warning
    # (an error under pytest) is written, and the mean, 1e307, is returned.
    est = monte_carlo_sublevel(lambda pts: np.full(pts.shape[0], 1e307), lambda pts: np.zeros(pts.shape[0]),
                               1, 1.0, 0.5, QuadratureSpec(sample_count=2**20))
    assert est.value == pytest.approx(1e307, rel=1e-15)
    assert math.isfinite(est.std_error) and est.std_error <= 1e-9 * est.value


def test_doubling_refuses_a_pass_past_the_double_range():
    # The integral, 1.5e308 * sqrt(pi), is past the double range: the first
    # pass says so, where passes whose sums were inf never agreed and ran up
    # to the cap before an EffortError.
    calls = []

    def phi(pts):
        calls.append(pts.shape[0])
        return 1.5e308 * np.exp(-pts[:, 0] ** 2)

    with pytest.raises(EvaluationError, match="16-node pass is past the double range"):
        integrate_box(phi, 1, QuadratureSpec(nodes_per_axis=16))
    assert calls == [16]


def test_box_pass_sums_past_the_double_range_raise_no_warning():
    # 1e308 over [-1, 1]: one chunk whose sum is 2e308, inf for the callers
    # to refuse, with no numpy overflow warning (an error under pytest).
    assert box_pass(lambda pts: np.full(pts.shape[0], 1e308), 1, 1.0, 8)[:2] == (math.inf, math.inf)
    # 1024^2 nodes over [-1, 1]^2 take four chunks, each summing about
    # 1e308: math.fsum overflows adding them, which is EvaluationError.
    with pytest.raises(EvaluationError, match="past the double range"):
        box_pass(lambda pts: np.full(pts.shape[0], 1e308), 2, 1.0, 1024)


def test_monte_carlo_input_errors(disc_g, one_2d):
    with pytest.raises(InputError):
        monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 0.0, MC_SPEC)
    with pytest.raises(InputError):
        monte_carlo_sublevel(one_2d, disc_g, 2, -1.0, 1.0, MC_SPEC)


def test_monte_carlo_refuses_a_box_volume_past_the_double_range(disc_g, one_2d, monkeypatch):
    draws = []
    monkeypatch.setattr(rng, "uniforms", lambda *args: draws.append(args))
    with pytest.raises(EvaluationError, match="volume"):
        monte_carlo_sublevel(one_2d, disc_g, 2, 1.0, 1e200, MC_SPEC)
    assert draws == []


def test_sphere_minimum_disc(disc_g):
    assert sphere_minimum(disc_g, 2) == pytest.approx(1.0, rel=1e-9)


def test_auto_radius_disc(disc_g):
    assert auto_enclosing_radius(disc_g, 4.0) == pytest.approx(2.2, rel=1e-9)


def test_auto_radius_quartic(quartic_g):
    # Sphere minimum by hand: at x^2 = y^2 = 1/2 the value is
    # 1/4 + 1/4 - 1.925/4 = 0.01875, attained on the diagonals.
    expected = (1.0 / 0.01875) ** 0.25 * 1.1
    assert auto_enclosing_radius(quartic_g, 1.0) == pytest.approx(expected, rel=1e-9)


def test_auto_radius_degenerate_level(disc_g):
    assert auto_enclosing_radius(disc_g, 0.0) == 0.0


def test_auto_radius_unbounded():
    saddle = MultiPoly(2, {(2, 0): 1.0, (0, 2): -1.0})
    with pytest.raises(UnboundedSublevelError):
        auto_enclosing_radius(saddle, 1.0)


def test_auto_radius_requires_homogeneous():
    mixed = MultiPoly(1, {(0,): 1.0, (2,): 1.0})
    with pytest.raises(InputError):
        auto_enclosing_radius(mixed, 1.0)


def test_quadrature_spec_validation():
    with pytest.raises(InputError):
        QuadratureSpec(engine="nope")
    with pytest.raises(InputError):
        QuadratureSpec(nodes_per_axis=0)
    with pytest.raises(InputError):
        QuadratureSpec(sample_count=0)
    with pytest.raises(InputError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(InputError):
        QuadratureSpec(box_radius=-1.0)
    with pytest.raises(InputError):
        QuadratureSpec(seed=-1)
    with pytest.raises(InputError):
        QuadratureSpec(seed=2**64)
    # Real settings must be finite: rel_tol inf and box_radius inf ran.
    for key in ("rel_tol", "box_radius"):
        for value in (math.inf, math.nan, 10**400, "1e-3"):
            with pytest.raises(InputError, match=f"{key} must be a finite positive number"):
                QuadratureSpec(**{key: value})
    assert QuadratureSpec(rel_tol=1, box_radius=2) == QuadratureSpec(rel_tol=1.0, box_radius=2.0)


def test_quadrature_spec_refuses_bools_for_integers():
    # isinstance(True, int) holds, so the spec refuses a bool itself and no
    # caller, the problem file included, has to.
    for key, value in (("seed", True), ("nodes_per_axis", True), ("sample_count", False),
                       ("sample_count", True)):
        with pytest.raises(InputError, match="integer"):
            QuadratureSpec(**{key: value})
    # Nor is a bool a real setting: rel_tol True ran at 1.0, and box_radius
    # true (JSON) at radius 1.0.
    for key, value in (("rel_tol", True), ("box_radius", True), ("box_radius", False)):
        with pytest.raises(InputError, match=f"{key} must be a finite positive number"):
            QuadratureSpec(**{key: value})


def test_gaussian_opaque_f_doubles_until_two_passes_agree():
    spec = QuadratureSpec()
    # A kink at x1 = 0 keeps every Hermite pass off by more than rel_tol;
    # one fixed pass at 64 nodes was 1.2e-2 off under a 1.8e-14 certificate.
    with pytest.raises(EffortError, match="Gauss-Hermite"):
        integrate_gaussian_quadratic(lambda p: np.abs(p[:, 0]), np.eye(2), 1.0, spec)
    est = integrate_gaussian_quadratic(lambda p: np.exp(p[:, 0]), np.eye(2), 1.0, spec)
    exact = math.pi * math.exp(0.25)
    assert abs(est.value - exact) <= 1e-15 * exact
    assert est.error_estimate == spec.rel_tol * max(abs(est.value), est.magnitude)
    assert est.effort == 64**2 + 128**2


def test_gaussian_opaque_f_starts_where_two_passes_fit():
    # 64^5 points exceed the tensor cap, so the passes start at 8 nodes per
    # axis, the most whose next pass (16^5 points) fits too.
    spec = QuadratureSpec()
    est = integrate_gaussian_quadratic(lambda p: np.ones(p.shape[0]), np.eye(5), 1.0, spec)
    assert est.value == pytest.approx(math.pi**2.5, rel=1e-14)
    assert est.effort == 8**5 + 16**5


def test_gaussian_rule_sized_to_f_degree():
    # x^400 against exp(-lam * 10 x^2) needs 201 nodes; a fixed 64-node
    # rule returned 2.5e-216 for v(1) = 2 * 10^-200.5 / 401.
    f = MultiPoly.monomial(1, (400,))
    spec = QuadratureSpec()
    lam = lambda_y_homogeneous(1, 400, 2, 1.0)
    est = integrate_gaussian_quadratic(f, 10.0 * np.eye(1), lam, spec)
    assert est.effort == 201
    assert est.value == pytest.approx(2.0 * 10**-200.5 / 401.0, rel=1e-12)
    # At lam = 1 the outer nodes reach |x| ~ 6.2, where x^400 overflows.
    base = integrate_gaussian_quadratic(f, 10.0 * np.eye(1), 1.0, spec)
    exact = math.exp(math.lgamma(200.5) - 200.5 * math.log(10.0))
    assert base.value == pytest.approx(exact, rel=1e-12)


GAUSS_SPEC = QuadratureSpec()


def test_gaussian_moments_refuse_a_value_beyond_the_double_range():
    # x^740 against exp(-x^2) is Gamma(370.5), past the largest double.
    with pytest.raises(EvaluationError, match="overflows"):
        integrate_gaussian_quadratic(MultiPoly.monomial(1, (740,)), np.eye(1), 1.0, GAUSS_SPEC)


@pytest.mark.parametrize("dim", range(2, 17))
def test_gaussian_moments_match_lgamma_products_for_diagonal_q(dim):
    a = [1.0 + 0.1 * i for i in range(dim)]
    f_terms = {(0,) * dim: 2.0, (2, 2) + (0,) * (dim - 2): 1.0}
    quartic = (0,) * (dim - 1) + (4,)
    f_terms[quartic] = f_terms.get(quartic, 0.0) - 0.5
    est = integrate_gaussian_quadratic(MultiPoly(dim, f_terms), np.diag(a), 0.7, GAUSS_SPEC)
    exact = separable_power_integral(f_terms, a, 0.7, 2)
    assert est.value == pytest.approx(exact, rel=1e-13)
    assert abs(est.value - exact) <= est.error_estimate


def _gaussian_by_expansion(f_terms, Q, lam):
    """mpmath value of the integral of f exp(-lam x'Qx): x = M u with
    M = L^(-T) / sqrt(lam), Q = L L', f(M u) expanded in u, and the
    integral of u^b exp(-u^2) = Gamma((b + 1) / 2) for even b."""
    mpmath = pytest.importorskip("mpmath")
    dim = len(Q)
    with mpmath.workdps(40):
        M = mpmath.inverse(mpmath.cholesky(mpmath.matrix(Q)).T) / mpmath.sqrt(lam)
        total = mpmath.mpf(0)
        for exps, coef in f_terms.items():
            poly = {(0,) * dim: mpmath.mpf(1)}
            for j, e in enumerate(exps):
                for _ in range(e):
                    grown = {}
                    for key, c in poly.items():
                        for k in range(dim):
                            up = key[:k] + (key[k] + 1,) + key[k + 1:]
                            grown[up] = grown.get(up, 0) + c * M[j, k]
                    poly = grown
            total += coef * mpmath.fsum(
                c * mpmath.fprod(mpmath.gamma((b + 1) / mpmath.mpf(2)) for b in key)
                for key, c in poly.items() if not any(b % 2 for b in key)
            )
        return float(total * mpmath.det(M))


@pytest.mark.parametrize("Q", [
    [[1.0, 0.4], [0.4, 2.0]],
    [[2.0, 0.5, -0.3], [0.5, 1.5, 0.2], [-0.3, 0.2, 1.0]],
], ids=["d2", "d3"])
def test_gaussian_moments_match_mpmath_for_correlated_q(Q):
    dim = len(Q)
    pad = (0,) * (dim - 2)
    f_terms = {
        (0, 0) + pad: 1.5, (2, 0) + pad: -1.0, (1, 1) + pad: 0.7, (1, 0) + pad: 5.0,
        (3, 1) + pad: -0.4, (2, 4) + pad: 0.3, (1, 3) + pad: 2.0,
    }
    if dim == 3:
        f_terms.update({(1, 1, 2): 2.0, (2, 2, 2): 0.3, (0, 1, 5): -0.8})
    est = integrate_gaussian_quadratic(MultiPoly(dim, f_terms), np.array(Q), 0.7, GAUSS_SPEC)
    exact = _gaussian_by_expansion(f_terms, Q, 0.7)
    assert est.value == pytest.approx(exact, rel=1e-13)
    assert abs(est.value - exact) <= est.error_estimate


@pytest.mark.parametrize("k, q", [(800, 146.0), (2000, 400.0), (6000, 1000.0)])
def test_gaussian_moments_of_high_degree_stay_in_range(k, q):
    # Every degree is past the largest Gauss-Hermite rule's exactness.  For
    # x^6000, E[x^2000] is about e^-1000 on the way to v ~ e^296.
    est = integrate_gaussian_quadratic(MultiPoly.monomial(1, (k,)), q * np.eye(1), 1.0, GAUSS_SPEC)
    exact = separable_power_integral({(k,): 1.0}, (q,), 1.0, 2)
    assert est.effort == k // 2 + 1
    assert abs(est.value - exact) <= est.error_estimate


def test_gaussian_moments_refuse_a_large_closure_before_forming_any(monkeypatch):
    # prod x_j^6 at d = 10 needs 830,244 moments.
    formed = []
    monkeypatch.setattr(cubature, "_gaussian_moments", lambda *args: formed.append(args))
    f = MultiPoly.monomial(10, (6,) * 10)
    t0 = time.perf_counter()
    with pytest.raises(EffortError, match="none formed"):
        integrate_gaussian_quadratic(f, np.eye(10) + 0.1, 1.0, GAUSS_SPEC)
    assert time.perf_counter() - t0 < 0.1
    assert formed == []


@pytest.mark.parametrize("exps", [(4,), (2, 2), (1, 1), (2, 2, 0, 4), (3, 1, 2), (6, 6, 6), (5, 0, 3, 2)])
def test_moment_count_is_the_size_of_the_closure(exps):
    sigma = np.eye(len(exps)) + 0.1
    assert cubature._moment_count(exps, 10**6) == len(cubature._gaussian_moments([exps], sigma))


def test_integrate_box_vanishing_component_converges(quartic_g):
    # f = xy integrates to zero over the symmetric quartic; the box loop
    # judges convergence on the scale of sum(w * |phi|), not of |v|.
    # The initial radius is the one dual_integral picks for homogeneous g.
    lam = lambda_y_homogeneous(2, 2, 4, 1.0)
    radius = (40.0 / (lam * sphere_minimum(quartic_g, 2))) ** 0.25

    def phi(p):
        return p[:, 0] * p[:, 1] * np.exp(-lam * quartic_g(p))

    spec = QuadratureSpec()
    est = integrate_box(phi, 2, spec, initial_radius=radius)
    assert est.box_radius_used >= 2.0 * radius  # the enlargement loop ran
    assert abs(est.value) <= spec.rel_tol * max(abs(est.value), est.magnitude) <= 1e-8


def _sphere_quartic(dim, a):
    return MultiPoly(dim, {tuple(4 if j == i else 0 for j in range(dim)): a_i for i, a_i in enumerate(a)})


def test_polar_one_dimensional_two_point_sum():
    f = MultiPoly.monomial(1, (2,))
    g = MultiPoly.monomial(1, (4,))
    est = dual_integral(SublevelProblem(1, f, g), 2.0, QuadratureSpec())
    assert est.engine == "polar" and est.effort == 2
    exact = math.exp(math.lgamma(0.75) - math.log(2.0) - 0.75 * math.log(2.0))
    assert est.value == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("family, d_g", [("quartic", 4), ("sextic", 6)])
@pytest.mark.parametrize("f_terms, k", [({(0, 0): 1.0}, 0), ({(2, 0): 1.0, (1, 1): -0.5, (0, 2): 2.0}, 2)])
def test_polar_fig1_matches_circle_quadrature(family, d_g, f_terms, k):
    mpmath = pytest.importorskip("mpmath")
    c = -1.95
    h = d_g // 2
    g = MultiPoly(2, {(d_g, 0): 1.0, (0, d_g): 1.0, (h, h): c})
    f = MultiPoly(2, f_terms)
    lam = lambda_y_homogeneous(2, k, d_g, 1.0)
    p = (2.0 + k) / d_g
    with mpmath.workdps(30):
        def on_circle(poly, t):
            x, y = mpmath.cos(t), mpmath.sin(t)
            return sum(coef * x ** e[0] * y ** e[1] for e, coef in poly.terms)

        # g is smallest at the odd multiples of pi/4: split there.
        pieces = [mpmath.pi * j / 4 for j in range(9)]
        sphere = mpmath.quad(lambda t: on_circle(f, t) * on_circle(g, t) ** -p, pieces)
        exact = float(mpmath.gamma(p) / (d_g * mpmath.mpf(lam) ** p) * sphere)
    est = dual_integral(SublevelProblem(2, f, g), lam, QuadratureSpec())
    assert est.value == pytest.approx(exact, rel=1e-13)
    assert abs(est.value - exact) <= 1e-9 * max(abs(est.value), est.magnitude)


def test_polar_three_dim_separable_quartic():
    a = (1.0, 2.5, 0.7)
    f_terms = {(2, 2, 0): 1.0, (0, 0, 4): 3.0, (4, 0, 0): -1.0, (1, 3, 0): 5.0}
    lam = 1.7
    est = dual_integral(SublevelProblem(3, MultiPoly(3, f_terms), _sphere_quartic(3, a)), lam, QuadratureSpec())
    assert est.value == pytest.approx(separable_power_integral(f_terms, a, lam, 4), rel=1e-13)


def test_polar_non_finite_value():
    # g tiny but positive: g^(-p) overflows at every node.
    def g(p):
        return np.full(p.shape[0], 1e-300)

    f = MultiPoly.constant(2, 1.0)
    with pytest.raises(EvaluationError):
        cubature._sphere_integral(f, g, 2, 2.0, QuadratureSpec())


def test_polar_input_errors():
    # The problem checks the dim and the degrees, and dual_integral lam.
    f2, g2 = MultiPoly.constant(2, 1.0), _sphere_quartic(2, (1.0, 1.0))
    for dim in (0, 2.0):
        with pytest.raises(InputError):
            SublevelProblem(dim, f2, g2)
    with pytest.raises(InputError):
        dual_integral(SublevelProblem(2, f2, g2), -1.0, QuadratureSpec())

    def opaque(p):
        return np.ones(p.shape[0])

    with pytest.raises(InputError):
        SublevelProblem(2, f2, opaque, g_degree=0)
    with pytest.raises(InputError):
        SublevelProblem(2, opaque, g2, f_degree=-1)


def _sphere_sum_two_and_three_dim(h, dim, n):
    """The sphere rules for dim 2 and 3 as written before one product
    rule served every dim, kept as the reference that rule must equal."""
    m = n if dim == 2 else 2 * n
    azimuth = (2.0 * math.pi * np.arange(m) / m, np.full(m, 2.0 * math.pi / m))
    if dim == 2:
        return cubature._tensor_apply(
            lambda params: h(np.column_stack((np.cos(params[:, 0]), np.sin(params[:, 0])))),
            [azimuth],
        )

    def on_sphere(params):
        t, azi = params[:, 0], params[:, 1]
        s = np.sqrt(1.0 - t * t)
        return h(np.column_stack((s * np.cos(azi), s * np.sin(azi), t)))

    return cubature._tensor_apply(on_sphere, [gauss_legendre_rule(n), azimuth])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 7, 64, 384])
def test_sphere_sum_keeps_the_two_and_three_dim_rules(dim, n):
    # 384 * 768 points in d = 3 span two tensor chunks.
    f = MultiPoly(dim, {(1,) * dim: 2.0, (2,) + (0,) * (dim - 1): -0.5, (0,) * dim: 1.0})
    cross = MultiPoly(dim, {(2, 2) + (0,) * (dim - 2): -0.9})
    g = _sphere_quartic(dim, (1.0, 2.5, 0.7)[:dim]) + cross

    def h(p):
        return f(p) * g(p) ** -0.75

    assert cubature._sphere_sum(h, dim, n) == _sphere_sum_two_and_three_dim(h, dim, n)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_sphere_sum_area_and_moments(dim):
    # |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2); over it x_j^2 averages 1/d and
    # x_j^4 averages 3/(d(d+2)), which 8 nodes per angle integrate exactly.
    area = 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    n = 8
    total, _, _ = cubature._sphere_sum(lambda p: np.ones(len(p)), dim, n)
    assert total == pytest.approx(area, rel=1e-14)
    for j in range(dim):
        second, _, _ = cubature._sphere_sum(lambda p: p[:, j] ** 2, dim, n)
        fourth, _, _ = cubature._sphere_sum(lambda p: p[:, j] ** 4, dim, n)
        assert second == pytest.approx(area / dim, rel=1e-14)
        assert fourth == pytest.approx(3.0 * area / (dim * (dim + 2)), rel=1e-14)


def test_polar_four_dim_separable_quartic():
    a = (1.0, 1.5, 2.0, 2.5)
    f_terms = {
        (2, 2, 0, 0): 1.0, (0, 0, 4, 0): 3.0, (4, 0, 0, 0): -1.0, (1, 3, 0, 0): 5.0, (0, 0, 2, 2): 0.5
    }
    lam = 1.7
    spec = QuadratureSpec(nodes_per_axis=16)
    est = dual_integral(SublevelProblem(4, MultiPoly(4, f_terms), _sphere_quartic(4, a)), lam, spec)
    assert est.value == pytest.approx(separable_power_integral(f_terms, a, lam, 4), rel=1e-13)


def test_sphere_refusal_names_the_node_cap_as_well_as_a_ray():
    # In d = 5 the 16- and 32-node passes (2^17 and 2^21 points) are the
    # only ones under the cap, and a smooth g is not converged to 1e-9
    # at 16 nodes, so the node cap is as likely a cause as a vanishing ray.
    g = _sphere_quartic(5, (1.0, 1.375, 1.75, 2.125, 2.5))
    with pytest.raises(EffortError) as err:
        cubature._sphere_integral(MultiPoly.constant(5, 1.0), g, 5, 1.25, QuadratureSpec(nodes_per_axis=16))
    message = str(err.value)
    assert "vanish" in message and "on a ray" in message
    assert "more nodes than the cap allows" in message
    assert "2 passes that fit under the cap" in message


def _counting(h, counts):
    def counted(p):
        counts.append(p.shape[0])
        return h(p)

    return counted


def test_integrate_box_refinement_exhausted():
    # |x| has a kink at 0, so Gauss-Legendre converges only algebraically:
    # the passes of 4 ... 4096 nodes, the last whose 8192-node enlargement
    # fits under the per-axis cap, miss rel_tol.
    counts = []
    with pytest.raises(EffortError):
        integrate_box(_counting(lambda p: np.abs(p[:, 0]), counts), 1, QuadratureSpec(nodes_per_axis=4))
    assert sum(counts) == sum(4 << i for i in range(11))


def test_one_dim_box_enlargement_stops_at_the_node_cap(monkeypatch):
    # The dual of f = 1 over g = x1^2 with no stated degree at lam = 1e-2:
    # from radius 1 the enlargement reaches 8192 nodes before two passes
    # agree.  Nothing else bounds the nodes in d = 1, and past the cap each
    # rule takes seconds to build, so the loop must stop there.
    def capped_rule(n):
        if n > 8192:
            raise AssertionError(f"a {n}-node rule was requested")
        return rule(n)

    rule = cubature.gauss_legendre_rule
    monkeypatch.setattr(cubature, "gauss_legendre_rule", capped_rule)
    with pytest.raises(EffortError, match="cap of 8192 points"):
        integrate_box(lambda p: np.exp(-1e-2 * p[:, 0] ** 2), 1, QuadratureSpec())
    with pytest.raises(EffortError, match="at most 8192 nodes per axis"):
        box_pass(lambda p: np.ones(p.shape[0]), 1, 1.0, 8193)


def test_integrate_box_enlargement_over_the_cap():
    # The volume of [-r, r]^3 grows with every enlargement.  The rule
    # converges at 16 nodes; the 256^3 enlargement is the last under the
    # cap, and the 512^3 one is refused without running.
    counts = []
    with pytest.raises(EffortError):
        integrate_box(_counting(lambda p: np.ones(p.shape[0]), counts), 3, QuadratureSpec(nodes_per_axis=8))
    assert sum(counts) == sum((8 << i) ** 3 for i in range(6))


def test_integrate_box_refuses_an_unconfirmable_refinement_up_front():
    # At 128 nodes in d = 3 the first enlargement after the 256^3
    # refinement would need 512^3 points, over the cap, so only the
    # 128-node pass is confirmable: nothing runs.
    counts = []
    gauss = _counting(lambda p: np.exp(-np.sum(p * p, axis=1)), counts)
    with pytest.raises(EffortError) as err:
        integrate_box(gauss, 3, QuadratureSpec(nodes_per_axis=128), initial_radius=6.0)
    assert counts == []
    assert "diverge" not in str(err.value)


def test_polar_sphere_cap_three_dim():
    # g vanishes on the ray x1 = 1.1 x2, x3 = 0, which no node hits, so the
    # passes never agree.  The 1024-node pass (2^21 points) is the last
    # under the sphere cap; the 6 extra points are the axis probe.
    g = MultiPoly(3, {(2, 0, 0): 1.0, (1, 1, 0): -2.2, (0, 2, 0): 1.21, (0, 0, 2): 1.0})
    counts = []
    with pytest.raises(EffortError):
        cubature._sphere_integral(MultiPoly.constant(3, 1.0), _counting(g, counts), 3, 1.5, QuadratureSpec())
    assert sum(counts) == 6 + sum((64 << i) * (128 << i) for i in range(5))


def _rotated_fig1_quartic(c, angle=0.1234567):
    """x^4 + y^4 + c x^2 y^2 in coordinates rotated by ``angle``; the default
    puts its minimizers on the circle between the trapezoid nodes."""
    q = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): c})
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return lambda p: q(p @ rot.T)


@pytest.mark.parametrize("angle", [0.0, 0.1234567])
@pytest.mark.parametrize("c", [-1.999, -1.9999, -1.99999])
def test_polar_near_degenerate_fig1_quartic_within_its_certificate(c, angle):
    # The sphere minimum (2 + c) / 4 goes to 0, so g^(-1/2) peaks ever more
    # sharply: the passes double past 4096 nodes until two agree.
    mpmath = pytest.importorskip("mpmath")
    problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), _rotated_fig1_quartic(c, angle), g_degree=4)
    est = dual_integral(problem, 1.0, QuadratureSpec())
    with mpmath.workdps(30):
        def g_on_circle(t):
            x, y = mpmath.cos(t), mpmath.sin(t)
            return x**4 + y**4 + mpmath.mpf(c) * x**2 * y**2

        # A rotation leaves the integral over the whole circle unchanged;
        # split at the unrotated minimizers, the odd multiples of pi/4.
        pieces = [mpmath.pi * j / 4 for j in range(9)]
        sphere = mpmath.quad(lambda t: g_on_circle(t) ** mpmath.mpf(-0.5), pieces)
        exact = float(mpmath.gamma(0.5) / 4 * sphere)
    assert abs(est.value - exact) <= est.error_estimate


def test_polar_vanishing_ray_runs_to_the_sphere_cap():
    # At c = -2 the rotated quartic vanishes on rays between the nodes, so
    # no two passes agree: they double from 64 nodes to 2^21, the last
    # under the cap.  The 4 extra points are the axis probe.
    counts = []
    with pytest.raises(EffortError, match="16 passes"):
        cubature._sphere_integral(
            MultiPoly.constant(2, 1.0), _counting(_rotated_fig1_quartic(-2.0), counts), 2, 0.5, QuadratureSpec()
        )
    assert sum(counts) == 4 + sum(64 << i for i in range(16))


def test_multipoly_overflow_is_an_evaluation_error():
    # 10^400 overflows a double inside MultiPoly's evaluation; the engine's
    # finiteness check must report it, with no numpy warning escaping.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvaluationError):
            box_pass(MultiPoly.monomial(1, (400,)), 1, 10.0, 64)


def _tensor_reference(phi, axes):
    """_tensor_apply's contract written out: C-order digits from
    np.unravel_index, the same chunks, weights multiplied from the last
    axis to the first, numpy sums per chunk and fsum over the chunks.
    Also returns each chunk's points and weights."""
    sizes = tuple(nodes.size for nodes, _ in axes)
    total = math.prod(sizes)
    partials, abs_partials, chunks = [], [], []
    for lo in range(0, total, cubature._TENSOR_CHUNK):
        digits = np.unravel_index(np.arange(lo, min(lo + cubature._TENSOR_CHUNK, total)), sizes)
        pts = np.column_stack([nodes[i] for (nodes, _), i in zip(axes, digits)])
        w = np.ones(len(pts))
        for (_, weights), i in reversed(list(zip(axes, digits))):
            w = w * weights[i]
        chunks.append((pts, w))
        w = w * phi(pts)
        partials.append(float(np.sum(w)))
        abs_partials.append(float(np.sum(np.abs(w))))
    return math.fsum(partials), math.fsum(abs_partials), total, chunks


@pytest.mark.parametrize(
    "sizes",
    [(1,), (600_001,), (96, 96, 96), (7, 300, 11), (3, 2, 5, 7), (2, 300_001)],
    ids=lambda sizes: "x".join(map(str, sizes)),
)
def test_tensor_apply_order_contract(sizes):
    rs = np.random.default_rng(len(sizes) * 1000 + sizes[-1])
    axes = [(rs.standard_normal(n), rs.uniform(0.1, 2.0, n)) for n in sizes]
    coefficients = np.arange(1.0, len(sizes) + 1.0) * 0.37

    def phi(pts):
        return np.cos(pts @ coefficients) + pts[:, 0] ** 2

    value, magnitude, points = cubature._tensor_apply(phi, axes)
    ref_value, ref_magnitude, ref_points, ref_chunks = _tensor_reference(phi, axes)
    assert (value.hex(), magnitude.hex(), points) == (
        ref_value.hex(), ref_magnitude.hex(), ref_points
    )
    # A sum of many terms hides a last-ulp change in a few weights, so the
    # points and weights of every chunk are compared too.
    for i, (ref_pts, ref_w) in enumerate(ref_chunks):
        lo = i * cubature._TENSOR_CHUNK
        pts, w = cubature._tensor_block(axes, lo, lo + len(ref_w))
        assert pts.tobytes() == ref_pts.tobytes() and w.tobytes() == ref_w.tobytes()


def _sphere_minimum_reference(g, dim):
    directions = [np.eye(dim), -np.eye(dim)]
    if dim <= 12:
        corners = np.array(
            [[(1.0 if (i >> j) & 1 else -1.0) for j in range(dim)] for i in range(2**dim)]
        )
        directions.append(corners / math.sqrt(dim))
    if dim > 1:
        draws = rng.standard_normals(0x5F3759DF, 0, 8192 * dim).reshape(-1, dim)
        norms = np.linalg.norm(draws, axis=1)
        keep = norms > 1e-9
        directions.append(draws[keep] / norms[keep, np.newaxis])
    return float(np.min(g(np.vstack(directions))))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 13])
def test_sphere_minimum_directions_built_once(dim, monkeypatch):
    terms = {tuple(4 * (j == i) for j in range(dim)): 1.0 + i for i in range(dim)}
    if dim > 1:
        terms[(2, 2) + (0,) * (dim - 2)] = -1.5
    g = MultiPoly(dim, terms)
    expected = _sphere_minimum_reference(g, dim)
    draws = []
    normals = rng.standard_normals
    monkeypatch.setattr(rng, "standard_normals", lambda *a: draws.append(a) or normals(*a))

    def overwriting(pts):
        values = g(pts)
        pts[:] = 0.0  # the caller's copy, not the cached directions
        return values

    cubature._sphere_directions.cache_clear()
    try:
        results = [sphere_minimum(overwriting, dim), sphere_minimum(g, dim)]
        assert cubature._sphere_directions(dim).flags.writeable is False
    finally:
        cubature._sphere_directions.cache_clear()
    assert [r.hex() for r in results] == [expected.hex()] * 2
    assert len(draws) == (dim > 1)


def _simplex_indicator():
    """f = 1 + x1^2 over the simplex {x >= 0, x1 + x2 + x3 <= 1}, as the
    direct estimates sample it: ``sublevel_integrand`` on a shifted box."""
    return cubature.sublevel_integrand(
        lambda p: 1.0 + (p[:, 0] + 0.5) ** 2,
        lambda p: np.where(np.all(p >= -0.5, axis=1), np.sum(p + 0.5, axis=1), 10.0),
        1.0,
    )


def _radial_root_problem():
    g = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})
    return SublevelProblem(2, MultiPoly(2, {(0, 0): 1.0, (2, 0): 0.5}), g)


def _hexes(result):
    if isinstance(result, IntegralEstimate):
        result = (result.value, result.magnitude, result.error_estimate, result.std_error)
    elif isinstance(result, float):
        result = (result,)
    return tuple(x.hex() if isinstance(x, float) else x for x in result)


@pytest.mark.parametrize("chunk, run", [
    # Two chunks, the second of 3 samples: a ragged last block.
    ("_MC_CHUNK", lambda: monte_carlo_sublevel(
        MultiPoly(2, {(2, 0): 1.0, (0, 0): 0.5}), MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}),
        2, 1.0, 1.1, QuadratureSpec(sample_count=2**19 + 3, seed=11))),
    ("_TENSOR_CHUNK", lambda: box_pass(_simplex_indicator(), 3, 0.5, 64)),
    # 27^4 rows: three chunks.
    ("_TENSOR_CHUNK", lambda: simplex_box_indicator(
        GeneralizedPolynomial([SimplexMonomial((0.5, 0.0, 1.0, 0.0, -0.5), 1.5)]), 2.0, 27)),
    ("_TENSOR_CHUNK", lambda: cubature._sphere_integral(
        MultiPoly(3, {(2, 0, 0): 1.0, (0, 0, 0): 0.3}),
        MultiPoly(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.5, (0, 0, 4): 2.0, (2, 2, 0): -0.5}),
        3, 1.25, QuadratureSpec())),
    # 128^2 then 256^2 nodes: one block, then four.
    ("_TENSOR_CHUNK", lambda: integrate_gaussian_quadratic(
        lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2, np.array([[2.0, 0.3], [0.3, 1.0]]), 0.7,
        QuadratureSpec(nodes_per_axis=128))),
    # The memo keeps grids of up to 512^2 points, block by block.
    ("_TENSOR_CHUNK", lambda: find_lambda_for_target(
        _radial_root_problem(), 0.8, (1e-2, 1e2), QuadratureSpec(nodes_per_axis=64, rel_tol=1e-6))),
], ids=["monte-carlo", "box-simplex-64^3", "simplex-box-indicator-5d", "polar-3d", "gauss-hermite",
        "find-lambda-memo"])
def test_block_size_changes_no_bit(chunk, run, monkeypatch):
    blocked = run()
    monkeypatch.setattr(cubature, "_BLOCK", getattr(cubature, chunk))
    assert _hexes(run()) == _hexes(blocked)


@pytest.mark.parametrize("sizes", [(600_001,), (96, 96, 96), (7, 300, 11), (3, 40_000)],
                         ids=lambda sizes: "x".join(map(str, sizes)))
def test_phi_sees_every_point_once_one_block_at_a_time(sizes):
    axes = [(np.arange(n, dtype=float), np.ones(n)) for n in sizes]
    seen = []

    def phi(pts):
        seen.append(pts.copy())
        return np.ones(pts.shape[0])

    assert cubature._tensor_apply(phi, axes)[2] == math.prod(sizes)
    assert max(len(pts) for pts in seen) <= cubature._BLOCK
    grid = np.column_stack(np.unravel_index(np.arange(math.prod(sizes)), sizes)).astype(float)
    assert np.concatenate(seen).tobytes() == grid.tobytes()


def test_monte_carlo_draws_every_sample_once_one_block_at_a_time():
    n, dim, radius, seen = 2**19 + 3, 3, 1.5, []

    def g(pts):
        seen.append(pts.copy())
        return np.zeros(pts.shape[0])

    monte_carlo_sublevel(MultiPoly.constant(dim, 1.0), g, dim, 1.0, radius,
                         QuadratureSpec(sample_count=n, seed=4))
    assert max(len(pts) for pts in seen) <= cubature._BLOCK
    expected = (2.0 * rng.uniforms(4, 0, n * dim).reshape(n, dim) - 1.0) * radius
    assert np.concatenate(seen).tobytes() == expected.tobytes()


def _traced_peak_mb(run):
    run()  # rules and caches built outside the measurement
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_a_pass_works_in_one_block_plus_one_chunk_buffer():
    # Whole-chunk arrays took 48.0 MB and 14.1 MB here.
    g = MultiPoly(4, {tuple(2 * (j == i) for j in range(4)): 1.0 for i in range(4)})
    spec = QuadratureSpec(sample_count=2**19, seed=7)
    assert _traced_peak_mb(lambda: monte_carlo_sublevel(
        MultiPoly.constant(4, 1.0), g, 4, 1.0, 1.1, spec)) < 10.0
    assert _traced_peak_mb(lambda: box_pass(_simplex_indicator(), 3, 0.5, 64)) < 6.0


@pytest.mark.parametrize("dim, nodes, tensor_peak_mb", [(5, 27, 3.8), (9, 6, 4.9)])
def test_simplex_box_indicator_works_in_a_tensor_pass_of_memory(dim, nodes, tensor_peak_mb):
    # tensor_peak_mb: the node-by-node box pass over the same nodes.  A
    # row sum that built the whole (d - 1)-tensor at once took 29 MB and 93 MB.
    poly = GeneralizedPolynomial([SimplexMonomial((0.5,) * dim, 1.0), SimplexMonomial((0.0,) * dim, 2.0)])
    assert _traced_peak_mb(lambda: simplex_box_indicator(poly, 1.0, nodes)) < tensor_peak_mb + 1.0
