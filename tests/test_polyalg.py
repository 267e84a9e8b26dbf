import math
from fractions import Fraction

import numpy as np
import pytest

from lapdual import InputError, MultiPoly
from lapdual.polyalg import _magnitude_power


def _random_poly(rng, dim, n_terms, max_exp=5):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=dim))
        terms[exps] = terms.get(exps, 0.0) + float(rng.normal())
    return MultiPoly(dim, terms)


def test_constant_ignores_the_point():
    p = MultiPoly.constant(2, 1.0)
    assert p((3.0, -2.0)) == 1.0


def test_quartic_at_one_one():
    p = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
    # 1 + 1 - 1.925 by hand.
    assert p((1.0, 1.0)) == pytest.approx(0.075, abs=1e-15)


def test_zero_factor():
    p = MultiPoly.monomial(2, (1, 1))
    assert p((0.0, 5.0)) == 0.0


def test_dimension_mismatch():
    p = MultiPoly.constant(2, 1.0)
    with pytest.raises(InputError):
        p((1.0, 2.0, 3.0))
    with pytest.raises(InputError):
        p(np.zeros((4, 3)))


def test_graded_lex_term_order():
    p = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
    assert [e for e, _ in p.terms] == [(0, 4), (2, 2), (4, 0)]
    q = MultiPoly(2, {(1, 0): 2.0, (0, 0): 1.0, (1, 1): 1.0, (0, 1): 3.0})
    assert [e for e, _ in q.terms] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_homogeneous_components_grouping():
    p = MultiPoly(2, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): 1.0})
    comps = p.homogeneous_components()
    assert [k for k, _ in comps] == [0, 1, 2]
    assert comps[0][1] == MultiPoly.constant(2, 1.0)
    assert comps[1][1] == MultiPoly.monomial(2, (1, 0), 2.0)
    assert comps[2][1] == MultiPoly.monomial(2, (1, 1), 1.0)


def test_homogeneous_components_of_zero():
    assert MultiPoly.zero(3).homogeneous_components() == []


def test_components_of_homogeneous_poly():
    p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    comps = p.homogeneous_components()
    assert len(comps) == 1 and comps[0][0] == 2 and comps[0][1] == p


def test_homogeneity_degree():
    sextic = MultiPoly(2, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})
    assert sextic.homogeneity_degree() == 6
    assert MultiPoly(1, {(0,): 1.0, (1,): 1.0}).homogeneity_degree() is None
    assert MultiPoly.constant(2, 7.0).homogeneity_degree() == 0
    assert MultiPoly.zero(2).homogeneity_degree() is None


def test_degree_of_zero_is_minus_one():
    assert MultiPoly.zero(2).degree == -1
    assert MultiPoly.constant(2, 3.0).degree == 0
    assert MultiPoly.monomial(2, (2, 3)).degree == 5


def test_component_sum_reproduces_evaluation_exactly():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        p = _random_poly(rng, dim, int(rng.integers(1, 9)))
        x = rng.normal(size=dim) * 2.0
        total = 0.0
        for _, f_k in p.homogeneous_components():
            total += f_k(x)
        assert total == p(x)  # bit-for-bit, same accumulation convention


def test_positive_homogeneity_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(0, 7))
        n_terms = int(rng.integers(1, 5))
        terms = {}
        for _ in range(n_terms):
            cuts = sorted(rng.integers(0, k + 1, size=dim - 1)) if dim > 1 else []
            bounds = [0, *cuts, k]
            exps = tuple(bounds[i + 1] - bounds[i] for i in range(dim))
            terms[exps] = terms.get(exps, 0.0) + float(rng.normal())
        p = MultiPoly(dim, terms)
        if p.homogeneity_degree() != k:
            continue  # all coefficients cancelled
        x = rng.normal(size=dim)
        t = float(rng.uniform(0.1, 3.0))
        scaled = p(t * x)
        reference = t**k * p(x)
        assert abs(scaled - reference) <= 1e-10 * (1.0 + abs(reference))


def test_zero_coefficients_never_stored():
    rng = np.random.default_rng(3)
    p = _random_poly(rng, 2, 6)
    z = p + (-p)
    assert z.terms == ()
    assert z.degree == -1
    assert MultiPoly(2, {(1, 1): 0.0}).terms == ()


def test_addition_and_scaling():
    p = MultiPoly(2, {(1, 0): 1.0})
    q = MultiPoly(2, {(1, 0): 2.0, (0, 1): 1.0})
    assert p + q == MultiPoly(2, {(1, 0): 3.0, (0, 1): 1.0})
    assert (p - q) == MultiPoly(2, {(1, 0): -1.0, (0, 1): -1.0})
    assert 2.0 * p == MultiPoly(2, {(1, 0): 2.0})
    with pytest.raises(InputError):
        p + MultiPoly.constant(3, 1.0)


def test_vector_evaluation_matches_scalar():
    rng = np.random.default_rng(11)
    p = _random_poly(rng, 3, 7)
    pts = rng.normal(size=(50, 3))
    batch = p(pts)
    for i in range(50):
        assert batch[i] == p(pts[i])


def test_json_round_trip_and_order():
    p = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
    doc = p.to_json_dict()
    assert [t["exps"] for t in doc["terms"]] == [[0, 4], [2, 2], [4, 0]]
    assert MultiPoly.from_json_dict(doc) == p


def test_json_sums_duplicates():
    doc = {
        "dim": 2,
        "terms": [
            {"coef": 1.0, "exps": [1, 0]},
            {"coef": 2.5, "exps": [1, 0]},
        ],
    }
    assert MultiPoly.from_json_dict(doc) == MultiPoly(2, {(1, 0): 3.5})


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2},
        {"dim": 2, "terms": [{"coef": 1.0}]},
        {"dim": 2, "terms": [{"coef": 1.0, "exps": [1]}]},
        {"dim": 2, "terms": [{"coef": 1.0, "exps": [1, -1]}]},
        {"dim": 2, "terms": [{"coef": 1.0, "exps": [1, 0.5]}]},
        {"dim": 2, "terms": [{"coef": "x", "exps": [1, 0]}]},
        {"dim": 2, "terms": [], "extra": 1},
        {"dim": 0, "terms": []},
        "not an object",
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(InputError):
        MultiPoly.from_json_dict(doc)


def test_non_finite_coefficients_rejected():
    with pytest.raises(InputError):
        MultiPoly(1, {(1,): float("nan")})
    with pytest.raises(InputError):
        MultiPoly(1, {(1,): float("inf")})


def test_a_coefficient_past_the_double_range_is_input_error():
    with pytest.raises(InputError, match="past the double range"):
        MultiPoly(1, {(1,): 10**400})
    with pytest.raises(InputError, match="past the double range"):
        MultiPoly.from_json_dict({"dim": 1, "terms": [{"coef": -(10**400), "exps": [2]}]})


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308]


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def test_magnitude_power_is_pow_where_the_base_is_nonnegative_or_e_at_most_2():
    rng = np.random.default_rng(3)
    nonnegative = np.concatenate([rng.uniform(0.0, 3.0, 2000), [0.0, np.inf, np.nan, 5e-324, 1e308]])
    signed = np.concatenate([rng.uniform(-3.0, 3.0, 2000), SPECIAL])
    for e in range(13):
        assert _bits(_magnitude_power(nonnegative, e)) == _bits(nonnegative ** e)
        # -0.0 and -inf keep the sign that pow gives them at every e.
        assert _bits(_magnitude_power(np.array([-0.0, -np.inf]), e)) == _bits(np.array([-0.0, -np.inf]) ** e)
        # A nan of either sign comes back a nan (x ** 0 is 1 for every x).
        assert np.isnan(_magnitude_power(np.array([np.nan, -np.nan]), e)).all() == (e > 0)
        if e <= 2:
            assert _bits(_magnitude_power(signed, e)) == _bits(signed ** e)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def test_magnitude_power_bits_depend_only_on_the_element():
    wide = np.random.default_rng(4).uniform(-3.0, 3.0, (1001, 3))
    for e in range(13):
        whole = _bits(_magnitude_power(wide[:, 1].copy(), e))
        assert _bits(_magnitude_power(wide[:, 1], e)) == whole  # a strided column
        assert _bits(_magnitude_power(wide[::7, 1], e)) == whole[::7]
        assert _bits(_magnitude_power(wide[-3:, 1], e)) == whole[-3:]  # a short tail
        assert [_bits(_magnitude_power(wide[i:i + 1, 1], e))[0] for i in range(0, 1001, 97)] == whole[::97]


def test_magnitude_power_is_within_one_ulp_on_negative_bases():
    xs = np.random.default_rng(5).uniform(-3.0, 0.0, 500)
    for e in range(3, 13):
        got = _magnitude_power(xs, e)
        for x, v in zip(xs.tolist(), got.tolist()):
            assert abs(Fraction(v) - Fraction(x) ** e) <= Fraction(math.ulp(v))


def test_component_sum_reproduces_evaluation_exactly_under_the_magnitude_rule():
    rng = np.random.default_rng(20240812)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        p = _random_poly(rng, dim, int(rng.integers(1, 9)), max_exp=7)
        x = rng.normal(size=(20, dim)) * 2.0
        total = np.zeros(20)
        for _, f_k in p.homogeneous_components():
            total = total + f_k._evaluate(x, _magnitude_power)
        assert _bits(total) == _bits(p._evaluate(x, _magnitude_power))


def test_call_forms_each_power_with_pow():
    # The loop __call__ has always run, written out: term products in
    # variable order, summed within a degree, then over ascending degrees.
    rng = np.random.default_rng(6)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        p = _random_poly(rng, dim, int(rng.integers(1, 9)), max_exp=7)
        x = rng.uniform(-3.0, 3.0, (30, dim))
        by_degree = {}
        for exps, coef in p.terms:
            term = np.full(30, coef)
            for j, e in enumerate(exps):
                if e:
                    term = term * x[:, j] ** e
            by_degree[sum(exps)] = by_degree.get(sum(exps), np.zeros(30)) + term
        total = np.zeros(30)
        for k in sorted(by_degree):
            total = total + by_degree[k]
        assert _bits(p(x)) == _bits(total)
