"""Exact closed forms on the dilated canonical simplex.

For K_y = {x >= 0 : x_1 + ... + x_d <= y} and generalized monomials
f(x) = x_1^a_1 * ... * x_d^a_d with every a_i > -1, both v(y) and the
Laplace transform of v are products of Gamma factors:

    v(y)     = y^(d + sum(a)) * prod Gamma(1 + a_i) / Gamma(1 + d + sum(a))
    L_v(lam) = prod Gamma(1 + a_i) / lam^(1 + d + sum(a))

All Gamma ratios are accumulated in log space so large d + sum(a) does
not overflow.  Generalized polynomials (finite sums of such monomials)
follow by additivity.  Real, non-integer exponents are supported here
only; the quadrature engines elsewhere need integrands evaluable on
whole boxes.  ``simplex_box_indicator`` is the direct box-indicator
estimate of v(y) on the simplex, summed by rows of prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .cubature import _TENSOR_CHUNK, _chunk_sums, _tensor_block, gauss_legendre_rule
from .errors import EvaluationError, InputError
from .special import exp_in_range, log_gamma, power_over_gamma


def _validate_alpha(alpha) -> tuple[float, ...]:
    alpha = tuple(float(a) for a in alpha)
    if not alpha:
        raise InputError("alpha must have at least one entry")
    for a in alpha:
        if not a > -1.0:
            raise InputError(f"every exponent must exceed -1, got {a!r}")
    return alpha


@dataclass(frozen=True)
class SimplexMonomial:
    """coef * x^alpha with every alpha_i > -1 (integrable at the boundary)."""

    alpha: tuple[float, ...]
    coef: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))
        if isinstance(self.coef, bool) or not isinstance(self.coef, Real):
            raise InputError(f"coef must be a number, got {self.coef!r}")
        object.__setattr__(self, "coef", float(self.coef))

    @property
    def dim(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """A finite sum of simplex monomials over a common dimension."""

    terms: tuple[SimplexMonomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        dims = {t.dim for t in self.terms}
        if len(dims) > 1:
            raise InputError(f"terms mix dimensions {sorted(dims)}")

    @property
    def dim(self) -> int | None:
        return self.terms[0].dim if self.terms else None


def multivariate_laplace_monomial(alpha, gamma_vec) -> float:
    """prod_i Gamma(1 + alpha_i) / gamma_i^(1 + alpha_i), the
    orthant Laplace transform of x^alpha evaluated at gamma_vec > 0.

    Accumulated in log space; a value beyond the double range raises
    EvaluationError."""
    alpha = _validate_alpha(alpha)
    gamma_vec = tuple(float(gv) for gv in gamma_vec)
    if len(gamma_vec) != len(alpha):
        raise InputError(
            f"gamma_vec has length {len(gamma_vec)}, expected {len(alpha)}"
        )
    for gv in gamma_vec:
        if not gv > 0:
            raise InputError(f"every transform coordinate must be positive, got {gv!r}")
    log_value = math.fsum(
        log_gamma(1.0 + a) - (1.0 + a) * math.log(gv) for a, gv in zip(alpha, gamma_vec)
    )
    return exp_in_range(log_value, "the orthant Laplace transform of x^alpha")


def simplex_power_law(alpha) -> tuple[float, float]:
    """(p, log C) with v(y) = y^p * C / Gamma(1 + p) the integral of x^alpha
    over {x >= 0 : sum(x) <= y}: p = d + sum(alpha), C = prod Gamma(1 + alpha_i)."""
    alpha = _validate_alpha(alpha)
    return len(alpha) + math.fsum(alpha), math.fsum(log_gamma(1.0 + a) for a in alpha)


def simplex_monomial_v(alpha, y: float) -> float:
    """Exact integral of x^alpha over {x >= 0 : sum(x) <= y}."""
    p, log_coef = simplex_power_law(alpha)
    y = float(y)
    if y < 0:
        raise InputError(f"y must be nonnegative, got {y!r}")
    if y == 0.0:
        return 0.0
    return power_over_gamma(y, p, log_coef)


def simplex_laplace_of_v(alpha, lam: float) -> float:
    """Laplace transform of y -> simplex_monomial_v(alpha, y):
    L_v(lam) = prod Gamma(1 + alpha_i) / lam^(1 + d + sum(alpha))."""
    alpha = _validate_alpha(alpha)
    if not lam > 0:
        raise InputError(f"lam must be positive, got {lam!r}")
    return multivariate_laplace_monomial(alpha, (lam,) * len(alpha)) / lam


def generalized_polynomial_v(p: GeneralizedPolynomial, y: float) -> float:
    """Term-wise sum of coef * simplex_monomial_v(alpha, y)."""
    total = 0.0
    for term in p.terms:
        total += term.coef * simplex_monomial_v(term.alpha, y)
    return total


def orthant_monomial_evaluator(alpha):
    """Vectorized x^alpha on the open positive orthant, 0 elsewhere.

    The zero extension realizes the convention that simplex integrands
    vanish off the nonnegative orthant, so whole-box engines (Monte
    Carlo, box cubature) can be pointed at simplex problems directly.

    Evaluated column by column: the mask is x_1 > 0, and-ed with each
    x_j > 0 in turn; on the masked rows the powers x_j^alpha_j come from
    one numpy power of those rows by alpha, and the product starts at
    x_1^alpha_1 and multiplies in x_2^alpha_2, ..., x_d^alpha_d.  For
    d <= 7 that is the float sequence of ``np.prod(..., axis=1)``, so
    the values equal it bit for bit.
    """
    alpha = np.asarray(_validate_alpha(alpha))

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        mask = pts[:, 0] > 0.0
        for j in range(1, pts.shape[1]):
            mask &= pts[:, j] > 0.0
        if mask.any():
            powers = np.compress(mask, pts, axis=0) ** alpha
            prod = powers[:, 0].copy()
            for j in range(1, powers.shape[1]):
                prod *= powers[:, j]
            out[mask] = prod
        return out

    return f


def simplex_gauge(pts) -> np.ndarray:
    """g(x) = x_1 + ... + x_d, the sublevel function of the simplex family.

    Summed column by column, (((0 + x_1) + x_2) + ...) + x_d.  For d <= 7
    this is the float sequence of ``np.sum(..., axis=1)``, so the values
    equal it bit for bit; from d = 8 numpy sums pairwise, and the two
    may differ in the last few ulps (by at most d ulps of the sum of |x_j|).
    """
    pts = np.asarray(pts, dtype=float)
    total = pts[:, 0] + 0.0
    for j in range(1, pts.shape[1]):
        total += pts[:, j]
    return total


def _prefix_lengths(partial, ends, offset, y, strict):
    """Per row, the number of last-axis nodes whose gauge (partial + x_d)
    + offset is < y (``strict``) or <= y.  The gauge is non-decreasing in
    x_d, since each rounded addition is, so those nodes are a prefix, and
    bisection finds its length; ``ends`` is the ascending nodes plus inf."""
    lo = np.zeros(partial.size, dtype=np.intp)
    hi = np.full(partial.size, ends.size - 1, dtype=np.intp)
    for _ in range((ends.size - 1).bit_length()):
        mid = (lo + hi) >> 1
        gauge = (partial + ends[mid]) + offset
        inside = gauge < y if strict else gauge <= y
        lo = np.where(inside, mid + 1, lo)
        hi = np.where(inside, hi, mid)
    return lo


def simplex_box_indicator(poly: GeneralizedPolynomial, y: float, nodes_per_axis: int) -> float:
    """The box-indicator estimate of v(y): one tensor Gauss-Legendre pass of
    poly * 1{x_1 + ... + x_d <= y} over the corner box [0, y]^d, summed by
    rows of nodes in O(n^(d-1) log n) rather than node by node.

    The nodes and weights are a box pass's over [-r, r]^d, r = y / 2, each
    node shifted to q = x + r, and every node is judged as
    ``sublevel_integrand`` judges it under the gauge ``simplex_gauge(x) +
    d * r`` and the evaluator ``orthant_monomial_evaluator(alpha)`` at q:
    the gauge is formed in that float order on the unshifted node, a node
    with gauge == y counts half, and one with some q_j <= 0 counts 0.
    Along the last axis the nodes inside are a prefix (see
    ``_prefix_lengths``), so a row's last-axis sum is (C[lt] + C[le]) / 2,
    C the prefix sums of w * q^alpha_d and lt, le the prefix lengths under
    < y and <= y; each term shares the row's lengths.  Only the order of
    the sum differs from the node-by-node pass.  The rows of the first d - 1
    axes run in C order through ``_tensor_block``, one block at a time; a
    row's value is its weight times the sum over terms of coef * (the
    row's x^alpha over those axes) * its last-axis sum, and the rows are
    summed as ``_chunk_sums`` sums a pass.  A value that is not finite, in
    a row or in the sum, raises EvaluationError.
    """
    y = float(y)
    if not y > 0:
        raise InputError(f"y must be positive, got {y!r}")
    dim, radius = poly.dim, 0.5 * y
    offset = dim * radius
    base_nodes, base_weights = gauss_legendre_rule(nodes_per_axis)
    nodes, weights = radius * base_nodes, radius * base_weights
    coefs = [t.coef for t in poly.terms]
    alphas = np.array([t.alpha for t in poly.terms])
    ends = np.append(nodes, np.inf)
    q_last = nodes + radius
    on = q_last > 0.0
    with np.errstate(over="ignore"):
        terms_last = np.zeros((len(coefs), nodes.size))
        terms_last[:, on] = weights[on] * q_last[on] ** alphas[:, -1:]
        prefix = np.zeros((len(coefs), nodes.size + 1))
        np.cumsum(terms_last, axis=1, out=prefix[:, 1:])
    axes = [(nodes, weights)] * (dim - 1)

    def fill(a, b, out):
        if axes:
            pts, w = _tensor_block(axes, a, b)
            partial = pts[:, 0] + 0.0
            for j in range(1, dim - 1):
                partial += pts[:, j]
        else:  # d = 1: one row, of weight 1 and no coordinates
            pts, w, partial = np.empty((1, 0)), np.ones(1), np.zeros(1)
        below = _prefix_lengths(partial, ends, offset, y, True)
        upto = _prefix_lengths(partial, ends, offset, y, False)
        q = pts + radius
        keep = upto > 0
        for j in range(dim - 1):
            keep &= q[:, j] > 0.0
        out[:] = 0.0
        rows = np.flatnonzero(keep)
        if rows.size == 0:
            return
        q, below, upto = q[rows], below[rows], upto[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.zeros(rows.size)
            for coef, alpha, sums in zip(coefs, alphas, prefix):
                factor = np.full(rows.size, coef)
                for j in range(dim - 1):
                    factor *= q[:, j] ** alpha[j]
                total += factor * (0.5 * sums[below] + 0.5 * sums[upto])
            total *= w[rows]
        if not np.all(np.isfinite(total)):
            raise EvaluationError("the box-indicator sum is not finite on a row of nodes")
        out[rows] = total

    value, _ = _chunk_sums(nodes.size ** (dim - 1), _TENSOR_CHUNK, fill)
    if not math.isfinite(value):
        raise EvaluationError("the box-indicator sum is past the double range")
    return value
