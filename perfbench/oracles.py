"""Reference values that do not depend on the code under test.

Nothing here evaluates a lapdual polynomial, calls lapdual's Gamma
functions or runs a lapdual engine.  Polynomials are plain lists of
``(coef, exps)`` pairs evaluated with numpy; Gamma values come from
``math.lgamma``; one-dimensional rules come from numpy.

- 2-D homogeneous data: the polar form of the homogeneity identity,
  v_k(y) = y^p / (2 + k) * contour integral of f_k * g^(-p) dtheta with
  p = (2 + k) / d_g, by a periodic trapezoid rule.  The rule converges
  geometrically on analytic periodic integrands (Trefethen & Weideman,
  SIAM Review 56(3), 2014); N doubles until two values agree to 1e-14.
- 3-D separable g = sum a_i x_i^4: products of
  Gamma((b_i + 1)/4) / (2 a_i^((b_i + 1)/4)).
- Radial non-homogeneous g: a 1-D composite Gauss-Legendre rule in
  s = |x|^2, with panels doubling until two values agree to 1e-14.
- Ellipses x'Qx <= y and dilated simplices: closed forms.
"""

from __future__ import annotations

import math

import numpy as np

_AGREE = 1e-14
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def poly_eval(terms, pts) -> np.ndarray:
    """Sum of coef * prod(x_j ** e_j) over rows of pts, shape (N, d)."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[0])
    for coef, exps in terms:
        term = np.full(pts.shape[0], float(coef))
        for j, e in enumerate(exps):
            if e:
                term = term * pts[:, j] ** e
        out = out + term
    return out


def homogeneous_components(terms) -> dict[int, list]:
    """Terms grouped by total degree."""
    groups: dict[int, list] = {}
    for coef, exps in terms:
        groups.setdefault(sum(exps), []).append((coef, tuple(exps)))
    return dict(sorted(groups.items()))


def dual_lambda(order: float, y: float) -> float:
    """Gamma(1 + order)^(1/order) / y, the explicit dual value for v ~ y^order."""
    return math.exp(math.lgamma(1.0 + order) / order) / y


def _circle_integral(f_terms, g_terms, p: float, n: int) -> tuple[float, float]:
    theta = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack((np.cos(theta), np.sin(theta)))
    g = poly_eval(g_terms, pts)
    if np.any(g <= 0.0):
        raise ValueError("g must be positive on the unit circle")
    weight = g ** (-p)
    f = poly_eval(f_terms, pts)
    scale = 2.0 * math.pi / n
    return scale * float(np.sum(f * weight)), scale * float(np.sum(np.abs(f) * weight))


def polar_component(f_terms, k: int, g_terms, d_g: int, y: float) -> float:
    """v_k(y) for f_k homogeneous of degree k over 2-D homogeneous g of degree d_g."""
    p = (2.0 + k) / d_g
    n = 32
    prev, _ = _circle_integral(f_terms, g_terms, p, n)
    while True:
        n *= 2
        cur, scale = _circle_integral(f_terms, g_terms, p, n)
        if abs(cur - prev) <= _AGREE * scale:
            return y**p / (2.0 + k) * cur
        if n >= 1 << 22:
            raise ArithmeticError("periodic trapezoid rule did not converge")
        prev = cur


def separable_quartic_component(f_terms, k: int, a, y: float) -> float:
    """v_k(y) for f_k of degree k over g = sum_i a_i x_i^4 in any dimension."""
    d = len(a)
    p = (d + k) / 4.0
    base = 0.0
    for coef, exps in f_terms:
        if any(e % 2 for e in exps):
            continue  # odd in some x_i: integrates to zero
        log_term = 0.0
        for e, a_i in zip(exps, a):
            q = (e + 1) / 4.0
            log_term += math.lgamma(q) - q * math.log(a_i) - math.log(2.0)
        base += coef * math.exp(log_term)
    # v(y) = y^p * integral(f_k e^{-g}) / Gamma(1 + p)
    return math.exp(p * math.log(y) - math.lgamma(1.0 + p)) * base


def fig1_sphere_min(family: str, c: float) -> float:
    """Exact minimum of g on the unit circle for the fig1 families.

    quartic x^4 + y^4 + c x^2 y^2 = 1 - (2 - c) s^2 with s = cos*sin,
    sextic x^6 + y^6 + c x^3 y^3 = 1 - 3 s^2 + c s^3, s in [-1/2, 1/2].
    """
    if family == "quartic":
        return min(1.0, (2.0 + c) / 4.0)
    if family == "sextic":
        if abs(c) >= 4.0:
            raise ValueError("sextic minimum formula needs |c| < 4")
        return (2.0 - abs(c)) / 8.0
    raise ValueError(f"unknown family {family!r}")


def radial_phi(f_coeffs, g_coeffs, lam: float) -> float:
    """Integral over R^2 of f * exp(-lam * g) for radial f and g.

    ``f_coeffs[m]`` multiplies |x|^(2m); ``g_coeffs = (a, b)`` means
    g = a |x|^2 + b |x|^4 with a, b > 0.  In s = |x|^2 the integral is
    pi * integral_0^inf f(s) exp(-lam (a s + b s^2)) ds.
    """
    a, b = g_coeffs
    # Beyond s_max the weight is below exp(-800), far under double resolution.
    s_max = (-a + math.sqrt(a * a + 4.0 * b * 800.0 / lam)) / (2.0 * b)

    def rule(panels: int) -> float:
        edges = np.linspace(0.0, s_max, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        f = np.zeros_like(s)
        for m, c in enumerate(f_coeffs):
            f = f + c * s**m
        return math.pi * float(np.sum(w * f * np.exp(-lam * (a * s + b * s * s))))

    panels = 4
    prev = rule(panels)
    while True:
        panels *= 2
        cur = rule(panels)
        if abs(cur - prev) <= _AGREE * abs(cur):
            return cur
        if panels >= 1 << 14:
            raise ArithmeticError("radial quadrature did not converge")
        prev = cur


def ellipse_components(c0: float, quad, Q, y: float) -> tuple[float, float]:
    """(v_0, v_2) for f = c0 + x'Ax over {x'Qx <= y} in the plane.

    ``quad = (a_xx, a_yy, a_xy)`` gives x'Ax = a_xx x^2 + a_yy y^2 + a_xy x y,
    ``Q = (q_xx, q_yy, q_xy)`` likewise.  With x = Q^(-1/2) u the set is a
    disc of radius sqrt(y), whose second moments are pi y^2 / 4 * I, so
    integral(x'Ax) = pi y^2 / (4 sqrt(det Q)) * tr(A Q^-1).
    """
    q_xx, q_yy, q_xy = Q
    det = q_xx * q_yy - 0.25 * q_xy * q_xy
    if not det > 0 or not q_xx > 0:
        raise ValueError("Q must be positive definite")
    a_xx, a_yy, a_xy = quad
    # tr(A Q^-1) with Q^-1 = [[q_yy, -q_xy/2], [-q_xy/2, q_xx]] / det
    trace = (a_xx * q_yy + a_yy * q_xx - 2.0 * (0.5 * a_xy) * (0.5 * q_xy)) / det
    root = math.sqrt(det)
    return c0 * math.pi * y / root, math.pi * y * y / (4.0 * root) * trace


def simplex_monomial(alpha, y: float) -> float:
    """Integral of x^alpha over {x >= 0 : sum(x) <= y}."""
    p = len(alpha) + math.fsum(alpha)
    log_value = (
        p * math.log(y)
        + math.fsum(math.lgamma(1.0 + a) for a in alpha)
        - math.lgamma(1.0 + p)
    )
    return math.exp(log_value)
