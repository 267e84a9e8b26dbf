"""Dual representations of sublevel-set integrals.

The central identity: for continuous nonnegative g with compact
sublevel sets K_y = {x : g(x) <= y} and suitable f, the parametric
integral v(y) = integral of f over K_y equals a whole-space integral

    v(y) = integral of f(x) * exp(-lambda_y * g(x)) over R^d

for a distinguished dual value lambda_y > 0.  When f and g are
positively homogeneous of degrees d_f and d_g the dual value is
explicit:

    y * lambda_y = Gamma(1 + (d + d_f)/d_g) ** (d_g / (d + d_f)),

and v itself has the closed form
v(y) = y^((d+d_f)/d_g) * integral(f * exp(-g)) / Gamma(1 + (d+d_f)/d_g).
The same homogeneity argument, with p = (d + d_f)/d_g, turns the dual
integral into one over the unit sphere,

    integral of f * exp(-lam * g) = Gamma(p) / (d_g * lam^p) * integral of f * g^(-p) dsigma,

so homogeneous polynomial data in d <= 3 is integrated there, with no
box, tail or enlargement loop (``dual_integral`` dispatches).

For a general polynomial f (no sign restriction) the homogeneous
components f_k are dualized one at a time with their own lambda_{y,k}.
For the fully general case this module offers only the inverse reading:
given a target value v(y), bisection on the monotone map
phi(lam) = integral(f * exp(-lam * g)) recovers the dual value, making
it a verification tool rather than an independent evaluator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cubature import (
    ENGINE_BOX,
    ENGINE_GAUSSIAN,
    ENGINE_MONTE_CARLO,
    IntegralEstimate,
    QuadratureSpec,
    gauss_legendre_rule,
    integrate_box,
    integrate_gaussian_quadratic,
    integrate_polar,
    sphere_minimum,
)
from .errors import BracketError, EffortError, EvaluationNoiseError, InputError
from .polyalg import MultiPoly
from .special import log_gamma, power_over_gamma

METHOD_CLOSED_FORM = "closed-form-homogeneous"
METHOD_DUAL_CUBATURE = "dual-cubature"
METHOD_DUAL_GAUSSIAN = "dual-gaussian"
METHOD_ROOT_FOUND = "root-found"

# Nonnegativity tolerance for opportunistic checks of g at touched points.
_G_NONNEG_TOL = 1e-12

# exp(-40) ~ 4e-18 sits below double resolution of any bulk integral, so a
# box whose boundary weight exponent reaches 40 loses no measurable mass.
_TAIL_EXPONENT = 40.0

# laplace_transform_by_quadrature's y-side rule and its cap on extending Y.
_TRANSFORM_PANELS = 64
_TRANSFORM_NODES = 32
_MAX_TAIL_DOUBLINGS = 64


@dataclass(frozen=True)
class SublevelProblem:
    """A problem instance: integrate f over {x : g(x) <= y}.

    f and g may be MultiPoly or opaque vectorized evaluators,
    (N, dim) -> (N,).  Homogeneity degrees are filled in automatically
    for polynomial data and must match when supplied redundantly.
    g is assumed nonnegative with compact sublevel sets and is checked
    opportunistically at the points the engines touch.
    """

    dim: int
    f: MultiPoly | Callable[[np.ndarray], np.ndarray]
    g: MultiPoly | Callable[[np.ndarray], np.ndarray]
    f_degree: float | None = None
    g_degree: float | None = None

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")
        for name, h in (("f", self.f), ("g", self.g)):
            if isinstance(h, MultiPoly):
                if h.dim != self.dim:
                    raise InputError(f"{name} has dim {h.dim}, problem has dim {self.dim}")
            elif not callable(h):
                raise InputError(f"{name} must be a MultiPoly or a callable evaluator")
        for name, h, stated in (("f", self.f, self.f_degree), ("g", self.g, self.g_degree)):
            if isinstance(h, MultiPoly):
                found = h.homogeneity_degree()
                if stated is None:
                    object.__setattr__(self, f"{name}_degree", found)
                elif found is not None and stated != found:
                    raise InputError(
                        f"stated {name}_degree {stated} contradicts the polynomial's degree {found}"
                    )


@dataclass(frozen=True)
class DualCertificate:
    """Record tying a value of v(y) to the dual representation that
    produced it: v(y) = integral of f * exp(-lambda_y * g)."""

    y: float
    lambda_y: float
    v_value: float
    method: str
    error_estimate: float

    def __post_init__(self):
        if not self.y > 0:
            raise InputError(f"certificate y must be positive, got {self.y!r}")
        if not self.lambda_y > 0:
            raise InputError(f"certificate lambda_y must be positive, got {self.lambda_y!r}")
        if self.error_estimate < 0:
            raise InputError("error_estimate must be nonnegative")

    def csv_row(self) -> tuple:
        return (self.y, self.lambda_y, self.v_value, self.method, self.error_estimate)


def lambda_y_for_order(order: float, y: float) -> float:
    """Dual value Gamma(1 + order)^(1/order) / y, where ``order`` is the
    homogeneity degree of v itself; computed through log_gamma."""
    if not order > 0:
        raise InputError(f"order must be positive, got {order!r}")
    if not y > 0:
        raise InputError(f"y must be positive, got {y!r}")
    return math.exp(log_gamma(1.0 + order) / order) / y


def lambda_y_homogeneous(d: int, d_f: float, d_g: float, y: float) -> float:
    """Explicit dual value for positively homogeneous f (degree d_f) and
    g (degree d_g) in dimension d:

        lambda_y = Gamma(1 + (d + d_f)/d_g) ** (d_g/(d + d_f)) / y,

    computed through log_gamma for stability.
    """
    if not isinstance(d, int) or d < 1:
        raise InputError(f"d must be a positive integer, got {d!r}")
    if d_f < 0:
        raise InputError(f"d_f must be nonnegative, got {d_f!r}")
    if not d_g >= 1:
        raise InputError(f"d_g must be at least 1, got {d_g!r}")
    return lambda_y_for_order((d + d_f) / d_g, y)


def dual_constant(d: int, d_f: float, d_g: float) -> float:
    """The constant y * lambda_y = Gamma(1 + (d+d_f)/d_g)^(d_g/(d+d_f))."""
    return lambda_y_homogeneous(d, d_f, d_g, 1.0)


def _checked_g(problem: SublevelProblem):
    g = problem.g

    def g_eval(pts):
        vals = np.asarray(g(pts), dtype=float)
        bad = vals < -_G_NONNEG_TOL * (1.0 + np.abs(vals))
        if np.any(bad):
            raise InputError(
                "g evaluated negatively at a touched point "
                f"(min value {float(np.min(vals))}); g must be nonnegative"
            )
        return vals

    return g_eval


def _quadratic_form_matrix(g: MultiPoly) -> np.ndarray | None:
    """Q with g(x) = x'Qx when g is a positive-definite quadratic form."""
    if g.homogeneity_degree() != 2:
        return None
    dim = g.dim
    Q = np.zeros((dim, dim))
    for exps, coef in g.terms:
        nz = [j for j, e in enumerate(exps) if e]
        if len(nz) == 1:
            Q[nz[0], nz[0]] = coef
        else:
            i, j = nz
            Q[i, j] = Q[j, i] = 0.5 * coef
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return None
    return Q


def _error_estimate(est: IntegralEstimate, spec: QuadratureSpec) -> float:
    """Crude per-engine error proxy attached to certificates; the box and
    polar engines' is their convergence tolerance on the scale they tested."""
    if est.engine == ENGINE_MONTE_CARLO:
        return est.std_error
    if est.engine == ENGINE_GAUSSIAN:
        return abs(est.value) * 1e-14
    return max(abs(est.value), est.magnitude) * spec.rel_tol


def dual_integral(problem: SublevelProblem, lam: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate of the whole-space integral of f * exp(-lam * g).

    Dispatches on the structure of the data, overriding ``spec.engine``,
    in this order:

    1. g a positive-definite quadratic form: the Gaussian-weight rule.
    2. f and g both MultiPoly and homogeneous (counted from their terms,
       so a fact rather than a claim), g of degree >= 1, dim <= 3: the
       polar engine, one integral over the unit sphere.
    3. Anything else (opaque callables with stated degrees,
       non-homogeneous f or g, dim >= 4): box Gauss-Legendre with an
       automatic radius; the initial radius puts the weight's boundary
       exponent at 40 when g is homogeneous with a positive sphere
       minimum.

    ``spec.box_radius`` is ignored: the box is always chosen and
    verified here.  g is checked for nonnegativity at every point the
    polar and box engines touch.
    """
    if not lam > 0:
        raise InputError(f"lam must be positive, got {lam!r}")
    g_eval = _checked_g(problem)
    if isinstance(problem.g, MultiPoly):
        Q = _quadratic_form_matrix(problem.g)
        if Q is not None:
            gaussian_spec = replace(spec, engine=ENGINE_GAUSSIAN)
            return integrate_gaussian_quadratic(problem.f, Q, lam, gaussian_spec)
        if isinstance(problem.f, MultiPoly) and problem.dim <= 3:
            k = problem.f.homogeneity_degree()
            d_g = problem.g.homogeneity_degree()
            if k is not None and d_g not in (None, 0):
                return integrate_polar(problem.f, g_eval, problem.dim, k, d_g, lam, spec)

    f_eval = problem.f

    def phi(pts):
        g_vals = g_eval(pts)
        return np.asarray(f_eval(pts), dtype=float) * np.exp(-lam * g_vals)

    initial_radius = 1.0
    if problem.g_degree not in (None, 0):
        # Homogeneity (stated or detected) gives a principled starting box:
        # the weight's exponent reaches 40 at the boundary.
        m_hat = sphere_minimum(problem.g, problem.dim)
        if m_hat > 0:
            initial_radius = (_TAIL_EXPONENT / (lam * m_hat)) ** (1.0 / problem.g_degree)
    box_spec = replace(spec, engine=ENGINE_BOX, box_radius="auto")
    return integrate_box(phi, problem.dim, box_spec, initial_radius=initial_radius)


def v_homogeneous_closed_form(problem: SublevelProblem, base_integral: float, y: float) -> float:
    """Closed form v(y) = y^p * base_integral / Gamma(1 + p) with
    p = (d + d_f)/d_g, given base_integral = integral of f * exp(-g).

    Evaluated in log space, so only v(y) itself must fit in a double;
    a v(y) beyond the double range raises EvaluationError.
    """
    if problem.f_degree is None or problem.g_degree is None:
        raise InputError("closed form requires homogeneity degrees for both f and g")
    y = float(y)
    if y < 0:
        raise InputError(f"y must be nonnegative, got {y!r}")
    p = (problem.dim + problem.f_degree) / problem.g_degree
    if y == 0.0 or base_integral == 0.0:
        return 0.0
    return math.copysign(power_over_gamma(y, p, math.log(abs(base_integral))), base_integral)


def v_dual_homogeneous(problem: SublevelProblem, y: float, spec: QuadratureSpec) -> DualCertificate:
    """v(y) via the explicit dual value for homogeneous f and g.

    Computes lambda_y from the degrees, evaluates the dual integral
    there, and returns the certificate; y * lambda_y equals the dual
    constant by construction.
    """
    if problem.f_degree is None or problem.g_degree is None:
        raise InputError("dual evaluation requires homogeneity degrees for both f and g")
    lam = lambda_y_homogeneous(problem.dim, problem.f_degree, problem.g_degree, y)
    est = dual_integral(problem, lam, spec)
    method = METHOD_DUAL_GAUSSIAN if est.engine == ENGINE_GAUSSIAN else METHOD_DUAL_CUBATURE
    return DualCertificate(y, lam, est.value, method, _error_estimate(est, spec))


def v_polynomial(
    problem: SublevelProblem, y: float, spec: QuadratureSpec
) -> tuple[float, list[DualCertificate]]:
    """v(y) for polynomial f (any sign) over homogeneous g.

    Decomposes f into homogeneous components f_k and dualizes each with
    its own lambda_{y,k} = Gamma(1 + (d+k)/d_g)^(d_g/(d+k)) / y; the
    value is the ascending-in-k sum of the component integrals, with
    one certificate per component.
    """
    if not isinstance(problem.f, MultiPoly):
        raise InputError("v_polynomial requires a polynomial f")
    if problem.g_degree is None or problem.g_degree < 1:
        raise InputError("v_polynomial requires g positively homogeneous of degree >= 1")
    certificates = []
    total = 0.0
    for k, f_k in problem.f.homogeneous_components():
        cert = v_dual_homogeneous(replace(problem, f=f_k, f_degree=k), y, spec)
        certificates.append(cert)
        total += cert.v_value
    return total, certificates


def laplace_of_v(problem: SublevelProblem, lam: float, spec: QuadratureSpec) -> float:
    """Laplace transform of v at lam:
    L_v(lam) = (1/lam) * integral of f * exp(-lam * g) over R^d.
    """
    if not lam > 0:
        raise InputError(f"lam must be positive, got {lam!r}")
    return dual_integral(problem, lam, spec).value / lam


def find_lambda_for_target(
    problem: SublevelProblem,
    target: float,
    bracket: tuple[float, float],
    spec: QuadratureSpec,
) -> float:
    """Recover lam with phi(lam) = integral(f * exp(-lam*g)) = target.

    Bisection (in log space) on the nonincreasing map phi; the bracket
    must straddle the target.  Iteration stops when the bracket width
    falls below 1e-10 relative or the residual drops below the engine's
    own error estimate, after at most 200 steps; the result is checked
    against ``spec.rel_tol * target``.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise InputError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")
    if not target > 0:
        raise InputError(f"target must be positive, got {target!r}")

    def phi(lam):
        est = dual_integral(problem, lam, spec)
        return est.value, _error_estimate(est, spec)

    phi_lo, err_lo = phi(lo)
    phi_hi, err_hi = phi(hi)
    if not (phi_hi < target < phi_lo):
        raise BracketError(
            f"target {target} is not strictly between phi(hi)={phi_hi} and phi(lo)={phi_lo}"
        )
    noise_floor = 4.0 * max(err_lo, err_hi, 1e-300)

    lam_star = math.sqrt(lo * hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        phi_mid, err_mid = phi(mid)
        if phi_mid > phi_lo + noise_floor or phi_mid < phi_hi - noise_floor:
            raise EvaluationNoiseError(
                f"phi({mid}) = {phi_mid} breaks monotonicity between "
                f"phi({lo}) = {phi_lo} and phi({hi}) = {phi_hi}"
            )
        lam_star = mid
        if abs(phi_mid - target) <= max(err_mid, 1e-300):
            break
        if phi_mid > target:
            lo, phi_lo = mid, phi_mid
        else:
            hi, phi_hi = mid, phi_mid
        if hi - lo <= 1e-10 * mid:
            lam_star = math.sqrt(lo * hi)
            break

    phi_star, _ = phi(lam_star)
    if abs(phi_star - target) > spec.rel_tol * target:
        raise EvaluationNoiseError(
            f"bisection residual {abs(phi_star - target)} exceeds "
            f"rel_tol * target = {spec.rel_tol * target}; evaluations may be too noisy"
        )
    return lam_star


def initial_value_check(problem: SublevelProblem, lam_large: float, spec: QuadratureSpec) -> float:
    """phi(lam_large) = lam * L_v(lam), which decays to v(0) = 0 as
    lam grows when K_0 has measure zero; the caller asserts smallness.
    """
    return dual_integral(problem, lam_large, spec).value


def final_value_check(problem: SublevelProblem, lam_small: float, spec: QuadratureSpec) -> float:
    """phi(lam_small), an estimate of v(infinity) when that limit is
    finite.

    When v grows without bound the values grow as lam_small decreases
    and, for box-engine problems, the automatic enlargement eventually
    fails to stabilize (EffortError), flagging the likely-divergent
    case.  No finiteness decision is made here.
    """
    return dual_integral(problem, lam_small, spec).value


def laplace_transform_by_quadrature(v_fn: Callable[[float], float], lam: float) -> float:
    """Direct 1-D quadrature of integral_0^inf v(y) * exp(-lam*y) dy.

    32-node Gauss-Legendre on 64 dyadic panels of [0, Y] and the head
    [0, Y / 2^64] (geometrically refined toward 0, where v typically has
    an algebraic singularity in its derivatives), plus the first-order
    tail term v(Y) e^(-lam Y) / lam for the remainder beyond Y.  Y starts
    at 40/lam and doubles, adding the panel [Y, 2Y], while that tail term
    is not negligible against the sum, so Y follows the growth of v.
    EffortError if it is still not negligible after 64 doublings.
    """
    if not lam > 0:
        raise InputError(f"lam must be positive, got {lam!r}")
    nodes, weights = gauss_legendre_rule(_TRANSFORM_NODES)

    def panel(lower, upper):
        mid = 0.5 * (upper + lower)
        half = 0.5 * (upper - lower)
        vals = [v_fn(float(t)) * math.exp(-lam * float(t)) for t in mid + half * nodes]
        return half * float(np.dot(weights, vals))

    y_top = max(_TAIL_EXPONENT / lam, 1.0)
    uppers = [y_top * 0.5**i for i in range(_TRANSFORM_PANELS + 1)]
    pieces = [panel(lower, upper) for upper, lower in zip(uppers, uppers[1:] + [0.0])]
    for _ in range(_MAX_TAIL_DOUBLINGS):
        tail = v_fn(y_top) * math.exp(-lam * y_top) / lam
        if abs(tail) <= sys.float_info.epsilon * abs(math.fsum(pieces)):
            return math.fsum(pieces + [tail])
        pieces.append(panel(y_top, 2.0 * y_top))
        y_top *= 2.0
    raise EffortError(
        f"the transform's tail beyond y = {y_top} is still not negligible; "
        "v may grow too fast for its Laplace transform to exist"
    )
