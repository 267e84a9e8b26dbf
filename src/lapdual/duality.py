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

so positively homogeneous data in any dimension, polynomial or opaque
with stated degrees, is integrated there, with no box, tail or enlargement
loop (``dual_integral`` dispatches on the degrees SublevelProblem holds).

For a general polynomial f (no sign restriction) the homogeneous
components f_k are dualized one at a time with their own lambda_{y,k}.
For the fully general case this module offers only the inverse reading:
given a target value v(y), a secant search on log phi against log lam,
for the monotone map phi(lam) = integral(f * exp(-lam * g)), recovers
the dual value, making it a verification tool rather than an
independent evaluator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from . import cubature
from .cubature import (
    ENGINE_GAUSSIAN,
    ENGINE_POLAR,
    IntegralEstimate,
    QuadratureSpec,
    SplitIntegrand,
    gauss_legendre_rule,
    integrate_box,
    integrate_gaussian_quadratic,
    sphere_minimum,
)
from .errors import BracketError, EffortError, EvaluationError, EvaluationNoiseError, InputError
from .errors import UnboundedSublevelError
from .polyalg import MultiPoly
from .special import log_gamma

METHOD_CLOSED_FORM = "closed-form-homogeneous"
METHOD_DUAL_CUBATURE = "dual-cubature"
METHOD_DUAL_GAUSSIAN = "dual-gaussian"
METHOD_ROOT_FOUND = "root-found"

# Nonnegativity tolerance for opportunistic checks of g at touched points.
_G_NONNEG_TOL = 1e-12

# Relative tolerance of the axis-probe check of a stated degree.
_DEGREE_RTOL = 1e-12

# exp(-40) ~ 4e-18 sits below double resolution of any bulk integral, so a
# box whose boundary weight exponent reaches 40 loses no measurable mass.
_TAIL_EXPONENT = 40.0

# find_lambda_for_target's cap on evaluations of phi, how much longer than
# the last one a step of its outward walk may be, and the relative width
# in lam at which it stops (also its shortest step, so the walk never
# stalls below the resolution of log lam).
_MAX_PHI_EVALS = 100
_WALK_GROWTH = 4.0
_WIDTH_RTOL = 1e-10

# laplace_transform_by_quadrature's y-side rule and its cap on extending Y.
_TRANSFORM_PANELS = 64
_TRANSFORM_NODES = 32
_MAX_TAIL_DOUBLINGS = 64


@dataclass(frozen=True)
class SublevelProblem:
    """A problem instance: integrate f over {x : g(x) <= y}.

    f and g may be MultiPoly or opaque vectorized evaluators,
    (N, dim) -> (N,).  ``f_degree`` and ``g_degree`` are the positive
    homogeneity degrees every consumer reads, None when there is none.
    For a MultiPoly the degree is counted from its terms; a stated
    degree that differs, or any stated degree on a non-homogeneous
    polynomial, raises InputError.  An opaque evaluator's stated degree
    is checked here, for every route, on the axis probes 2 * (+-e_j) then
    +-e_j: InputError unless h scales by 2^degree to 1e-12 relative (a
    non-finite value is left to the engines).  A stated degree must be a
    finite real number with f_degree >= 0 and g_degree >= 1; a constant
    g has no degree (None, never 0).  g is assumed nonnegative with
    compact sublevel sets and is checked opportunistically at the points
    the engines touch.  ``f_pieces`` (derived; not in ==, hash or repr) is
    the one split of f every dual reads, its homogeneous pieces (k, f_k)
    ascending in k: ((f_degree, f),) when f has a degree, counted or stated;
    the components of any other MultiPoly (() for zero); None for an opaque
    f with no degree.

    Two private fields are derived too, and kept as long as the problem:
    ``_gaussian_q``, the read-only Q with g(x) = x'Qx when g is a
    positive-definite quadratic form (else None), and a store of what the
    duals compute free of lam (see ``_piece_dual``).  ``dataclasses.replace``
    derives both afresh, and ==, hash and repr ignore them.
    """

    dim: int
    f: MultiPoly | Callable[[np.ndarray], np.ndarray]
    g: MultiPoly | Callable[[np.ndarray], np.ndarray]
    f_degree: float | None = None
    g_degree: float | None = None
    f_pieces: tuple | None = field(init=False, repr=False, compare=False)
    _gaussian_q: np.ndarray | None = field(init=False, repr=False, compare=False)
    _lam_free: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")
        for name, h, stated, least in (
            ("f", self.f, self.f_degree, 0), ("g", self.g, self.g_degree, 1)
        ):
            if stated is not None and not (
                isinstance(stated, Real) and not isinstance(stated, bool)
                and least <= stated <= sys.float_info.max
            ):
                raise InputError(
                    f"{name}_degree must be a finite real number >= {least}, got {stated!r}"
                )
            if not isinstance(h, MultiPoly):
                if not callable(h):
                    raise InputError(f"{name} must be a MultiPoly or a callable evaluator")
                if stated is not None:  # h must scale by 2^stated from +-e_j to 2 * (+-e_j)
                    probes = np.vstack((np.eye(self.dim), -np.eye(self.dim)))
                    found = np.asarray(h(2.0 * probes), dtype=float)
                    with np.errstate(over="ignore", invalid="ignore"):
                        expected = np.float64(2.0) ** stated * np.asarray(h(probes), dtype=float)
                        off = np.abs(found - expected) > _DEGREE_RTOL * np.maximum(
                            np.abs(found), np.abs(expected))
                    if np.any(off & np.isfinite(found) & np.isfinite(expected)):
                        raise InputError(
                            f"{name} does not scale with its stated degree {stated}: doubling "
                            f"the axis points gives {found.tolist()}, not {expected.tolist()}")
                continue
            if h.dim != self.dim:
                raise InputError(f"{name} has dim {h.dim}, problem has dim {self.dim}")
            found = h.homogeneity_degree()
            if stated is not None and stated != found:
                fact = "is not homogeneous" if found is None else f"has degree {found}"
                raise InputError(f"stated {name}_degree {stated} contradicts {name}, which {fact}")
            if name == "g" and found == 0:
                found = None  # a constant g has no sublevel structure to scale
            object.__setattr__(self, f"{name}_degree", found)
        f, k = self.f, self.f_degree
        pieces = tuple(f.homogeneous_components()) if k is None and isinstance(f, MultiPoly) else None
        object.__setattr__(self, "f_pieces", ((k, f),) if k is not None else pieces)
        q = _quadratic_form_matrix(self.g) if isinstance(self.g, MultiPoly) else None
        object.__setattr__(self, "_gaussian_q", q)
        object.__setattr__(self, "_lam_free", {})


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
    if not 0 < y < math.inf:
        raise InputError(f"the level y must be finite and positive, got {y!r}")
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
    """Q, read-only, with g(x) = x'Qx when g is a positive-definite quadratic form."""
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
    Q.setflags(write=False)
    return Q


def _piece_dual(problem: SublevelProblem, k, f_k, lam: float, spec: QuadratureSpec) -> IntegralEstimate:
    """The integral of f_k * exp(-lam * g) for one piece (k, f_k) of
    ``problem.f_pieces``, g homogeneous: the Gaussian-weight rule on
    ``problem._gaussian_q`` when there is one, else the polar engine on
    the sphere sum of f_k * g^(-p), p = (dim + k)/d_g, with g checked for
    nonnegativity at every node.

    That sum does not depend on lam, so the problem's store keeps it under
    (k, spec) for every later call, and every result is the same bits as on
    a fresh problem.  An entry is read with one dict operation, so threads
    may share a problem; a race at worst computes an entry twice.
    """
    if problem._gaussian_q is not None:
        return integrate_gaussian_quadratic(f_k, problem._gaussian_q, lam, spec)
    d_g, store = problem.g_degree, problem._lam_free
    p = (problem.dim + k) / d_g
    sums = store.get((k, spec))
    if sums is None:
        sums = store[k, spec] = cubature._sphere_integral(f_k, _checked_g(problem), problem.dim, p, spec)
    return cubature.polar_estimate(sums, p, d_g, lam, spec)


def dual_integral(problem: SublevelProblem, lam: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate of the whole-space integral of f * exp(-lam * g).

    Dispatches on the structure of the data, in this order:

    1. g a positive-definite quadratic form: the Gaussian-weight rule.
    2. ``problem.g_degree`` known, and ``problem.f_pieces`` too, in any
       dim: ``_piece_dual`` of each piece of f, summed in ascending
       degree by ``math.fsum`` (a zero f: exactly 0.0, no evaluation).
       Stated degrees were checked when the problem was built.
    3. Anything else (an opaque f or a g of no degree): box Gauss-Legendre
       with an automatic radius.  When g has a degree, the initial radius
       puts the weight's boundary exponent at 40, and a g whose sampled
       sphere minimum is not positive raises UnboundedSublevelError.

    Every engine gets ``spec`` unchanged; the box engine chooses and
    verifies its own box, so ``spec.box_radius`` is not used.  g is
    checked for nonnegativity at every point the polar and box engines
    touch.  The result's ``error_estimate`` is the chosen engine's own;
    certificates and the root search read it.

    When g has no degree, the box's starting radius does not depend on
    lam, so the problem's store keeps the weights, f and g values of each
    grid of at most 2^18 points for every later call, as ``_piece_dual``
    keeps sphere sums (a larger pass empties the store and runs as
    without it); g is checked once, when its values are stored.
    """
    if not 0 < lam < math.inf:
        raise InputError(f"lam must be finite and positive, got {lam!r}")
    if problem._gaussian_q is not None:
        return integrate_gaussian_quadratic(problem.f, problem._gaussian_q, lam, spec)
    d_g, pieces = problem.g_degree, problem.f_pieces
    if d_g is not None and pieces is not None:
        parts = [_piece_dual(problem, k, f_k, lam, spec) for k, f_k in pieces]
        return IntegralEstimate(
            math.fsum(e.value for e in parts), None, ENGINE_POLAR, sum(e.effort for e in parts),
            None, math.fsum(e.magnitude for e in parts), math.fsum(e.error_estimate for e in parts),
        )

    f_eval, g_eval = problem.f, _checked_g(problem)

    def f_and_g(pts):
        g_vals = g_eval(pts)
        return np.asarray(f_eval(pts), dtype=float), g_vals

    phi = SplitIntegrand(f_and_g, lambda f_vals, g_vals: f_vals * np.exp(-lam * g_vals))
    if d_g is None:
        return integrate_box(phi, problem.dim, spec, memo=problem._lam_free)
    # Homogeneity gives a principled starting box: the weight's exponent reaches 40 at its boundary.
    m_hat = sphere_minimum(problem.g, problem.dim)
    if m_hat <= 0:
        raise UnboundedSublevelError(f"g is not positive away from the origin (sphere minimum {m_hat})")
    radius = (_TAIL_EXPONENT / (lam * m_hat)) ** (1.0 / d_g)
    return integrate_box(phi, problem.dim, spec, initial_radius=radius)


def v_polynomial(
    problem: SublevelProblem, y: float, spec: QuadratureSpec
) -> tuple[float, list[DualCertificate]]:
    """v(y) for f of any sign over homogeneous g, one piece of f at a time.

    Dualizes each of ``problem.f_pieces`` (k, f_k) by ``_piece_dual`` at its
    own lambda_{y,k} = Gamma(1 + (d+k)/d_g)^(d_g/(d+k)) / y and returns the
    ascending-in-k sum, with one certificate per piece.  An f with a degree,
    opaque with a stated one included, is one piece: f itself.
    """
    if problem.f_pieces is None:
        raise InputError("v_polynomial requires a polynomial f or a stated f_degree")
    if problem.g_degree is None:
        raise InputError("v_polynomial requires g positively homogeneous of degree >= 1")
    certificates = []
    total = 0.0
    for k, f_k in problem.f_pieces:
        lam = lambda_y_for_order((problem.dim + k) / problem.g_degree, y)
        est = _piece_dual(problem, k, f_k, lam, spec)
        method = METHOD_DUAL_GAUSSIAN if est.engine == ENGINE_GAUSSIAN else METHOD_DUAL_CUBATURE
        certificates.append(DualCertificate(y, lam, est.value, method, est.error_estimate))
        total += est.value
    return total, certificates


def laplace_of_v(problem: SublevelProblem, lam: float, spec: QuadratureSpec) -> float:
    """Laplace transform of v at lam:
    L_v(lam) = (1/lam) * integral of f * exp(-lam * g) over R^d.

    EvaluationError when L_v(lam) is past the double range.
    """
    return _transform_sum([dual_integral(problem, lam, spec).value / lam], lam)


def _transform_sum(terms, lam: float) -> float:
    """math.fsum of a Laplace transform's terms; EvaluationError past the double range."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise EvaluationError(f"the Laplace transform of v at lam = {lam} is past the double range")
    return total


def find_lambda_for_target(
    problem: SublevelProblem,
    target: float,
    bracket: tuple[float, float],
    spec: QuadratureSpec,
) -> float:
    """Recover lam with phi(lam) = integral(f * exp(-lam*g)) = target.

    A safeguarded secant search on log phi against log lam, where phi is
    nonincreasing.  For homogeneous data log phi is a straight line in
    log lam, so the secant step is exact there; elsewhere it is nearly so.
    The search starts at the geometric middle of the bracket and walks
    toward the target by secant extrapolation, each step at most
    4 times the last and clamped to the bracket, until two evaluated
    points straddle the target; a bracket end is evaluated only when the
    walk reaches it, and BracketError is raised when that end is still
    on the target's far side.  The Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971) then closes in on the straddling
    pair, bisecting in log space when a phi is not positive or a step
    leaves the interval.

    Every evaluated phi is checked for monotonicity against all the
    others, with noise floor 4 * max(error estimate) of each pair
    (EvaluationNoiseError).  The search stops when |phi - target| is
    within the engine's own error estimate or the straddling interval
    is below 1e-10 relative, after at most 100 evaluations; the phi at
    the returned lam is checked against ``spec.rel_tol * target``.
    """
    return _find_lambda(problem, target, bracket, spec)[0]


class _Sample(NamedTuple):
    """One evaluation of phi in find_lambda_for_target's search."""

    u: float  # log lam
    lam: float
    phi: float
    err: float  # the engine's error estimate
    log_ratio: float | None  # log(phi / target); None when phi <= 0


def _find_lambda(
    problem: SublevelProblem,
    target: float,
    bracket: tuple[float, float],
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """find_lambda_for_target's search; returns (lam, phi(lam))."""
    lo, hi = bracket
    if not (0 < lo < hi < math.inf):
        raise InputError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    if not 0 < target < math.inf:
        raise InputError(f"target must be finite and positive, got {target!r}")
    u_lo, u_hi = math.log(lo), math.log(hi)
    log_target = math.log(target)
    samples: list[_Sample] = []

    def evaluate(u):
        lam = lo if u <= u_lo else hi if u >= u_hi else math.exp(u)
        est = dual_integral(problem, lam, spec)
        phi, err = est.value, est.error_estimate
        for s in samples:
            floor = 4.0 * max(err, s.err, 1e-300)
            if (lam > s.lam and phi > s.phi + floor) or (lam < s.lam and phi < s.phi - floor):
                raise EvaluationNoiseError(
                    f"phi({lam}) = {phi} and phi({s.lam}) = {s.phi} break monotonicity"
                )
        sample = _Sample(u, lam, phi, err, math.log(phi) - log_target if phi > 0 else None)
        samples.append(sample)
        return sample

    def converged(s):
        return abs(s.phi - target) <= max(s.err, 1e-300)

    def above(s):
        return s.phi > target

    # Walk out from the middle until two samples straddle the target.
    prev, cur = None, evaluate(0.5 * (u_lo + u_hi))
    while (
        len(samples) < _MAX_PHI_EVALS
        and not converged(cur)
        and (prev is None or above(prev) == above(cur))
    ):
        direction = 1.0 if above(cur) else -1.0
        if cur.u == (u_hi if direction > 0 else u_lo):
            raise BracketError(
                f"target {target} is not between phi({hi}) and phi({lo}): "
                f"phi({cur.lam}) = {cur.phi}"
            )
        if prev is None:
            # No slope yet: guess phi ~ 1/lam, a slope of -1.
            step = cur.log_ratio if cur.log_ratio is not None else 1.0
            longest = math.inf
        else:
            last = cur.u - prev.u
            slope = 0.0
            if cur.log_ratio is not None and prev.log_ratio is not None:
                slope = (cur.log_ratio - prev.log_ratio) / last
            step = -cur.log_ratio / slope if slope < 0 else 2.0 * last
            longest = _WALK_GROWTH * abs(last)
        step = direction * min(max(abs(step), _WIDTH_RTOL), longest)
        prev, cur = cur, evaluate(min(max(cur.u + step, u_lo), u_hi))

    # Close in on the straddling pair with Illinois steps: regula falsi
    # that halves the retained end's value each time that end is kept.
    if not converged(cur) and above(prev) != above(cur):
        a, b = prev, cur
        f_a = a.log_ratio
        while len(samples) < _MAX_PHI_EVALS and abs(b.u - a.u) > _WIDTH_RTOL:
            u = 0.5 * (a.u + b.u)
            if f_a is not None and b.log_ratio is not None:
                secant = b.u - b.log_ratio * (b.u - a.u) / (b.log_ratio - f_a)
                if min(a.u, b.u) < secant < max(a.u, b.u):
                    u = secant
            c = evaluate(u)
            if converged(c):
                break
            if above(c) == above(b):
                f_a = None if f_a is None else 0.5 * f_a
            else:
                a, f_a = b, b.log_ratio
            b = c

    best = min(samples, key=lambda s: abs(s.phi - target))
    if abs(best.phi - target) > spec.rel_tol * target:
        raise EvaluationNoiseError(
            f"root-finding residual {abs(best.phi - target)} exceeds "
            f"rel_tol * target = {spec.rel_tol * target}; evaluations may be too noisy"
        )
    return best.lam, best.phi


def laplace_transform_by_quadrature(v_fn: Callable[[np.ndarray], np.ndarray], lam: float) -> float:
    """Direct 1-D quadrature of integral_0^inf v(y) * exp(-lam*y) dy.

    ``v_fn`` maps a 1-D array of y > 0 to the array of v(y); a v(y)
    beyond the double range is EvaluationError, raised by v_fn or here.

    32-node Gauss-Legendre on 64 dyadic panels of [0, Y] and the head
    [0, Y / 2^64] (geometrically refined toward 0, where v typically has
    an algebraic singularity in its derivatives), plus the first-order
    tail term v(Y) e^(-lam Y) / lam for the remainder beyond Y.  Y starts
    at 40/lam and doubles, adding the panel [Y, 2Y], while that tail term
    is not negligible against the sum, so Y follows the growth of v.
    v_fn is called once on the nodes of the first 65 panels and Y, then
    once per doubling on the new panel's nodes and 2Y.  EffortError if
    the tail is still not negligible after 64 doublings, and
    EvaluationError once the sum, or the next panel, is past the double
    range.
    """
    if not lam > 0:
        raise InputError(f"lam must be positive, got {lam!r}")
    nodes, weights = gauss_legendre_rule(_TRANSFORM_NODES)

    def panels(lowers, uppers):
        """Each panel's rule sum, and v at the last upper end."""
        half = 0.5 * (uppers - lowers)
        # The midpoint lower + half, which overflows no sooner than upper.
        t = (lowers + half)[:, np.newaxis] + half[:, np.newaxis] * nodes
        ys = np.append(t, uppers[-1])
        v = np.asarray(v_fn(ys), dtype=float)
        if v.shape != ys.shape:
            raise InputError(f"v_fn returned shape {v.shape}, expected {ys.shape}")
        if not np.all(np.isfinite(v)):
            raise EvaluationError("v is not finite at a node of the transform's quadrature")
        rows = (v[:-1] * np.exp(-lam * ys[:-1])).reshape(t.shape)
        return [h * float(np.dot(weights, row)) for h, row in zip(half.tolist(), rows)], float(v[-1])

    y_top = max(_TAIL_EXPONENT / lam, 1.0)
    uppers = y_top * 0.5 ** np.arange(_TRANSFORM_PANELS, -1, -1.0)
    pieces, v_top = panels(np.append(0.0, uppers[:-1]), uppers)
    for _ in range(_MAX_TAIL_DOUBLINGS):
        tail = v_top * math.exp(-lam * y_top) / lam
        if abs(tail) <= sys.float_info.epsilon * abs(_transform_sum(pieces, lam)):
            return _transform_sum(pieces + [tail], lam)
        if math.isinf(2.0 * y_top):
            raise EvaluationError(f"the transform's panel beyond y = {y_top} is past the double range")
        more, v_top = panels(np.array([y_top]), np.array([2.0 * y_top]))
        pieces += more
        y_top *= 2.0
    raise EffortError(
        f"the transform's tail beyond y = {y_top} is still not negligible; "
        "v may grow too fast for its Laplace transform to exist"
    )
