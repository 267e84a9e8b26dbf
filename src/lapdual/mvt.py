"""Mean-value point extraction.

For continuous f and compact connected K_y = {g <= y} there is a point
x* in K_y with f(x*) * vol(K_y) = v(y): the integration counterpart of
extracting a minimizer in optimization.  This module searches for such
a point: it computes the target mean c = v(y) / vol(K_y) (both through
the same dual pipeline, so their errors correlate), rejection-samples
members of K_y until it holds x- with f(x-) <= c and x+ with
f(x+) >= c, then bisects f along the segment [x-, x+], accepting
midpoints only while they remain in K_y and resampling the pair when
the segment leaves the set (which nonconvex domains can force).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .cubature import (
    ENGINE_MONTE_CARLO,
    QuadratureSpec,
    enclosing_radius,
    monte_carlo_sublevel,
)
from .duality import SublevelProblem, v_dual_homogeneous, v_polynomial
from .errors import ExtractionError, InputError
from .polyalg import MultiPoly
from . import rng

_SAMPLE_BATCH = 4096
_MAX_SAMPLE_BATCHES = 256

# Accept x* when |f(x*) - c| <= tol, with tol = _RTOL * |c|, floored at
# _ULPS ulps of max |f| over the sampled members of K_y (the rounding level
# of f there, below which no point can be told apart), and never looser
# than _RTOL * (1 + |c|).
_RTOL = 1e-9
_ULPS = 4
_MAX_PAIRS = 50  # segment attempts before ExtractionError
_MAX_BISECT = 200  # bisection steps per segment


@dataclass(frozen=True)
class MeanValueResult:
    """A point of K_y whose f-value explains v(y).

    ``residual`` is |f(point) - target_mean| and ``attempts`` counts
    segment-bisection attempts consumed (0 when a raw sample already
    met the residual tolerance).
    """

    point: tuple[float, ...]
    f_at_point: float
    target_mean: float
    residual: float
    attempts: int


def _pipeline_value(problem: SublevelProblem, y, spec, radius):
    """v(y) through the preferred dual pipeline, Monte Carlo as fallback."""
    if problem.g_degree is not None:
        if isinstance(problem.f, MultiPoly):
            value, _ = v_polynomial(problem, y, spec)
            return value
        if problem.f_degree is not None:
            return v_dual_homogeneous(problem, y, spec).v_value
    mc_spec = replace(spec, engine=ENGINE_MONTE_CARLO)
    return monte_carlo_sublevel(problem.f, problem.g, problem.dim, y, radius, mc_spec).value


def mean_value_point(problem: SublevelProblem, y: float, spec: QuadratureSpec) -> MeanValueResult:
    """Locate x* in K_y with f(x*) close to c = v(y) / vol(K_y).

    The output satisfies g(x*) <= y (re-verified) and
    |f(x*) - c| <= max(1e-9 * |c|, 4 ulps of max |f| over the sampled
    members of K_y), and never more than 1e-9 * (1 + |c|), so a small
    target mean is met relatively.  Deterministic for a fixed
    ``spec.seed``.  Raises ExtractionError, carrying the best candidate
    seen, when 50 segment attempts are exhausted; K_y being
    disconnected is the typical cause.
    """
    if not y > 0:
        raise InputError(f"y must be positive, got {y!r}")
    radius = enclosing_radius(problem.g, y, spec)
    v_y = _pipeline_value(problem, y, spec, radius)
    ones = MultiPoly.constant(problem.dim, 1.0)
    volume = _pipeline_value(replace(problem, f=ones, f_degree=0.0), y, spec, radius)
    if not volume > 0:
        raise ExtractionError(f"vol(K_y) estimate {volume} is not positive")
    c = v_y / volume
    f_scale = 0.0

    f_eval = problem.f
    g_eval = problem.g
    dim = problem.dim

    counter = 0
    below: list[np.ndarray] = []
    above: list[np.ndarray] = []
    best_point = None
    best_residual = math.inf
    attempts = 0

    def bisect_segment(a, b):
        nonlocal best_point, best_residual
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (a + b)
            if float(g_eval(mid[np.newaxis, :])[0]) > y:
                return None  # left the set; resample the pair
            f_mid = float(f_eval(mid[np.newaxis, :])[0])
            residual = abs(f_mid - c)
            if residual < best_residual:
                best_point, best_residual = mid.copy(), residual
            if residual <= tol:
                return mid, f_mid, residual
            if f_mid < c:
                a = mid
            else:
                b = mid
        return None

    for _ in range(_MAX_SAMPLE_BATCHES):
        u = rng.uniforms(spec.seed, counter, _SAMPLE_BATCH * dim).reshape(-1, dim)
        counter += _SAMPLE_BATCH * dim
        pts = (2.0 * u - 1.0) * radius
        members = pts[np.asarray(g_eval(pts), dtype=float) <= y]
        if members.size:
            f_vals = np.asarray(f_eval(members), dtype=float)
            f_scale = max(f_scale, float(np.max(np.abs(f_vals))))
            tol = min(
                _RTOL * (1.0 + abs(c)),
                max(_RTOL * abs(c), _ULPS * sys.float_info.epsilon * f_scale),
            )
            hit = np.abs(f_vals - c) <= tol
            if hit.any():
                idx = int(np.argmax(hit))
                f_val = float(f_vals[idx])
                return MeanValueResult(
                    tuple(float(t) for t in members[idx]), f_val, c, abs(f_val - c), attempts
                )
            idx_best = int(np.argmin(np.abs(f_vals - c)))
            if abs(float(f_vals[idx_best]) - c) < best_residual:
                best_point = members[idx_best].copy()
                best_residual = abs(float(f_vals[idx_best]) - c)
            below.extend(members[f_vals <= c])
            above.extend(members[f_vals >= c])
        while below and above:
            if attempts >= _MAX_PAIRS:
                raise ExtractionError(
                    f"no mean-value point within {_MAX_PAIRS} segment attempts "
                    "(is K_y disconnected?)",
                    best=_best_result(best_point, best_residual, c, f_eval, attempts),
                )
            attempts += 1
            found = bisect_segment(below.pop(), above.pop())
            if found is not None:
                mid, f_mid, residual = found
                return MeanValueResult(
                    tuple(float(t) for t in mid), f_mid, c, residual, attempts
                )
    raise ExtractionError(
        "could not assemble straddling sample pairs inside K_y "
        f"after {_MAX_SAMPLE_BATCHES * _SAMPLE_BATCH} draws",
        best=_best_result(best_point, best_residual, c, f_eval, attempts),
    )


def _best_result(best_point, best_residual, c, f_eval, attempts):
    if best_point is None:
        return None
    f_val = float(f_eval(best_point[np.newaxis, :])[0])
    return MeanValueResult(
        tuple(float(t) for t in best_point), f_val, c, best_residual, attempts
    )
