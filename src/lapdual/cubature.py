"""Raw integration engines.

Four engines cover every integral the package evaluates:

- tensor-product Gauss-Legendre over a box [-r, r]^d: ``integrate_box``
  enlarges the box automatically for integrands that decay at infinity
  (the dual of data without homogeneity degrees), and ``box_pass`` runs
  one pass at a given radius (the direct box-indicator estimate in poly
  mode);
- a sphere rule for integrals against exp(-lam * g) with f and g
  positively homogeneous in any dimension, polynomials or opaque
  evaluators whose degrees the caller supplies: homogeneity reduces the
  whole-space integral to one over the unit sphere, so no box is needed;
- a Gaussian-weight engine for integrals against exp(-lam * x'Qx) with Q
  symmetric positive definite: exact moments for a polynomial f, tensor
  Gauss-Hermite after a linear change of variables for an opaque one;
- hit-or-miss Monte Carlo over a sublevel set {g <= y} inside a known
  enclosing box, with a counter-based RNG so results are a pure
  function of (inputs, seed) regardless of how work is partitioned.

Point evaluators passed to the engines must accept an (N, d) array of
row points and return an (N,) array of values, row by row: the engines
call them on blocks of at most 2^14 rows, and no result depends on the
block size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EffortError,
    EvaluationError,
    InputError,
    UnboundedSublevelError,
)
from .polyalg import MultiPoly
from .special import exp_in_range, frexp_exp, log_gamma
from . import rng

# The labels of IntegralEstimate.engine.  QuadratureSpec.engine accepts
# the first three, and no engine reads it.
ENGINE_BOX = "box-gauss-legendre"
ENGINE_GAUSSIAN = "gaussian-quadratic"
ENGINE_MONTE_CARLO = "monte-carlo"
ENGINE_POLAR = "polar"
_ENGINES = (ENGINE_BOX, ENGINE_GAUSSIAN, ENGINE_MONTE_CARLO)

# Hard cap on tensor-grid size; beyond this an engine refuses to run.
MAX_TENSOR_POINTS = 1 << 24

# Fixed chunk sizes: accumulation order never depends on anything else.
_TENSOR_CHUNK = 1 << 18
_MC_CHUNK = 1 << 19

# Rows an engine builds and evaluates at a time.  It changes no bit of any
# sum (see ``_chunks``); it bounds a pass's working memory to one block
# plus one chunk buffer, whatever the pass's size.
_BLOCK = 1 << 14

# Most nodes per axis in a box pass: an 8192-node rule takes about 0.5 s
# to build, and in d = 1 nothing else bounds the enlargement.
_MAX_BOX_NODES = 8192

# Largest pass of the polar engine (2^21 nodes at d = 2, 1024 per angle at
# d = 3, 32 at d = 5).  A divergent sphere integrand (g vanishing on a ray
# between the nodes) is refused in about 2 s at d = 2, 1 s at d = 3.
_MAX_SPHERE_POINTS = 1 << 21

# Largest Gauss-Hermite rule numpy builds: past it the ratio of central to
# tail weights leaves the double range and every weight comes back 0 or NaN.
MAX_HERMITE_NODES = 370

_MAX_GAUSSIAN_MOMENTS = 40_000  # per polynomial f, summed over its terms: about 1 s at d = 8-10

_SEED_SPHERE = 0x5F3759DF  # fixed internal stream for sphere sampling
_SPHERE_SAMPLES = 8192  # random directions sampled by sphere_minimum
_ENCLOSING_MARGIN = 1.1  # the sphere minimum is sampled, so its radius bound is widened


def _positive_real(value, name: str, other: str = "") -> float:
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value <= sys.float_info.max):
        raise InputError(f"{name} must be a finite positive number{other}, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution, box, sample and seed parameters of the engines.

    Callers choose an engine by calling it, so no engine reads
    ``engine``: the field stays, checked against the engine names, only
    because the benchmark still passes it.  ``box_radius`` is either
    "auto" or a finite positive half-width, read only by ``enclosing_radius``:
    the direct estimates' box around {g <= y} when g is not homogeneous.
    Every setting is checked here: an integer one is a plain int and a
    real one a finite float, and none is a bool.
    """

    engine: str = ENGINE_BOX
    nodes_per_axis: int = 64
    box_radius: float | str = "auto"
    sample_count: int = 1_000_000
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.engine not in _ENGINES:
            raise InputError(f"unknown engine {self.engine!r}; expected one of {_ENGINES}")
        if type(self.nodes_per_axis) is not int or self.nodes_per_axis < 1:
            raise InputError(f"nodes_per_axis must be a positive integer, got {self.nodes_per_axis!r}")
        if type(self.sample_count) is not int or self.sample_count < 1:
            raise InputError(f"sample_count must be a positive integer, got {self.sample_count!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "rel_tol", _positive_real(self.rel_tol, "rel_tol"))
        if self.box_radius != "auto":
            object.__setattr__(self, "box_radius", _positive_real(self.box_radius, "box_radius", ' or "auto"'))


@dataclass(frozen=True)
class IntegralEstimate:
    """A single integral value plus provenance.

    ``std_error`` is present exactly when the engine is Monte Carlo;
    deterministic engines report None.  ``effort`` counts integrand
    evaluations, or Gaussian moments formed for a polynomial f.  ``magnitude``
    is the sum of w * |integrand| over the final pass of the box, polar or
    Gaussian-weight engine (the latter two scaled like the value; moments on
    |Sigma| for a polynomial f), their error estimates' scale; Monte Carlo None.

    ``error_estimate`` is the engine's own bound on the error of
    ``value``, required and refused unless a nonnegative number:
    rel_tol * max(|value|, magnitude) for the box and polar engines and
    for Gauss-Hermite on an opaque f, a rounding bound for the exact
    Gaussian moments of a polynomial f, and the standard error for
    Monte Carlo.  Unless no evaluation formed the value (``effort`` 0,
    an exact zero), it is floored at ``math.ulp(value)``: a computed
    value is no closer to the integral than its own rounding, and a
    relative bound on a subnormal value underflows to 0.
    """

    value: float
    std_error: float | None
    engine: str
    effort: int
    box_radius_used: float | None
    magnitude: float | None
    error_estimate: float

    def __post_init__(self):
        if (self.std_error is not None) != (self.engine == ENGINE_MONTE_CARLO):
            raise InputError("std_error is present if and only if the engine is monte-carlo")
        if self.std_error is not None and self.std_error < 0:
            raise InputError("std_error must be nonnegative")
        if self.error_estimate is None or not self.error_estimate >= 0:
            raise InputError(f"error_estimate must be a nonnegative number, got {self.error_estimate!r}")
        if self.effort:
            object.__setattr__(self, "error_estimate", max(self.error_estimate, math.ulp(self.value)))


def _legendre_step(n: int, t: np.ndarray):
    """P_n(t) by the three-term recurrence, and P_n'(t), elementwise."""
    p_prev, p = np.ones_like(t), t
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
    return p, n * (t * p - p_prev) / (t * t - 1.0)


@lru_cache(maxsize=None)
def _legendre_rule(n: int):
    # Asymptotic guesses for the nonnegative roots, then Newton on P_n for all
    # of them at once, each until its own step is negligible: elementwise, the
    # same operations in the same order as iterating one root at a time.
    m = (n + 1) // 2
    t = np.array([math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, m + 1)])
    active = np.arange(m)
    for _ in range(100):
        p, dp = _legendre_step(n, t[active])
        dt = -p / dp
        t[active] += dt
        active = active[np.abs(dt) > 1e-15 * np.maximum(1.0, np.abs(t[active]))]
        if active.size == 0:
            break
    _, dp = _legendre_step(n, t)
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    nodes = np.concatenate((-t, t[:n // 2][::-1]))
    weights = np.concatenate((w, w[:n // 2][::-1]))
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n - 1; weights are positive and
    sum to 2.  Nodes are ascending and exactly symmetric about 0.

    Parameters
    ----------
    n : int
        Number of quadrature points, n >= 1.

    Returns
    -------
    nodes, weights : ndarray
        Read-only arrays of length n.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"rule size must be a positive integer, got {n!r}")
    return _legendre_rule(n)


@lru_cache(maxsize=None)
def _hermite_rule(n: int):
    # numpy refines the eigenvalue nodes by a Newton step and takes weights
    # from the recurrence rather than from eigenvectors, so small tail
    # weights keep their relative accuracy; the rule is exactly symmetric.
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight exp(-x^2) on the real line.

    Exact for polynomials of degree <= 2n - 1 against that weight, for
    1 <= n <= MAX_HERMITE_NODES.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"rule size must be a positive integer, got {n!r}")
    if n > MAX_HERMITE_NODES:
        raise InputError(
            f"Gauss-Hermite rules have at most {MAX_HERMITE_NODES} nodes in double precision, "
            f"got {n}"
        )
    return _hermite_rule(n)


def _tensor_block(axes, lo, hi):
    """Points, shape (hi - lo, d), and tensor weights of the grid points
    with flat C-order indices lo .. hi - 1 (last axis fastest).

    Each weight is the product ((w_(d-1) * w_(d-2)) * ...) * w_0, formed
    in that order.  The rows of axis 0 that the range touches are built
    by broadcasting axis 0 over the grid of the other axes, then the
    range is sliced out.  A range that crosses rows longer than a block
    is split at the row boundary, so a range of at most one block is
    built from fewer than three blocks of points.
    """
    nodes, weights = axes[0]
    if len(axes) == 1:
        return nodes[lo:hi, np.newaxis].copy(), weights[lo:hi].copy()
    inner = math.prod(n.size for n, _ in axes[1:])
    r0, r1 = lo // inner, -(-hi // inner)
    if r1 - r0 == 1:
        start = 0
        sub_pts, sub_w = _tensor_block(axes[1:], lo - r0 * inner, hi - r0 * inner)
    elif inner > _BLOCK:
        split = (r0 + 1) * inner
        head, tail = _tensor_block(axes, lo, split), _tensor_block(axes, split, hi)
        return np.concatenate((head[0], tail[0])), np.concatenate((head[1], tail[1]))
    else:
        start = lo - r0 * inner
        sub_pts, sub_w = _tensor_block(axes[1:], 0, inner)
    pts = np.empty((r1 - r0, sub_w.size, len(axes)))
    pts[:, :, 0] = nodes[r0:r1, np.newaxis]
    for j in range(1, len(axes)):  # column by column: numpy's 3-D broadcast copy is slow
        pts[:, :, j] = sub_pts[:, j - 1]
    w = np.multiply.outer(weights[r0:r1], sub_w)
    return pts.reshape(-1, len(axes))[start:start + hi - lo], w.reshape(-1)[start:start + hi - lo]


def _weighted(vals, w, out):
    """w * vals formed in ``out``; InputError when vals is not shaped like
    w, EvaluationError when a value is not finite."""
    if vals.shape != w.shape:
        raise InputError(
            f"integrand returned shape {vals.shape}, expected {w.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned a non-finite value at a quadrature node")
    np.multiply(w, vals, out=out)


def _chunks(total, chunk, fill):
    """The values that ``fill`` forms over rows 0 .. total - 1, one chunk
    at a time: the one block loop of every engine.

    ``fill(a, b, out)`` forms the values of rows a .. b - 1, at most
    _BLOCK of them, in ``out``.  The rows are cut into consecutive chunks
    of ``chunk``, and the blocks of a chunk fill one buffer of
    min(chunk, total) values, reused by every chunk: each value yielded is
    that chunk's values, which the caller may overwrite.  So what a caller
    sums per chunk depends on the chunk and never on the block size.
    """
    buf = np.empty(min(chunk, total))
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        out = buf[:hi - lo]
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            fill(a, b, out[a - lo:b - lo])
        yield out


def _chunk_sums(total, chunk, fill):
    """Sums over rows 0 .. total - 1 of the values that ``fill`` forms
    (see ``_chunks``) and of their absolute values: each chunk's two
    partial sums are numpy sums of its values, taken absolute in place
    between them, and the partials are added with ``math.fsum``.  A chunk
    sum past the double range is inf, for the callers to refuse; partials
    that ``math.fsum`` cannot add (an overflow, inf - inf) EvaluationError."""
    partials, magnitudes = [], []
    for out in _chunks(total, chunk, fill):
        with np.errstate(over="ignore"):
            partials.append(float(np.sum(out)))
            magnitudes.append(float(np.sum(np.abs(out, out=out))))
    try:
        return math.fsum(partials), math.fsum(magnitudes)
    except (OverflowError, ValueError):
        raise EvaluationError("a rule's sum over its nodes is past the double range") from None


def _tensor_apply(phi, axes):
    """Sums of w_tensor * phi and of |w_tensor * phi| over the tensor grid
    of the per-axis rules ``axes`` (one (nodes, weights) pair per axis),
    plus the number of points.  Each engine sizes its grids under its cap
    before building them, so none here exceeds MAX_TENSOR_POINTS.

    The order is a contract, so every engine's value is a pure function
    of its rules: the points run in C order (last axis fastest) and are
    cut into consecutive chunks of _TENSOR_CHUNK points; each chunk's two
    partial sums are numpy sums of the chunk's products w * phi, with w
    formed as in ``_tensor_block``; and the partials are added with
    ``math.fsum``.  phi sees one block of at most _BLOCK points at a time,
    built on its own, so it must be row-wise: its value at a point may
    not depend on the other points of the block.  The block size changes
    no bit (see ``_chunks``).
    """
    total_points = math.prod(nodes.size for nodes, _ in axes)

    def fill(a, b, out):
        pts, w = _tensor_block(axes, a, b)
        _weighted(np.asarray(phi(pts), dtype=float), w, out)

    return (*_chunk_sums(total_points, _TENSOR_CHUNK, fill), total_points)


def _doubling(run, n, points, cap, rel_tol, what, hint, prev=None):
    """Runs ``run(m)`` -> (value, magnitude, evaluations) at m = n, 2n, 4n,
    ... while ``points(m) <= cap``, until two successive values agree:
    |cur - prev| <= rel_tol * max(|cur|, magnitude), magnitude being the
    later pass's sum of w * |integrand|, so that a cancelling integral
    converges too.  ``prev`` seeds the comparison; a schedule that cannot
    yield two values runs no pass.  Returns (value, magnitude,
    evaluations, m) of the agreeing pass, the evaluations summed over all
    passes; else EffortError naming ``what``, plus ``hint`` when passes
    ran and disagreed.  A pass whose value or magnitude is past the double
    range raises EvaluationError, since no later pass can agree with it.
    """
    sizes = []
    while points(n << len(sizes)) <= cap:
        sizes.append(n << len(sizes))
    if len(sizes) + (prev is not None) < 2:
        raise EffortError(
            f"{what}: only {len(sizes)} passes fit under the cap of {cap} points, "
            "too few for two to agree; none run"
        )
    effort = 0
    for m in sizes:
        cur, magnitude, used = run(m)
        if not (math.isfinite(cur) and math.isfinite(magnitude)):
            raise EvaluationError(f"{what}: the sum of its {m}-node pass is past the double range")
        effort += used
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), magnitude, 1e-300):
            return cur, magnitude, effort, m
        prev = cur
    raise EffortError(
        f"{what} ({hint}): no two of the {len(sizes)} passes that fit under the cap of "
        f"{cap} points agreed to rel_tol={rel_tol} ({effort} evaluations, last estimate {prev})"
    )


def _two_pass_start(n, fits):
    """n halved until the passes at n and 2n both fit (``fits(2n)``), or 1."""
    while n > 1 and not fits(2 * n):
        n //= 2
    return n


def max_box_nodes(dim: int) -> int:
    """The most nodes per axis of a box pass in ``dim`` dimensions."""
    n = min(_MAX_BOX_NODES, round(MAX_TENSOR_POINTS ** (1.0 / dim)))
    while n**dim > MAX_TENSOR_POINTS:
        n -= 1
    return n


class SplitIntegrand(NamedTuple):
    """An integrand phi(x) = combine(*parts(x)) whose ``parts`` are the
    values a memo may keep, such as f(x) and g(x) under f * exp(-lam * g)."""

    parts: Callable[[np.ndarray], tuple]
    combine: Callable[..., np.ndarray]

    def __call__(self, pts):
        return self.combine(*self.parts(pts))


def box_pass(phi, dim: int, radius: float, nodes_per_axis: int, *, memo: dict | None = None):
    """One tensor Gauss-Legendre pass over [-radius, radius]^dim.

    Returns ``_tensor_apply``'s (sum of w * phi, sum of w * |phi|,
    points); one pass tests nothing, so it carries no error estimate.
    More than ``max_box_nodes(dim)`` nodes per axis raise EffortError
    before any rule is built.

    With a ``memo`` (see ``integrate_box``), phi is a SplitIntegrand and a
    grid of at most one chunk keeps each block's tensor weights and
    phi.parts under ("box", radius, nodes_per_axis); a later pass over
    that grid only combines them, block by block in ``_tensor_apply``'s
    loop and with its checks, so its sums are the same bits.  A larger
    pass empties the memo first, so what it kept never adds to the memory
    that pass's blocks take.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    if not radius > 0:
        raise InputError(f"radius must be positive, got {radius!r}")
    if nodes_per_axis > max_box_nodes(dim):
        raise EffortError(f"a box pass in {dim} dimensions takes at most "
                          f"{max_box_nodes(dim)} nodes per axis, got {nodes_per_axis}")
    base_nodes, base_weights = gauss_legendre_rule(nodes_per_axis)
    axes = [(radius * base_nodes, radius * base_weights)] * dim
    points = nodes_per_axis**dim
    if memo is None or points > _TENSOR_CHUNK:
        if memo:
            memo.clear()
        return _tensor_apply(phi, axes)
    key = ("box", radius, nodes_per_axis)
    kept = memo.get(key)  # one read, so that another thread's clear() cannot intervene
    if kept is None:
        blocks = (_tensor_block(axes, a, min(a + _BLOCK, points)) for a in range(0, points, _BLOCK))
        kept = memo[key] = [(w, phi.parts(pts)) for pts, w in blocks]

    def fill(a, b, out):
        w, parts = kept[a // _BLOCK]
        _weighted(np.asarray(phi.combine(*parts), dtype=float), w, out)

    return (*_chunk_sums(points, _TENSOR_CHUNK, fill), points)


def integrate_box(
    phi: Callable[[np.ndarray], np.ndarray],
    dim: int,
    spec: QuadratureSpec,
    *,
    initial_radius: float | None = None,
    memo: dict | None = None,
) -> IntegralEstimate:
    """Tensor Gauss-Legendre estimate of the integral of phi over R^dim,
    truncated to a box [-r, r]^dim that it chooses and verifies itself.

    The radius starts at ``initial_radius`` (default 1.0);
    ``spec.box_radius`` is not used (``box_pass`` runs one pass at a
    given radius).  Nodes per axis first double at the fixed initial
    radius until the rule itself is converged to
    ``spec.rel_tol`` (``nodes_per_axis`` is the starting resolution);
    the radius then doubles, with node density held constant, until two
    successive estimates differ by at most ``spec.rel_tol`` times the
    later pass's magnitude (its sum of w * |phi|, so that an integral
    that vanishes by cancellation converges too), so the enlargement
    comparison measures tail truncation rather than resolution loss.
    The radius that satisfied the test is reported in
    ``box_radius_used``.  Both loops double until the next pass would
    exceed the cap: MAX_TENSOR_POINTS points, and at most _MAX_BOX_NODES
    (8192) nodes per axis.  Refinement runs only resolutions whose first
    enlargement fits under the cap too; EffortError comes before any
    evaluation when fewer than two remain.

    Parameters
    ----------
    phi : callable
        Vectorized integrand, (N, dim) -> (N,), defined on all of R^dim.
    dim : int
        Ambient dimension.
    spec : QuadratureSpec
        ``nodes_per_axis`` and ``rel_tol`` are read.
    initial_radius : float, optional
        Starting half-width for the automatic enlargement loop.
    memo : dict, optional
        Kept by the caller across calls whose phi are SplitIntegrands with
        the same ``parts``, as a SublevelProblem keeps one for the duals
        of every lam.  Each pass over a grid of at most
        _TENSOR_CHUNK (2^18) points stores its tensor weights and
        phi.parts there, block by block, and a later pass over the same
        grid reuses them; a larger pass empties the memo and runs as
        without one.  The result is the same bits as without a memo,
        ``effort`` included.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    radius = float(initial_radius) if initial_radius is not None else 1.0
    if not radius > 0:
        raise InputError(f"initial_radius must be positive, got {initial_radius!r}")
    cap = min(MAX_TENSOR_POINTS, _MAX_BOX_NODES**dim)
    # A resolution whose first enlargement, at twice the nodes, exceeds the
    # cap could never be confirmed, so it is not run.
    value, _, effort, n = _doubling(
        partial(box_pass, phi, dim, radius, memo=memo), spec.nodes_per_axis,
        lambda m: (2 * m) ** dim, cap, spec.rel_tol,
        f"the box rule at radius {radius}", "the integrand may be too rough",
    )
    # Enlargement holds the node density: twice the radius, twice the nodes.
    value, magnitude, used, m = _doubling(
        lambda m: box_pass(phi, dim, radius * (m // n), m, memo=memo), 2 * n,
        lambda m: m**dim, cap, spec.rel_tol,
        f"box enlargement from radius {radius}", "the integral may diverge", value,
    )
    radius *= m // n
    return IntegralEstimate(
        value, None, ENGINE_BOX, effort + used, radius, magnitude,
        spec.rel_tol * max(abs(value), magnitude),
    )


@lru_cache(maxsize=None)
def _polar_angle_rule(n: int, m: int):
    """n-point rule in t = cos(theta) with the weight (1 - t^2)^(m/2) folded in:
    Gauss-Legendre for even m, Gauss-Chebyshev of the second kind for odd m."""
    if m % 2 == 0:
        t, w = gauss_legendre_rule(n)
    else:
        theta = math.pi * np.arange(1, n + 1) / (n + 1)
        t, w = np.cos(theta), math.pi / (n + 1) * np.sin(theta) ** 2
    rule = t, w * (1.0 - t * t) ** (m // 2)
    for a in rule:
        a.setflags(write=False)
    return rule


def _sphere_sum(h, dim: int, n: int):
    """_tensor_apply of h over the product rule (Stroud 1971) on the unit
    sphere S^(dim-1), dim >= 2: a ``_polar_angle_rule`` with n nodes per
    polar angle, then the azimuth trapezoid, with 2n nodes when dim >= 3."""
    m = n if dim == 2 else 2 * n
    azimuth = (2.0 * math.pi * np.arange(m) / m, np.full(m, 2.0 * math.pi / m))

    def on_sphere(params):
        # From the circle up: S^(i-1) sits in S^i at height x_(i+1) = t,
        # scaled by sqrt(1 - t^2), with t from the rule of weight exponent i - 2.
        pts = np.empty((params.shape[0], dim))
        pts[:, 0], pts[:, 1] = np.cos(params[:, -1]), np.sin(params[:, -1])
        for i in range(2, dim):
            t = params[:, dim - 1 - i]
            pts[:, :i] *= np.sqrt(1.0 - t * t)[:, np.newaxis]
            pts[:, i] = t
        return h(pts)

    polar = [_polar_angle_rule(n, dim - 3 - j) for j in range(dim - 2)]
    return _tensor_apply(on_sphere, polar + [azimuth])


def _times_exp(s: float, log_scale: float) -> float:
    """s * exp(log_scale) in log space; EvaluationError beyond the double range."""
    if s == 0.0:
        return 0.0
    return math.copysign(exp_in_range(log_scale + math.log(abs(s)), "the polar integral"), s)


def polar_estimate(sums, p: float, d_g: float, lam: float, spec: QuadratureSpec) -> IntegralEstimate:
    """The polar engine's estimate from ``_sphere_integral``'s sums (value,
    magnitude, evaluations): both times Gamma(p) / (d_g lam^p), in log space."""
    value, magnitude, effort = sums
    log_scale = log_gamma(p) - math.log(d_g) - p * math.log(lam)
    value, magnitude = _times_exp(value, log_scale), _times_exp(magnitude, log_scale)
    return IntegralEstimate(
        value, None, ENGINE_POLAR, effort, None, magnitude,
        spec.rel_tol * max(abs(value), magnitude),
    )


def _sphere_integral(f, g, dim: int, p: float, spec: QuadratureSpec):
    """The polar engine's lam-free sums (value, magnitude, evaluations) of
    f * g^(-p) over the unit sphere S^(dim-1); f and g are evaluators.

    For f positively homogeneous of degree k and g of degree d_g, positive
    on the sphere, p = (dim + k) / d_g and ``polar_estimate`` scales the sums:
        integral f exp(-lam g) dx = Gamma(p) / (d_g lam^p) * integral f g^(-p) dsigma.
    The degrees are the caller's facts (``SublevelProblem`` checks them).
    dim 1 is the exact two-point sum over {+1, -1}; otherwise ``_sphere_sum``'s
    product rule (n^(dim-2) * 2n points; n for dim 2), n starting at
    ``spec.nodes_per_axis``, halved until twice that fits too, and doubling
    until two passes differ by at most ``spec.rel_tol`` times the later pass's
    magnitude, max(|value|, sum of w * |f g^(-p)|), as in ``integrate_box``.
    UnboundedSublevelError when g is not positive at a node (g vanishes on a
    ray, so its sublevel sets are unbounded), EvaluationError on a non-finite
    value, EffortError when no two passes agree before the next would exceed
    2^21 points, and before any pass when fewer than two fit even from 1 node
    (dim >= 22).  dim 4 from 32 or fewer nodes reaches rel_tol 1e-9, dim 5
    1e-4 but not 1e-9.
    """

    def h(pts):
        g_vals = np.asarray(g(pts), dtype=float)
        if np.any(g_vals <= 0.0):
            raise UnboundedSublevelError(
                "g is not positive on the unit sphere (it vanishes on a ray); "
                "its sublevel sets are unbounded"
            )
        with np.errstate(over="ignore"):
            return np.asarray(f(pts), dtype=float) * g_vals ** -p

    if dim == 1:
        # S^0 = {+1, -1} under counting measure: the two-point sum is exact.
        return _tensor_apply(h, [(np.array([1.0, -1.0]), np.ones(2))])
    # The axes are where a degenerate g such as x1^2 most often vanishes,
    # and the grids hit few of them: d = 2 has +e1 at angle 0, but the
    # polar rules skip the poles and cos(pi/2) != 0 in floating point.
    h(np.vstack((np.eye(dim), -np.eye(dim))))
    size = (lambda n: n) if dim == 2 else (lambda n: 2 * n ** (dim - 1))
    n = _two_pass_start(spec.nodes_per_axis, lambda m: size(m) <= _MAX_SPHERE_POINTS)
    return _doubling(
        partial(_sphere_sum, h, dim), n, size, _MAX_SPHERE_POINTS, spec.rel_tol,
        "the sphere rule", "g may vanish or nearly vanish on a ray, or the rule may need "
        "more nodes than the cap allows",
    )[:3]


def _moment_count(exps, cap):
    """Moments ``_gaussian_moments`` forms for E[x^exps], E[1] included, counted
    until past ``cap``: each gamma <= exps whose first nonzero index i has R <= L,
    R + L even, R (L) the degree removed after (up to) i; ``poly`` counts each R."""
    total, poly = 1, np.ones(1)
    for i in range(len(exps) - 1, -1, -1):
        total += sum(int(poly[r % 2:r + 1:2].sum()) for r in range(sum(exps[:i]), sum(exps[:i + 1])))
        if total > cap:
            return total
        poly = np.convolve(poly, np.ones(exps[i] + 1))
    return total


def _gaussian_moments(exponents, sigma):
    """{a: (E[x^a], the same on |sigma|, s)}, both times 2^-s, x ~ N(0, sigma), for ``exponents``
    of even degree and the moments they need: Isserlis' E[x_i x^b] = sum_j sigma_ij b_j
    E[x^(b - e_j)], i the first nonzero index of a, formed one degree at a time, each
    degree sharing the s that puts its largest twin in [1/2, 1), so none underflows."""
    steps, stack = {}, list(exponents)
    while stack:
        a = stack.pop()
        if a not in steps:
            i = next((j for j, e in enumerate(a) if e), 0)
            b = a[:i] + (a[i] - 1,) + a[i + 1:]
            steps[a] = kids = tuple((i, j, e, b[:j] + (e - 1,) + b[j + 1:]) for j, e in enumerate(b) if e > 0)
            stack.extend(c for *_, c in kids)
    rows, abs_rows = sigma.tolist(), np.abs(sigma).tolist()
    moments, shift = {}, 0
    for _, level in groupby(sorted(steps, key=sum), key=sum):  # kids are one degree down
        level = {a: (
            sum(rows[i][j] * e * moments[c][0] for i, j, e, c in steps[a]),
            sum(abs_rows[i][j] * e * moments[c][1] for i, j, e, c in steps[a]),
        ) if any(a) else (1.0, 1.0) for a in level}
        top = math.frexp(max(m for _, m in level.values()))[1]
        shift += top
        moments.update((a, (math.ldexp(v, -top), math.ldexp(m, -top), shift)) for a, (v, m) in level.items())
    return moments


def integrate_gaussian_quadratic(
    f: Callable[[np.ndarray], np.ndarray],
    Q: np.ndarray,
    lam: float,
    spec: QuadratureSpec,
) -> IntegralEstimate:
    """Integral of f(x) * exp(-lam * x'Qx) over R^d for symmetric PD Q.

    It is pi^(d/2) / (lam^(d/2) sqrt(det Q)) * E[f(x)], x ~ N(0, (2 lam Q)^(-1)).
    A MultiPoly f is exact: Isserlis' moments, InputError (its dim is not Q's) or
    EffortError (its terms' closures, each counted in full, sum past
    _MAX_GAUSSIAN_MOMENTS) before any is formed; its error estimate is a rounding
    bound.  An opaque f takes tensor Gauss-Hermite in u = sqrt(lam) S x, Q = S'S, with
    nodes per axis doubling until two passes agree as in ``_sphere_integral``: they start
    at min(``nodes_per_axis``, MAX_HERMITE_NODES), halved until twice that fits too, and
    none exceeds MAX_HERMITE_NODES or MAX_TENSOR_POINTS points; its error estimate is
    ``spec.rel_tol`` * max(|value|, magnitude).  A v below the double range is 0.0;
    one past it raises EvaluationError.

    Parameters
    ----------
    f : callable
        Vectorized integrand, (N, d) -> (N,).
    Q : ndarray
        Symmetric positive-definite d x d matrix.
    lam : float
        Positive weight scale.
    spec : QuadratureSpec
        ``nodes_per_axis`` and ``rel_tol`` are read, for an opaque f only.
    """
    if not 0 < lam < math.inf:
        raise InputError(f"lam must be finite and positive, got {lam!r}")
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise InputError(f"Q must be a square matrix, got shape {Q.shape}")
    if not np.allclose(Q, Q.T, rtol=1e-12, atol=1e-12):
        raise InputError("Q must be symmetric")
    dim = Q.shape[0]
    try:
        chol_lower = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise InputError("Q must be positive definite (Cholesky factorization failed)")
    # x = M u with M = S^{-1} / sqrt(lam), S = chol_lower'.
    transform = np.linalg.inv(chol_lower.T) / math.sqrt(lam)
    log_scale = dim / 2.0 * math.log(math.pi / lam) - float(np.sum(np.log(np.diag(chol_lower))))

    if isinstance(f, MultiPoly):
        if f.dim != dim:
            raise InputError(f"f has dim {f.dim}, Q has dim {dim}")
        # Odd moments of a centred Gaussian vanish, so only even terms count.
        even = [(a, c) for a, c in f.terms if sum(a) % 2 == 0]
        if sum(_moment_count(a, _MAX_GAUSSIAN_MOMENTS) for a, _ in even) > _MAX_GAUSSIAN_MOMENTS:
            raise EffortError(f"f's terms need over {_MAX_GAUSSIAN_MOMENTS} Gaussian moments "
                              "counted term by term, none formed")
        moments = _gaussian_moments([a for a, _ in even], transform @ transform.T / 2.0)
        # moments are (E, |sigma| twin, s) times 2^-s, and |E| <= twin
        parts = [(c * moments[a][0], abs(c) * moments[a][1], moments[a][2]) for a, c in even]
        # Exact, so only rounding is left: about dim + 3 roundings (Sigma, the
        # recursion's sums) per unit of deg f + dim, times the condition number
        # of Q's correlation matrix D^(-1/2) Q D^(-1/2), D = diag(Q), lost by the
        # Cholesky factor and det Q.  max(|v|, magnitude) keeps a cancelling f honest.
        diag = np.sqrt(np.diag(Q))
        kappa = float(np.linalg.cond(Q / np.outer(diag, diag)))
        rel_error = (f.degree + dim) * (dim + 3) * kappa * sys.float_info.epsilon
        effort = len(moments)
    else:
        def hermite_pass(n):
            return _tensor_apply(
                lambda u_pts: np.asarray(f(u_pts @ transform.T), dtype=float),
                [gauss_hermite_rule(n)] * dim,
            )

        cap = min(MAX_TENSOR_POINTS, MAX_HERMITE_NODES**dim)
        n = _two_pass_start(min(spec.nodes_per_axis, MAX_HERMITE_NODES), lambda m: m**dim <= cap)
        raw, raw_magnitude, effort, _ = _doubling(
            hermite_pass, n, lambda m: m**dim, cap, spec.rel_tol,
            "the Gauss-Hermite rule", "f may be too rough for a polynomial rule",
        )
        # The Hermite weights already carry pi^(d/2).
        parts, rel_error = [(raw, raw_magnitude, 0)], spec.rel_tol
        log_scale -= dim / 2.0 * math.log(math.pi)
    scale, power = frexp_exp(log_scale)
    try:
        value = scale * math.fsum(math.ldexp(v, s + power) for v, _, s in parts)
        magnitude = scale * math.fsum(math.ldexp(m, s + power) for _, m, s in parts)
    except OverflowError:
        raise EvaluationError("the Gaussian-weight integral overflows double precision") from None
    error = max(abs(value), magnitude) * rel_error
    return IntegralEstimate(value, None, ENGINE_GAUSSIAN, effort, None, magnitude, error)


def sublevel_integrand(f, g, y: float):
    """The point evaluator of f * 1{g <= y}, for the direct estimates.

    f runs only on the points where g <= y, and not at all when there
    are none.  A point with g == y counts half: the symmetric box rule
    puts whole rows of nodes on a flat boundary, such as the simplex's
    at d = 2, and counted in full they bias the estimate by O(1/n).
    The engines call it on one block of rows at a time.
    """

    def integrand(pts):
        g_vals = np.asarray(g(pts), dtype=float)
        inside = g_vals <= y
        vals = np.zeros(pts.shape[0])
        if inside.any():
            vals[inside] = f(np.compress(inside, pts, axis=0))
        vals[g_vals == y] *= 0.5
        return vals

    return integrand


def monte_carlo_sublevel(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    dim: int,
    y: float,
    enclosing_radius: float,
    spec: QuadratureSpec,
) -> IntegralEstimate:
    """Hit-or-miss estimate of the integral of f over {x : g(x) <= y}.

    Draws ``spec.sample_count`` i.i.d. uniform points in the box
    [-R, R]^dim (the caller asserts the sublevel set lies inside) and
    averages ``sublevel_integrand``, scaled by the box volume.  The
    reported std_error is the sample standard deviation of the summand
    scaled by (2R)^dim / sqrt(N).

    Coordinate j of sample i uses RNG counter i * dim + j, so each block
    of _BLOCK samples draws only its own counters, and the
    (value, std_error) pair depends only on the inputs and the seed.  The
    summands of each chunk of _MC_CHUNK samples gather in one buffer,
    summed by numpy, then scaled by 2^-e, with 2^e just above the chunk's
    largest |summand|, summed again, centred in place on the chunk's mean
    (that mean corrected by the mean of the deviations), squared and
    summed; the chunks' sums are added by ``math.fsum``, so the block size
    changes no bit, and the working memory is one block plus that buffer.
    The chunks' means and centred sums of squares are merged by the
    pairwise update of Chan, Golub and LeVeque, in the largest chunk's
    scale, so std_error reads the spread of summands whose squares are
    past the double range or below it, and equal summands give exactly 0;
    in the normal range the scale changes no bit.  When a chunk's sum or
    their total overflows, the chunks' scaled sums are added in that
    scale instead, so the mean, no larger than a summand, is returned.  A
    std_error past the double range is EvaluationError.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    radius = float(enclosing_radius)
    if not radius > 0:
        raise InputError(f"enclosing_radius must be positive, got {enclosing_radius!r}")
    y = float(y)
    if y < 0:
        raise InputError(f"y must be nonnegative, got {y!r}")

    try:
        box_volume = (2.0 * radius) ** dim
    except OverflowError:
        raise EvaluationError(
            f"the box volume (2 * {radius})^{dim} overflows double precision") from None
    n_samples = spec.sample_count
    integrand = sublevel_integrand(f, g, y)

    def fill(a, b, out):
        u = rng.uniforms(spec.seed, a * dim, (b - a) * dim).reshape(b - a, dim)
        summand = integrand((2.0 * u - 1.0) * radius)
        if not np.all(np.isfinite(summand)):
            raise EvaluationError("integrand returned a non-finite value at a sample point")
        out[:] = summand

    partials, scaled = [], []
    for out in _chunks(n_samples, _MC_CHUNK, fill):
        with np.errstate(over="ignore", invalid="ignore"):
            partials.append(float(np.sum(out)))
        # Summed and centred again in the scale 2^-power of the chunk's largest
        # |summand|, where no sum overflows and no square overflows or underflows to 0.
        power = math.frexp(max(float(out.max()), -float(out.min())))[1]
        np.ldexp(out, -power, out=out)
        total = float(np.sum(out))
        # Squares about the chunk's mean, that mean corrected by the mean of
        # the deviations from it, so that equal summands leave exactly 0.
        rough = total / out.size
        out -= rough
        shift = float(np.sum(out)) / out.size
        out -= shift
        scaled.append((total, out.size, rough + shift, float(np.sum(np.square(out, out=out))), power))
    # The largest scale of a chunk with a nonzero summand (so a nonzero mean
    # or spread): a power of two, so in the normal range every rounding is as unscaled.
    scale = max((power for _, _, m, s, power in scaled if m or s), default=0)
    try:
        mean = math.fsum(partials) / n_samples
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        mean = math.inf
    if not math.isfinite(mean):  # a sum overflowed: the chunks are added again in the scale 2^-scale
        mean = math.ldexp(math.fsum(math.ldexp(t, e - scale) for t, _, _, _, e in scaled) / n_samples, scale)
    value = box_volume * mean
    # The chunks' means and centred sums of squares merged in the scale
    # 2^-scale by the pairwise update of Chan, Golub and LeVeque.
    count, centre, squares = 0, 0.0, 0.0
    for _, size, chunk_mean, chunk_squares, power in scaled:
        chunk_mean = math.ldexp(chunk_mean, power - scale)
        chunk_squares = math.ldexp(chunk_squares, 2 * (power - scale))
        delta = chunk_mean - centre
        merged = count + size
        centre += delta * (size / merged)
        squares += chunk_squares + delta * delta * (count * size / merged)
        count = merged
    variance = squares / (n_samples - 1) if n_samples > 1 else 0.0
    try:
        std_error = math.ldexp(box_volume * math.sqrt(variance / n_samples), scale)
    except OverflowError:
        raise EvaluationError("the Monte Carlo std_error is past the double range") from None
    return IntegralEstimate(
        value, std_error, ENGINE_MONTE_CARLO, n_samples, radius, None, std_error
    )


@lru_cache(maxsize=None)
def _sphere_directions(dim: int) -> np.ndarray:
    """The unit directions ``sphere_minimum`` samples in R^dim, read-only:
    the axes, the corners for dim <= 12, and _SPHERE_SAMPLES normalized
    normal draws from a fixed stream when dim > 1."""
    directions = [np.eye(dim), -np.eye(dim)]
    if dim <= 12:
        corners = np.array(
            [[(1.0 if (i >> j) & 1 else -1.0) for j in range(dim)] for i in range(2**dim)]
        )
        directions.append(corners / math.sqrt(dim))
    if dim > 1:
        draws = rng.standard_normals(_SEED_SPHERE, 0, _SPHERE_SAMPLES * dim).reshape(-1, dim)
        norms = np.linalg.norm(draws, axis=1)
        keep = norms > 1e-9
        directions.append(draws[keep] / norms[keep, np.newaxis])
    pts = np.vstack(directions)
    pts.setflags(write=False)
    return pts


def sphere_minimum(g, dim: int) -> float:
    """Estimated minimum of g over the unit sphere by dense sampling.

    Axis and (for moderate dimensions) diagonal directions are always
    included, which picks up the exact minimizer for the symmetric
    polynomials this package benchmarks; random directions come from a
    fixed internal stream so the estimate is deterministic.  The
    directions depend only on dim and are built once per dim.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    # g gets its own copy, so an evaluator that writes into its argument
    # neither fails on the read-only cache nor changes it.
    vals = np.asarray(g(_sphere_directions(dim).copy()), dtype=float)
    return float(np.min(vals))


def auto_enclosing_radius(g: MultiPoly, y: float) -> float:
    """Box half-width guaranteed to enclose {g <= y} for homogeneous g.

    If g is positively homogeneous of degree k with minimum m > 0 on
    the unit sphere, then g(x) <= y forces |x| <= (y/m)^(1/k); the
    returned radius is that bound times a 1.1 margin, with m estimated
    by dense sphere sampling.
    """
    if not isinstance(g, MultiPoly):
        raise InputError("auto_enclosing_radius requires a polynomial g")
    degree = g.homogeneity_degree()
    if degree is None or degree < 1:
        raise InputError("auto_enclosing_radius requires g positively homogeneous of degree >= 1")
    y = float(y)
    if y < 0:
        raise InputError(f"y must be nonnegative, got {y!r}")
    m_hat = sphere_minimum(g, g.dim)
    if m_hat <= 0:
        raise UnboundedSublevelError(
            f"g is not positive away from the origin (sphere minimum {m_hat}); "
            "its sublevel sets are unbounded"
        )
    if y == 0.0:
        return 0.0
    return (y / m_hat) ** (1.0 / degree) * _ENCLOSING_MARGIN


def enclosing_radius(g, y: float, spec: QuadratureSpec) -> float:
    """Half-width of the box [-r, r]^d that direct estimates of {g <= y} sample.

    The one rule for every caller: a positively homogeneous polynomial
    g gets ``auto_enclosing_radius``; otherwise a numeric
    ``spec.box_radius`` is taken as the caller's assertion that the box
    encloses the set.  Anything else raises InputError.
    """
    if isinstance(g, MultiPoly) and g.homogeneity_degree() not in (None, 0):
        return auto_enclosing_radius(g, y)
    if spec.box_radius != "auto":
        return float(spec.box_radius)
    raise InputError(
        "sampling {g <= y} needs an enclosing box: give a homogeneous polynomial g "
        "or set a numeric box_radius in the quadrature spec"
    )
