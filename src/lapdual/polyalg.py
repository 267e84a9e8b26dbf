"""Sparse multivariate polynomials in graded-lexicographic term order.

Exponent vectors are dense length-``dim`` tuples of nonnegative ints and
coefficients are 64-bit floats.  Terms are kept sorted in graded-lex
order, which fixes the floating-point accumulation order of evaluation
and the serialization order, so results are bit-reproducible.

Evaluation accumulates term products within each homogeneous degree
first and then adds the per-degree partial sums in ascending order.
This makes ``p(x)`` exactly equal (same float operations) to summing
``f_k(x)`` over the homogeneous components ``f_k`` of ``p``.

Instances are immutable and safe to share across threads.  Arithmetic
is limited to addition, negation and scaling by a scalar.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InputError

Exponents = tuple[int, ...]


def _magnitude_power(col, e):
    """col ** e formed through |col|: numpy's pow takes a slow path on a
    negative base, about 70 ns an element against 4 ns on its magnitude.

    For e <= 2 it is ``col ** e``.  For e >= 3 it is ``|col| ** e``, with
    col's sign put back when e is odd.  It equals ``col ** e`` bit for bit
    where col >= 0, at -0.0 and +-inf, and for every e <= 2; a negative
    base is within 1 ulp of exact (about 5% of them differ from
    ``col ** e`` by one ulp), and a nan comes back a nan.  Each element's
    bits depend only on that element.
    """
    if e <= 2:
        return col ** e
    v = np.abs(col) ** e
    return np.copysign(v, col, out=v) if e % 2 else v


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


def _canonical_terms(dim, terms) -> tuple[tuple[Exponents, float], ...]:
    if isinstance(terms, dict):
        terms = terms.items()
    acc: dict[Exponents, float] = {}
    for exps, coef in terms:
        exps = tuple(exps)
        if len(exps) != dim:
            raise InputError(
                f"exponent vector {exps!r} has length {len(exps)}, expected {dim}"
            )
        for e in exps:
            if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or e < 0:
                raise InputError(f"exponents must be nonnegative integers, got {exps!r}")
        try:
            coef = float(coef)
        except OverflowError:  # an int past the double range
            raise InputError(f"coefficient for {exps!r} is past the double range") from None
        if not np.isfinite(coef):
            raise InputError(f"coefficient for {exps!r} is not finite: {coef!r}")
        exps = tuple(int(e) for e in exps)
        acc[exps] = acc.get(exps, 0.0) + coef
    return tuple(
        (exps, coef)
        for exps, coef in sorted(acc.items(), key=lambda item: _grlex_key(item[0]))
        if coef != 0.0
    )


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in ``dim`` variables.

    ``terms`` may be given as a mapping from exponent tuples to
    coefficients or as an iterable of ``(exponents, coefficient)``
    pairs; duplicates are summed and zero coefficients dropped.
    """

    dim: int
    terms: tuple[tuple[Exponents, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "terms", _canonical_terms(self.dim, self.terms))

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls(dim, ())

    @classmethod
    def constant(cls, dim: int, value: float) -> "MultiPoly":
        return cls(dim, {(0,) * dim: float(value)})

    @classmethod
    def monomial(cls, dim: int, exps, coef: float = 1.0) -> "MultiPoly":
        return cls(dim, {tuple(exps): float(coef)})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return sum(self.terms[-1][0])

    def __call__(self, x):
        """Evaluate at a point of shape (dim,) or at rows of an (N, dim) array."""
        return self._evaluate(x, operator.pow)

    # Overflow yields inf or nan, which the engines report as EvaluationError.
    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, x, power):
        """The polynomial at ``x``, as ``__call__``, with each x_j^e formed
        by ``power(column, e)``: ``operator.pow`` in ``__call__``, so that it
        is ``column ** e``, and ``_magnitude_power`` on the direct estimates
        (see ``cubature.sublevel_integrand``).  Each term is its coefficient
        times its powers in variable order, and terms add within a degree
        before the degrees add in ascending order, whatever the rule, so
        p(x) == sum of f_k(x) bit for bit under either rule."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InputError(
                f"expected point(s) with {self.dim} coordinates, got shape {np.shape(x)}"
            )
        total = np.zeros(pts.shape[0])
        partial = np.zeros(pts.shape[0])
        current_degree = None
        for exps, coef in self.terms:
            k = sum(exps)
            if k != current_degree:
                total = total + partial
                partial = np.zeros(pts.shape[0])
                current_degree = k
            term = np.full(pts.shape[0], coef)
            for j, e in enumerate(exps):
                if e:
                    term = term * power(pts[:, j], e)
            partial = partial + term
        total = total + partial
        return float(total[0]) if single else total

    def homogeneous_components(self) -> list[tuple[int, "MultiPoly"]]:
        """Nonempty components (k, f_k), ascending in degree k.

        Summing the components reproduces the polynomial exactly: each
        component holds exactly the terms of degree k.
        """
        groups: dict[int, list[tuple[Exponents, float]]] = {}
        for exps, coef in self.terms:
            groups.setdefault(sum(exps), []).append((exps, coef))
        return [
            (k, MultiPoly(self.dim, groups[k])) for k in sorted(groups)
        ]

    def homogeneity_degree(self) -> int | None:
        """The common exponent sum k if every term has it, else None.

        A purely combinatorial test: a polynomial whose terms all have
        degree k satisfies p(t*x) = t**k * p(x) for t > 0.  The zero
        polynomial returns None (it carries no distinguished degree).
        """
        degrees = {sum(exps) for exps, _ in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise InputError("cannot add polynomials of different dimensions")
        return MultiPoly(self.dim, list(self.terms) + list(other.terms))

    def __neg__(self):
        return MultiPoly(self.dim, [(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            return NotImplemented
        s = float(scalar)
        return MultiPoly(self.dim, [(e, c * s) for e, c in self.terms])

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """JSON form {"dim": d, "terms": [{"coef": c, "exps": [...]}, ...]}.

        Terms are emitted in graded-lex order.
        """
        return {
            "dim": self.dim,
            "terms": [{"coef": c, "exps": list(e)} for e, c in self.terms],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "MultiPoly":
        """Parse the JSON form; term order is arbitrary, duplicates summed."""
        if not isinstance(doc, dict):
            raise InputError(f"polynomial must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {"dim", "terms"}
        if unknown:
            raise InputError(f"unknown polynomial keys: {sorted(unknown)}")
        if "dim" not in doc or "terms" not in doc:
            raise InputError('polynomial requires "dim" and "terms"')
        if not isinstance(doc["terms"], list):
            raise InputError('"terms" must be a list')
        terms = []
        for entry in doc["terms"]:
            if not isinstance(entry, dict) or set(entry) != {"coef", "exps"}:
                raise InputError(f'each term must be {{"coef", "exps"}}, got {entry!r}')
            if not isinstance(entry["exps"], list):
                raise InputError('"exps" must be a list')
            if isinstance(entry["coef"], bool) or not isinstance(entry["coef"], Real):
                raise InputError(f'"coef" must be a number, got {entry["coef"]!r}')
            terms.append((tuple(entry["exps"]), entry["coef"]))
        return cls(doc["dim"], terms)
