"""Problem-file ingestion: JSON loading, schema validation, defaults.

A problem file is a single JSON object in one of two modes:

polynomial mode
    {"dim": d, "f": <poly>, "g": <poly>, "y": y | "y_grid": [..],
     "quadrature": {..}, "tau": t?}
    where <poly> is {"dim": d, "terms": [{"coef": c, "exps": [..]}, ..]}.

simplex mode
    {"simplex": true, "alpha_terms": [{"coef": c, "alpha": [..]}, ..],
     "y": y | "y_grid": [..], "quadrature": {..}}

Unknown keys anywhere are rejected before any computation runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

from .cubature import QuadratureSpec
from .duality import SublevelProblem
from .errors import InputError
from .polyalg import MultiPoly
from .simplex import GeneralizedPolynomial, SimplexMonomial

_TOP_KEYS = {"dim", "f", "g", "y", "y_grid", "quadrature", "simplex", "alpha_terms", "tau"}
_QUAD_KEYS = {"nodes_per_axis", "box_radius", "sample_count", "seed", "rel_tol"}
_ALPHA_TERM_KEYS = {"coef", "alpha"}


@dataclass(frozen=True)
class ProblemFile:
    """A validated problem instance ready for the pipelines: the SublevelProblem
    built once from f and g in poly mode, the generalized polynomial in simplex mode."""

    mode: str  # "poly" or "simplex"
    dim: int
    y_values: tuple[float, ...]
    single_y: bool
    quadrature: QuadratureSpec
    problem: SublevelProblem | None = None
    simplex_poly: GeneralizedPolynomial | None = None
    tau: float | None = None


def _require_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        raise InputError(f"{name} must be a number within the double range") from None


def _level(value, name: str) -> float:
    y = _require_number(value, name)
    if not 0 < y < math.inf:  # JSON reads 1e400 as inf
        raise InputError(f"{name} must be a finite positive level, got {y!r}")
    return y


def _parse_y(doc) -> tuple[tuple[float, ...], bool]:
    if ("y" in doc) == ("y_grid" in doc):
        raise InputError('exactly one of "y" and "y_grid" is required')
    if "y" in doc:
        return (_level(doc["y"], '"y"'),), True
    grid = doc["y_grid"]
    if not isinstance(grid, list):
        raise InputError('"y_grid" must be a list')
    return tuple(_level(entry, '"y_grid" entry') for entry in grid), False


def _parse_quadrature(doc) -> QuadratureSpec:
    block = doc.get("quadrature", {})
    if not isinstance(block, dict):
        raise InputError('"quadrature" must be an object')
    unknown = set(block) - _QUAD_KEYS
    if unknown:
        raise InputError(f"unknown quadrature keys: {sorted(unknown)}")
    return QuadratureSpec(**block)


def _parse_simplex(doc) -> GeneralizedPolynomial:
    terms_doc = doc.get("alpha_terms")
    if not isinstance(terms_doc, list) or not terms_doc:
        raise InputError('simplex mode requires a nonempty "alpha_terms" list')
    terms = []
    for entry in terms_doc:
        if not isinstance(entry, dict) or set(entry) != _ALPHA_TERM_KEYS:
            raise InputError(f'each alpha term must be {{"coef", "alpha"}}, got {entry!r}')
        if not isinstance(entry["alpha"], list):
            raise InputError('"alpha" must be a list')
        alpha = tuple(_require_number(a, '"alpha" entry') for a in entry["alpha"])
        coef = _require_number(entry["coef"], '"coef"')
        terms.append(SimplexMonomial(alpha, coef))
    return GeneralizedPolynomial(tuple(terms))


def parse_problem(doc) -> ProblemFile:
    """Validate a decoded JSON document and build a ProblemFile."""
    if not isinstance(doc, dict):
        raise InputError(f"problem file must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")

    y_values, single_y = _parse_y(doc)
    quadrature = _parse_quadrature(doc)

    if doc.get("simplex", False):
        if doc["simplex"] is not True:
            raise InputError('"simplex" must be true when present')
        forbidden = {"f", "g", "dim", "tau"} & set(doc)
        if forbidden:
            raise InputError(f"simplex mode does not accept keys {sorted(forbidden)}")
        poly = _parse_simplex(doc)
        return ProblemFile(
            mode="simplex",
            dim=poly.dim,
            y_values=y_values,
            single_y=single_y,
            quadrature=quadrature,
            simplex_poly=poly,
        )

    if "alpha_terms" in doc:
        raise InputError('"alpha_terms" requires "simplex": true')
    for key in ("dim", "f", "g"):
        if key not in doc:
            raise InputError(f'polynomial mode requires "{key}"')
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError(f'"dim" must be a positive integer, got {dim!r}')
    f = MultiPoly.from_json_dict(doc["f"])
    g = MultiPoly.from_json_dict(doc["g"])
    tau = None
    if "tau" in doc:
        tau = _require_number(doc["tau"], '"tau"')
    return ProblemFile(
        mode="poly",
        dim=dim,
        y_values=y_values,
        single_y=single_y,
        quadrature=quadrature,
        problem=SublevelProblem(dim, f, g),
        tau=tau,
    )


def load_problem_file(path) -> ProblemFile:
    """Read, decode and validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read problem file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    return parse_problem(doc)
