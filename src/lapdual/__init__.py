"""Sublevel-set integration via exponentially weighted whole-space duals.

Computes parametric integrals v(y) of f over {x : g(x) <= y} by trading
the domain restriction for an exponential weight exp(-lambda_y * g) on
all of R^d, with the dual value lambda_y explicit in the positively
homogeneous case, and cross-validates every result against direct Monte
Carlo and closed forms.
"""

from .cubature import (
    ENGINE_BOX,
    ENGINE_GAUSSIAN,
    ENGINE_MONTE_CARLO,
    ENGINE_POLAR,
    IntegralEstimate,
    QuadratureSpec,
    auto_enclosing_radius,
    box_pass,
    gauss_hermite_rule,
    gauss_legendre_rule,
    integrate_box,
    integrate_gaussian_quadratic,
    integrate_polar,
    monte_carlo_sublevel,
    sphere_minimum,
)
from .duality import (
    DualCertificate,
    SublevelProblem,
    dual_integral,
    find_lambda_for_target,
    lambda_y_for_order,
    lambda_y_homogeneous,
    laplace_of_v,
    laplace_transform_by_quadrature,
    v_dual_homogeneous,
    v_homogeneous_closed_form,
    v_polynomial,
)
from .errors import (
    BracketError,
    EffortError,
    EngineError,
    EvaluationError,
    EvaluationNoiseError,
    ExtractionError,
    InputError,
    LapdualError,
    UnboundedSublevelError,
)
from .mvt import MeanValueResult, mean_value_point
from .polyalg import MultiPoly
from .simplex import (
    GeneralizedPolynomial,
    SimplexMonomial,
    generalized_polynomial_v,
    multivariate_laplace_monomial,
    simplex_laplace_of_v,
    simplex_monomial_v,
)
from .special import gamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "DualCertificate",
    "EffortError",
    "ENGINE_BOX",
    "ENGINE_GAUSSIAN",
    "ENGINE_MONTE_CARLO",
    "ENGINE_POLAR",
    "EngineError",
    "EvaluationError",
    "EvaluationNoiseError",
    "ExtractionError",
    "GeneralizedPolynomial",
    "InputError",
    "IntegralEstimate",
    "LapdualError",
    "MeanValueResult",
    "MultiPoly",
    "QuadratureSpec",
    "SimplexMonomial",
    "SublevelProblem",
    "UnboundedSublevelError",
    "auto_enclosing_radius",
    "box_pass",
    "dual_integral",
    "find_lambda_for_target",
    "gamma",
    "gauss_hermite_rule",
    "gauss_legendre_rule",
    "generalized_polynomial_v",
    "integrate_box",
    "integrate_gaussian_quadratic",
    "integrate_polar",
    "lambda_y_for_order",
    "lambda_y_homogeneous",
    "laplace_of_v",
    "laplace_transform_by_quadrature",
    "log_gamma",
    "mean_value_point",
    "monte_carlo_sublevel",
    "multivariate_laplace_monomial",
    "simplex_laplace_of_v",
    "simplex_monomial_v",
    "sphere_minimum",
    "v_dual_homogeneous",
    "v_homogeneous_closed_form",
    "v_polynomial",
]
