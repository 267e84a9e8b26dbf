"""The public API: one name per capability, and the README example runs."""

import re
from pathlib import Path

import lapdual

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "BracketError", "DualCertificate", "ENGINE_BOX", "ENGINE_GAUSSIAN", "ENGINE_MONTE_CARLO",
    "ENGINE_POLAR", "EffortError", "EngineError", "EvaluationError", "EvaluationNoiseError",
    "ExtractionError", "GeneralizedPolynomial", "InputError", "IntegralEstimate", "LapdualError",
    "MeanValueResult", "MultiPoly", "QuadratureSpec", "SimplexMonomial", "SublevelProblem",
    "UnboundedSublevelError", "auto_enclosing_radius", "box_pass", "dual_integral",
    "find_lambda_for_target", "gamma", "gauss_hermite_rule", "gauss_legendre_rule",
    "generalized_polynomial_v", "integrate_box", "integrate_gaussian_quadratic",
    "lambda_y_for_order", "lambda_y_homogeneous", "laplace_of_v", "laplace_transform_by_quadrature",
    "log_gamma", "mean_value_point", "monte_carlo_sublevel", "multivariate_laplace_monomial",
    "simplex_laplace_of_v", "simplex_monomial_v", "sphere_minimum", "v_polynomial",
]


def test_public_names_are_pinned_and_resolve():
    # phi(lam) is dual_integral and v(y) is v_polynomial; a new public name
    # is a decision, made here.
    assert sorted(lapdual.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 43
    for name in PUBLIC_NAMES:
        assert getattr(lapdual, name) is not None


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^## Library use\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    assert "v_polynomial" in blocks[0]
    exec(compile(blocks[0], str(README), "exec"), {})
