"""Command-line front end.

Subcommands: integrate, sweep, laplace-check, mvt, find-lambda,
bench-fig1.  Exit codes: 0 success, 2 input/schema problem, 3 numerical
engine failure.  All stdout output is a pure function of the command
line and the input file: timings go to stderr, randomness is fully
determined by the seed.  Every number printed is finite: output holding
an infinity or a NaN is not written, and the command exits 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .cubature import (
    QuadratureSpec,
    box_pass,
    enclosing_radius,
    max_box_nodes,
    monte_carlo_sublevel,
    sublevel_integrand,
)
from .duality import (
    METHOD_CLOSED_FORM,
    METHOD_ROOT_FOUND,
    DualCertificate,
    SublevelProblem,
    _find_lambda,
    dual_integral,
    lambda_y_for_order,
    laplace_of_v,
    laplace_transform_by_quadrature,
    v_dual_homogeneous,
    v_polynomial,
)
from .errors import EngineError, EvaluationError, InputError
from .mvt import mean_value_point
from .polyalg import MultiPoly
from .problemfile import ProblemFile, load_problem_file
from .simplex import (
    generalized_polynomial_v,
    orthant_monomial_evaluator,
    simplex_box_indicator,
    simplex_gauge,
    simplex_laplace_of_v,
    simplex_monomial_v,
    simplex_power_law,
)
from .special import frexp_exp, powers_over_gamma

SWEEP_HEADER = "y,lambda_y,v_dual,v_direct_mc,v_direct_boxindicator,rel_diff_dual_vs_mc,method,seed"
CERT_HEADER = "y,lambda_y,v_value,method,error_estimate"

FIG1_QUARTIC = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
FIG1_SEXTIC = MultiPoly(2, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})


def _fmt(value) -> str:
    """17-significant-digit cell formatting: lossless re-ingestion."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render(output: str, doc, header, rows) -> str:
    """The command's stdout, as JSON or as CSV; EvaluationError when a
    number in it is not finite."""
    if output == "json":
        try:
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise EvaluationError(f"the result is not finite ({exc}); nothing printed") from None
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise EvaluationError(f"{name} is {cell} in the row of {header[0]} = {row[0]}; nothing printed")
        writer.writerow([_fmt(cell) for cell in row])
    return text.getvalue()


def _rel_diff(a: float, b: float) -> float:
    if b != 0.0:
        return abs(a - b) / abs(b)
    return 0.0 if a == b else float("inf")


def _spec_from(pf: ProblemFile, args) -> QuadratureSpec:
    spec = pf.quadrature
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.rel_tol is not None:
        spec = replace(spec, rel_tol=args.rel_tol)
    return spec


def _fig1_problem(args) -> ProblemFile:
    """The bench-fig1 instance, f = 1 over the quartic or sextic star at y = 1."""
    return ProblemFile(
        mode="poly",
        dim=2,
        y_values=(1.0,),
        single_y=True,
        quadrature=QuadratureSpec(nodes_per_axis=args.nodes, sample_count=args.samples),
        problem=SublevelProblem(2, MultiPoly.constant(2, 1.0),
                                FIG1_QUARTIC if args.variant == "quartic" else FIG1_SEXTIC),
    )


def _single_y(pf: ProblemFile, message: str) -> float:
    if not pf.single_y:
        raise InputError(message)
    return pf.y_values[0]


def _certificates(pf: ProblemFile, spec: QuadratureSpec, y: float):
    """v(y) and one certificate per dualized piece: a homogeneous
    component of f in poly mode, an alpha term in simplex mode."""
    if pf.mode == "poly":
        return v_polynomial(pf.problem, y, spec)
    certs = [
        DualCertificate(
            y,
            lambda_y_for_order(pf.dim + sum(term.alpha), y),
            term.coef * simplex_monomial_v(term.alpha, y),
            "closed-form",
            0.0,
        )
        for term in pf.simplex_poly.terms
    ]
    return generalized_polynomial_v(pf.simplex_poly, y), certs


def _direct_estimates(pf: ProblemFile, spec: QuadratureSpec, y: float):
    """The Monte Carlo estimate of v(y) and the box-indicator value, one
    tensor pass of f * 1{g <= y} with ``min(nodes_per_axis,
    max_box_nodes(d))`` nodes per axis, over one enclosing box.  In poly
    mode the pass is ``box_pass`` of ``sublevel_integrand``; in simplex
    mode it is ``simplex_box_indicator``, which sums the same nodes by
    rows of prefix sums."""
    nodes = min(spec.nodes_per_axis, max_box_nodes(pf.dim))
    if pf.mode == "simplex":
        terms = [(t.coef, orthant_monomial_evaluator(t.alpha)) for t in pf.simplex_poly.terms]
        # The simplex at level y fills a corner of [0, y]^d: Monte Carlo
        # samples [-y/2, y/2]^d, with the evaluators shifted onto [0, y]^d.
        radius = 0.5 * y

        def f(pts):
            pts = pts + radius
            total = np.zeros(pts.shape[0])
            for coef, ev in terms:
                total = total + coef * ev(pts)
            return total

        def g(pts):  # the gauge is linear: no shifted copy of every point
            return simplex_gauge(pts) + pf.dim * radius

        mc = monte_carlo_sublevel(f, g, pf.dim, y, radius, spec)
        return mc, simplex_box_indicator(pf.simplex_poly, y, nodes)
    f, g, radius = pf.problem.f, pf.problem.g, enclosing_radius(pf.problem.g, y, spec)
    mc = monte_carlo_sublevel(f, g, pf.dim, y, radius, spec)
    box, _, _ = box_pass(sublevel_integrand(f, g, y), pf.dim, radius, nodes)
    return mc, box


def cmd_integrate(pf: ProblemFile, spec: QuadratureSpec, args):
    y = _single_y(pf, "integrate requires a single \"y\"; use sweep for a grid")
    header = CERT_HEADER.split(",")

    if pf.mode == "simplex":
        value, certs = _certificates(pf, spec, y)
        mc, box = _direct_estimates(pf, spec, y)
        doc = {
            "mode": "simplex",
            "y": y,
            "v": value,
            "method": "closed-form",
            "terms": [
                {"alpha": list(t.alpha), "coef": t.coef, "lambda_y": c.lambda_y, "v_term": c.v_value}
                for t, c in zip(pf.simplex_poly.terms, certs)
            ],
            "v_direct_mc": mc.value,
            "mc_std_error": mc.std_error,
            "v_direct_boxindicator": box,
            "rel_diff_closed_vs_mc": _rel_diff(value, mc.value),
            "seed": spec.seed,
        }
        return doc, header, [c.csv_row() for c in certs]

    problem = pf.problem
    doc = {"mode": "poly", "y": y}
    certs = []
    if problem.g_degree is not None:
        value, certs = _certificates(pf, spec, y)
        closed = {}
        if problem.f_degree is not None:
            # f has one degree, so its one piece is the problem itself, dualized
            # at the explicit lambda_y: that is the closed form's one integral.
            closed["v_closed_form"] = certs[0].v_value
            certs.append(replace(certs[0], method=METHOD_CLOSED_FORM))
        doc.update(v_dual=value, certificates=[asdict(c) for c in certs], **closed)
        if pf.tau is not None:
            ones = MultiPoly.constant(pf.dim, 1.0)
            vol, _ = v_polynomial(replace(problem, f=ones, f_degree=0.0), y, spec)
            shifted, _ = v_polynomial(
                replace(problem, f=problem.f - ones * pf.tau, f_degree=None), y, spec
            )
            doc["tau_decomposition"] = {
                "tau": pf.tau,
                "volume": vol,
                "shifted_integral": shifted,
                "v_from_tau_shift": pf.tau * vol + shifted,
            }
    mc, box = _direct_estimates(pf, spec, y)
    doc["v_direct_mc"] = mc.value
    doc["mc_std_error"] = mc.std_error
    doc["v_direct_boxindicator"] = box
    if "v_dual" in doc:
        doc["rel_diff_dual_vs_mc"] = _rel_diff(doc["v_dual"], mc.value)
    doc["seed"] = spec.seed
    return doc, header, [c.csv_row() for c in certs]


def _scaled(value: float, log_factor: float) -> float:
    """value * exp(log_factor), with the factor split by ``frexp_exp`` so
    that only the product must fit in a double; past it, an infinity,
    which ``_render`` refuses to print."""
    mantissa, power = frexp_exp(log_factor)
    try:
        return math.ldexp(value * mantissa, power)
    except OverflowError:
        return math.copysign(math.inf, value)


def cmd_sweep(pf: ProblemFile, spec: QuadratureSpec, args):
    """One row per level y of the grid: lambda_y, v(y) and the direct estimates.

    f and g are homogeneous, so v(y) = y^p * v(1) with p = (d + deg f)/deg g
    (simplex mode: p = d + sum(alpha)).  The direct estimates obey the same
    law: the enclosing box scales as y^(1/deg g) (simplex: as y), Monte
    Carlo draws the same unit samples at every level and the box rule's
    nodes scale with the box.  So Monte Carlo and the box-indicator pass
    run once, at the first level y1, and each later level prints y1's
    values times (y/y1)^p, formed in log space; a sample or node that lies
    exactly on the level set is judged once, at y1.  The first row is the
    measurement itself, and its Monte Carlo value is the independent check
    on the dual; the rest of the column is that one measurement scaled,
    as v_dual is one sphere sum per piece, kept on the problem, scaled.
    An empty grid runs no estimate.
    """
    if pf.mode == "simplex":
        if len(pf.simplex_poly.terms) != 1:
            raise InputError("sweep in simplex mode supports a single alpha term")
        order = pf.dim + sum(pf.simplex_poly.terms[0].alpha)
    elif pf.problem.f_degree is None or pf.problem.g_degree is None:
        raise InputError("sweep requires positively homogeneous f and g (or simplex mode)")
    else:
        order = (pf.dim + pf.problem.f_degree) / pf.problem.g_degree
    rows = []
    for y in pf.y_values:
        value, certs = _certificates(pf, spec, y)
        if not rows:
            y1, (mc1, box1) = y, _direct_estimates(pf, spec, y)
            mc, box = mc1.value, box1
        else:
            log_factor = order * (math.log(y) - math.log(y1))
            mc, box = _scaled(mc1.value, log_factor), _scaled(box1, log_factor)
        rows.append((y, certs[0].lambda_y, value, mc, box,
                     _rel_diff(value, mc), certs[0].method, spec.seed))
    header = SWEEP_HEADER.split(",")
    return [dict(zip(header, row)) for row in rows], header, rows


def cmd_laplace_check(pf: ProblemFile, spec: QuadratureSpec, args):
    lambdas = []
    for piece in args.lambdas.split(","):
        try:
            lam = float(piece)
        except ValueError:
            raise InputError(f"--lambdas entries must be numbers, got {piece!r}") from None
        if not lam > 0:
            raise InputError(f"transform arguments must be positive, got {lam!r}")
        lambdas.append(lam)

    # v on arrays of y, in log space as the scalar closed forms form it.
    if pf.mode == "simplex":
        terms = pf.simplex_poly.terms
        laws = [(t.coef, *simplex_power_law(t.alpha)) for t in terms]

        def v_fn(ys):
            total = np.zeros(ys.shape)
            with np.errstate(over="ignore"):  # an infinite sum is refused by the quadrature
                for coef, p, log_coef in laws:
                    total += coef * powers_over_gamma(ys, p, log_coef)
            return total

        def rhs_fn(lam):
            return sum(t.coef * simplex_laplace_of_v(t.alpha, lam) for t in terms)

    else:
        problem = pf.problem
        if problem.f_degree is None or problem.g_degree is None:
            raise InputError(
                "laplace-check needs a closed-form v: homogeneous f and g, or simplex mode"
            )
        base = dual_integral(problem, 1.0, spec).value
        order = (problem.dim + problem.f_degree) / problem.g_degree

        def v_fn(ys):
            if base == 0.0:
                return np.zeros(ys.shape)
            return math.copysign(1.0, base) * powers_over_gamma(ys, order, math.log(abs(base)))

        def rhs_fn(lam):
            return laplace_of_v(problem, lam, spec)

    rows = []
    for lam in lambdas:
        lhs = laplace_transform_by_quadrature(v_fn, lam)
        rhs = rhs_fn(lam)
        rows.append((lam, lhs, rhs, _rel_diff(lhs, rhs)))
    header = ["lambda", "lhs", "rhs", "rel_diff"]
    return [dict(zip(header, row)) for row in rows], header, rows


def cmd_mvt(pf: ProblemFile, spec: QuadratureSpec, args):
    if pf.mode != "poly":
        raise InputError("mvt requires polynomial mode")
    y = _single_y(pf, "mvt requires a single \"y\"")
    result = mean_value_point(pf.problem, y, spec)
    doc = {
        "point": list(result.point),
        "f_at_point": result.f_at_point,
        "target_mean": result.target_mean,
        "residual": result.residual,
        "attempts": result.attempts,
        "seed": spec.seed,
    }
    header = [f"x{i + 1}" for i in range(pf.dim)]
    header += ["f_at_point", "target_mean", "residual", "attempts"]
    row = list(result.point) + [
        result.f_at_point, result.target_mean, result.residual, result.attempts
    ]
    return doc, header, [row]


def cmd_find_lambda(pf: ProblemFile, spec: QuadratureSpec, args):
    if pf.mode != "poly":
        raise InputError("find-lambda requires polynomial mode")
    y = _single_y(pf, 'find-lambda requires a single "y" (the level the target belongs to)')
    lam, phi = _find_lambda(pf.problem, args.target, (args.bracket_lo, args.bracket_hi), spec)
    cert = DualCertificate(y, lam, phi, METHOD_ROOT_FOUND, abs(phi - args.target))
    doc = {
        "lambda": lam,
        "phi": phi,
        "target": args.target,
        "rel_residual": _rel_diff(phi, args.target),
        "certificate": asdict(cert),
    }
    return doc, CERT_HEADER.split(","), [cert.csv_row()]


def cmd_bench_fig1(pf: ProblemFile, spec: QuadratureSpec, args):
    t0 = time.perf_counter()
    cert = v_dual_homogeneous(pf.problem, 1.0, spec)
    t1 = time.perf_counter()
    mc_est, box = _direct_estimates(pf, spec, 1.0)
    t2 = time.perf_counter()

    doc = {
        "variant": args.variant,
        "y": 1.0,
        "lambda_1": cert.lambda_y,
        "v_dual": cert.v_value,
        "v_mc": mc_est.value,
        "mc_std_error": mc_est.std_error,
        "v_boxindicator": box,
        "rel_diff_dual_vs_mc": _rel_diff(cert.v_value, mc_est.value),
        "boxindicator_rel_err_vs_mc": _rel_diff(box, mc_est.value),
        "seed": spec.seed,
        "samples": spec.sample_count,
        "nodes_per_axis": spec.nodes_per_axis,
    }
    # Timing is run-dependent diagnostics; keep stdout byte-reproducible.
    sys.stderr.write(f"timing: dual={t1 - t0:.3f}s direct={t2 - t1:.3f}s\n")
    keys = [k for k in doc if k != "y"]
    return doc, ["y"] + keys, [[doc["y"]] + [doc[k] for k in keys]]


def _add_common(parser, *, with_input=True):
    if with_input:
        parser.add_argument("--input", "-i", required=True, help="problem file (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed override (unsigned 64-bit; default: problem file, then 0)")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=None,
                        help="relative tolerance override for adaptive engines")
    parser.add_argument("--output", choices=("csv", "json"), default=None,
                        help="output format (default depends on the command)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapdual",
        description="Integrate f over sublevel sets {g <= y} via exponentially "
        "weighted whole-space duals, cross-validated against direct estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="evaluate v(y) by every applicable path")
    _add_common(p)
    p.set_defaults(func=cmd_integrate, default_output="json")

    p = sub.add_parser("sweep", help="CSV sweep over a y grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep, default_output="csv")

    p = sub.add_parser("laplace-check", help="compare both evaluations of the transform of v")
    _add_common(p)
    p.add_argument("--lambdas", default="0.5,1,2",
                   help="comma-separated transform arguments (default 0.5,1,2)")
    p.set_defaults(func=cmd_laplace_check, default_output="csv")

    p = sub.add_parser("mvt", help="extract a mean-value point of K_y")
    _add_common(p)
    p.set_defaults(func=cmd_mvt, default_output="json")

    p = sub.add_parser("find-lambda", help="recover the dual value for a target integral")
    _add_common(p)
    p.add_argument("--target", type=float, required=True, help="target value of v(y)")
    p.add_argument("--bracket-lo", dest="bracket_lo", type=float, default=1e-3)
    p.add_argument("--bracket-hi", dest="bracket_hi", type=float, default=1e3)
    p.set_defaults(func=cmd_find_lambda, default_output="json")

    p = sub.add_parser("bench-fig1", help="two-dimensional nonconvex benchmark at y = 1")
    _add_common(p, with_input=False)
    p.add_argument("--variant", choices=("quartic", "sextic"), default="quartic")
    p.add_argument("--samples", type=int, default=10_000_000,
                   help="Monte Carlo sample count (default 1e7)")
    p.add_argument("--nodes", type=int, default=96,
                   help="tensor nodes per axis for the cubature paths")
    p.set_defaults(func=cmd_bench_fig1, default_output="json")

    return parser


# Built by the first main() call, not at import, and kept: building it
# costs about as much as a small command.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.output is None:
        args.output = args.default_output
    try:
        if args.command == "bench-fig1":
            pf = _fig1_problem(args)
        else:
            pf = load_problem_file(args.input)
        doc, header, rows = args.func(pf, _spec_from(pf, args), args)
        text = _render(args.output, doc, header, rows)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EngineError as exc:
        sys.stderr.write(f"engine error: {exc}\n")
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
