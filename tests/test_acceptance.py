"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lapdual import (
    MultiPoly,
    QuadratureSpec,
    SublevelProblem,
    auto_enclosing_radius,
    box_pass,
    dual_integral,
    find_lambda_for_target,
    lambda_y_homogeneous,
    laplace_of_v,
    laplace_transform_by_quadrature,
    mean_value_point,
    monte_carlo_sublevel,
    simplex_monomial_v,
    v_polynomial,
)
from lapdual.simplex import orthant_monomial_evaluator, simplex_gauge

from conftest import run_cli, write_problem

DISC_G = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
INTERVAL_G = MultiPoly(1, {(2,): 1.0})
QUARTIC_G = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
SEXTIC_G = MultiPoly(2, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})

DISC = SublevelProblem(2, MultiPoly.constant(2, 1.0), DISC_G)
INTERVAL = SublevelProblem(1, MultiPoly.constant(1, 1.0), INTERVAL_G)

SPEC = QuadratureSpec()


def report(criterion: str, ok: bool, detail: str):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_homogeneous_dual_identity():
    start = time.perf_counter()
    worst = 0.0
    for problem, oracle in (
        (DISC, lambda y: math.pi * y),
        (INTERVAL, lambda y: 2.0 * math.sqrt(y)),
    ):
        for y in (0.5, 1.0, 2.0, 10.0):
            cert = v_polynomial(problem, y, SPEC)[1][0]
            worst = max(worst, abs(cert.v_value - oracle(y)) / oracle(y))
    elapsed = time.perf_counter() - start
    report(
        "A1",
        worst <= 1e-8 and elapsed < 1.0,
        f"max rel error {worst:.3e} (<=1e-8), runtime {elapsed:.3f}s (<1s)",
    )


def test_a2_dual_variable_law():
    worst = 0.0
    for d, d_f, d_g in ((2, 0, 4), (1, 0, 2), (3, 2, 6)):
        const = lambda_y_homogeneous(d, d_f, d_g, 1.0)
        for y in np.geomspace(0.05, 50.0, 20):
            lam = lambda_y_homogeneous(d, d_f, d_g, float(y))
            worst = max(worst, abs(float(y) * lam - const) / const)
    balanced_worst = 0.0
    for d, d_f, d_g in ((2, 0, 2), (1, 1, 2), (3, 3, 6)):
        for y in np.geomspace(0.05, 50.0, 20):
            lam = lambda_y_homogeneous(d, d_f, d_g, float(y))
            balanced_worst = max(balanced_worst, abs(lam * float(y) - 1.0))
    report(
        "A2",
        worst <= 1e-12 and balanced_worst <= 1e-14,
        f"constancy {worst:.3e} (<=1e-12), balanced case {balanced_worst:.3e} (<=1e-14)",
    )


def test_a3_polynomial_decomposition():
    f = MultiPoly(2, {(0, 0): 1.0, (2, 0): 1.0})  # 1 + x1^2
    problem = SublevelProblem(2, f, DISC_G)
    value, certs = v_polynomial(problem, 1.0, SPEC)
    oracle = math.pi + math.pi / 4.0  # polar coordinates
    total_err = abs(value - oracle) / oracle
    # Component oracles: disc area pi*y and moment pi*y^2/4 at y = 1.
    comp_err = max(
        abs(certs[0].v_value - math.pi) / math.pi,
        abs(certs[1].v_value - math.pi / 4.0) / (math.pi / 4.0),
    )
    report(
        "A3",
        total_err <= 1e-8 and comp_err <= 1e-8,
        f"total rel err {total_err:.3e}, worst component rel err {comp_err:.3e} (<=1e-8)",
    )


def test_a4_transform_identity():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        lhs = laplace_transform_by_quadrature(lambda y: 2.0 * np.sqrt(y), lam)
        rhs = laplace_of_v(INTERVAL, lam, SPEC)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    report(
        "A4",
        worst <= 1e-6 and elapsed < 1.0,
        f"max rel diff {worst:.3e} (<=1e-6), runtime {elapsed:.3f}s (<1s)",
    )


def test_a5_nonconvex_benchmark():
    start = time.perf_counter()
    details = []
    ok = True
    for name, g in (("quartic", QUARTIC_G), ("sextic", SEXTIC_G)):
        d_g = g.homogeneity_degree()
        problem = SublevelProblem(2, MultiPoly.constant(2, 1.0), g)
        lam_1 = lambda_y_homogeneous(2, 0, d_g, 1.0)
        dual = dual_integral(problem, lam_1, QuadratureSpec(nodes_per_axis=96))
        radius = auto_enclosing_radius(g, 1.0)
        mc = monte_carlo_sublevel(
            problem.f, g, 2, 1.0, radius,
            QuadratureSpec(sample_count=10**7, seed=0),
        )
        rel = abs(dual.value - mc.value) / mc.value

        def indicator(pts, g=g, y=1.0):
            return (np.asarray(g(pts), dtype=float) <= y).astype(float)

        box, _, _ = box_pass(indicator, 2, radius, 96)
        box_rel = abs(box - mc.value) / mc.value
        details.append(
            f"{name}: dual {dual.value:.6f} vs mc {mc.value:.6f} rel {rel:.2e}, "
            f"box-indicator rel err {box_rel:.2e} (reported, no threshold)"
        )
        ok = ok and rel <= 0.01
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("A5", ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (<30s)")


def test_a6_simplex_closed_forms():
    exact_cases = (
        ((0.0, 0.0), 0.5),        # area of the canonical 2-simplex
        ((1.0, 0.0), 1.0 / 6.0),  # iterated integral
        ((-0.5,), 2.0),           # int_0^1 x^(-1/2) dx
    )
    worst = max(
        abs(simplex_monomial_v(alpha, 1.0) - oracle) / oracle for alpha, oracle in exact_cases
    )
    mc_ok = True
    for alpha in ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)):
        for y in (0.5, 1.0, 2.0):
            f = orthant_monomial_evaluator(alpha)
            est = monte_carlo_sublevel(
                f, simplex_gauge, 2, y, y,
                QuadratureSpec(sample_count=300_000, seed=41),
            )
            mc_ok = mc_ok and abs(est.value - simplex_monomial_v(alpha, y)) <= 4.0 * est.std_error
    report(
        "A6",
        worst <= 1e-12 and mc_ok,
        f"closed-form max rel err {worst:.3e} (<=1e-12), Monte Carlo within 4 sigma: {mc_ok}",
    )


def test_a7_monotone_dual_map_and_roots():
    values = [
        dual_integral(INTERVAL, float(lam), SPEC).value for lam in np.geomspace(1e-2, 1e3, 30)
    ]
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))
    lam_interval = find_lambda_for_target(INTERVAL, 2.0, (1e-3, 1e3), SPEC)
    lam_disc = find_lambda_for_target(DISC, math.pi, (1e-3, 1e3), SPEC)
    err_interval = abs(lam_interval - math.pi / 4.0) / (math.pi / 4.0)
    err_disc = abs(lam_disc - 1.0)
    report(
        "A7",
        monotone and err_interval <= 1e-8 and err_disc <= 1e-8,
        f"monotone on 30-point grid: {monotone}; lambda errors "
        f"{err_interval:.3e}, {err_disc:.3e} (<=1e-8)",
    )


def test_a8_initial_value_decay():
    worst = 0.0
    for lam in (1e2, 1e4, 1e6):
        got = dual_integral(INTERVAL, lam, SPEC).value
        expect = math.sqrt(math.pi / lam)
        worst = max(worst, abs(got - expect) / expect)
        got = dual_integral(DISC, lam, SPEC).value
        expect = math.pi / lam
        worst = max(worst, abs(got - expect) / expect)
    report("A8", worst <= 1e-4, f"max rel error vs closed forms {worst:.3e} (<=1e-4)")


def test_a9_scaling_law():
    p = (2 + 0) / 2
    worst, within = 0.0, True
    for t in (2.0, 5.0):
        for y in (0.5, 1.0, 3.0):
            lhs, (cert_ty,) = v_polynomial(DISC, t * y, SPEC)
            value, (cert_y,) = v_polynomial(DISC, y, SPEC)
            rhs = t**p * value
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
            within = within and abs(lhs - rhs) <= cert_ty.error_estimate + t**p * cert_y.error_estimate
    mc_ok = True
    radius_1 = auto_enclosing_radius(DISC_G, 1.0)
    mc_1 = monte_carlo_sublevel(
        DISC.f, DISC_G, 2, 1.0, radius_1,
        QuadratureSpec(sample_count=10**6, seed=5),
    )
    for t in (2.0, 5.0):
        radius_t = auto_enclosing_radius(DISC_G, t)
        mc_t = monte_carlo_sublevel(
            DISC.f, DISC_G, 2, t, radius_t,
            QuadratureSpec(sample_count=10**6, seed=6),
        )
        band = 4.0 * (mc_t.std_error + t**p * mc_1.std_error)
        mc_ok = mc_ok and abs(mc_t.value - t**p * mc_1.value) <= band
    report(
        "A9",
        worst <= 1e-9 and within and mc_ok,
        f"dual scaling rel err {worst:.3e} (<=1e-9), within certificates: {within}, "
        f"direct path within MC error: {mc_ok}",
    )


def test_a10_mean_value_extraction():
    problem = SublevelProblem(1, INTERVAL_G, INTERVAL_G)
    result = mean_value_point(problem, 1.0, SPEC)
    point_err = abs(abs(result.point[0]) - 3.0**-0.5)
    membership_all = True
    for seed in range(50):
        r = mean_value_point(problem, 1.0, replace(SPEC, seed=seed))
        membership_all = membership_all and INTERVAL_G(r.point) <= 1.0
    report(
        "A10",
        result.residual <= 1e-6 and point_err <= 1e-6 and membership_all,
        f"residual {result.residual:.3e} (<=1e-6), |x*| error {point_err:.3e}, "
        f"membership held on 50 seeds: {membership_all}",
    )


def test_a11_cli_determinism(tmp_path):
    disc = {
        "dim": 2,
        "f": {"dim": 2, "terms": [{"coef": 1.0, "exps": [0, 0]}]},
        "g": {
            "dim": 2,
            "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]}],
        },
        "y": 1.0,
        "quadrature": {"sample_count": 100_000},
    }
    sweep_doc = dict(disc)
    del sweep_doc["y"]
    sweep_doc["y_grid"] = [0.5, 1.0]
    mvt_doc = dict(disc)
    mvt_doc["f"] = {"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]}]}
    disc_path = write_problem(tmp_path / "disc.json", disc)
    sweep_path = write_problem(tmp_path / "sweep.json", sweep_doc)
    mvt_path = write_problem(tmp_path / "mvt.json", mvt_doc)
    commands = [
        ("integrate", "--input", disc_path, "--seed", "9"),
        ("sweep", "--input", sweep_path, "--seed", "9"),
        ("laplace-check", "--input", disc_path, "--lambdas", "0.5,1,2"),
        ("mvt", "--input", mvt_path, "--seed", "9"),
        ("find-lambda", "--input", disc_path, "--target", "3.14"),
        ("bench-fig1", "--variant", "quartic", "--samples", "200000", "--seed", "9"),
    ]
    ok = True
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout != ""
    report("A11", ok, f"{len(commands)} commands byte-identical across runs")
