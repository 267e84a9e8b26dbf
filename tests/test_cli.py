import json
import math
import os
import subprocess
import sys
import time

import pytest

from conftest import SRC, run_cli, separable_power_integral, write_problem
from lapdual import MultiPoly, QuadratureSpec, SublevelProblem, cli, cubature, duality
from lapdual.cli import main
from lapdual.problemfile import parse_problem
from lapdual.simplex import simplex_monomial_v

DISC = {
    "dim": 2,
    "f": {"dim": 2, "terms": [{"coef": 1.0, "exps": [0, 0]}]},
    "g": {
        "dim": 2,
        "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]}],
    },
    "y": 1.0,
    "quadrature": {"sample_count": 200_000},
}

INTERVAL = {
    "dim": 1,
    "f": {"dim": 1, "terms": [{"coef": 1.0, "exps": [0]}]},
    "g": {"dim": 1, "terms": [{"coef": 1.0, "exps": [2]}]},
    "y": 1.0,
    "quadrature": {"sample_count": 100_000},
}

SIMPLEX = {
    "simplex": True,
    "alpha_terms": [{"coef": 1.0, "alpha": [1.0, 0.0]}],
    "y": 1.0,
    "quadrature": {"sample_count": 100_000},
}


def test_integrate_disc(tmp_path):
    path = write_problem(tmp_path / "disc.json", DISC)
    proc = run_cli("integrate", "--input", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["v_dual"] == pytest.approx(math.pi, rel=1e-10)
    assert doc["certificates"][0]["lambda_y"] == pytest.approx(1.0, rel=1e-12)
    assert doc["certificates"][0]["method"] == "dual-gaussian"
    assert abs(doc["v_dual"] - doc["v_direct_mc"]) <= 5.0 * doc["mc_std_error"]


def test_integrate_five_dim_ball_at_the_default_spec(tmp_path, capsys):
    # No quadrature block: the dual takes exact Gaussian moments, and the
    # box-indicator pass runs at 27 nodes per axis, the most whose 27^5
    # points fit under the tensor cap.
    a = [1.0 + 0.1 * i for i in range(5)]
    g = [{"coef": a_i, "exps": [2 * (j == i) for j in range(5)]} for i, a_i in enumerate(a)]
    doc = {"dim": 5, "f": {"dim": 5, "terms": [{"coef": 1.0, "exps": [2, 2, 0, 0, 0]}]},
           "g": {"dim": 5, "terms": g}, "y": 1.0}
    assert main(["integrate", "--input", write_problem(tmp_path / "ball.json", doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    exact = separable_power_integral({(2, 2, 0, 0, 0): 1.0}, a, 1.0, 2) / math.gamma(5.5)
    assert out["v_dual"] == pytest.approx(exact, rel=1e-13)
    assert abs(out["v_dual"] - out["v_direct_mc"]) <= 3.0 * out["mc_std_error"]
    assert out["v_direct_boxindicator"] == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("alpha, samples", [((1.0, 0.5, 0.0), 100_000), ((0.5,) * 9, 1_000_000)])
def test_simplex_direct_estimates_sample_the_corner_box(alpha, samples):
    # The simplex at level y fills 1 / d! of [0, y]^d, but only 1 / (2^d d!)
    # of [-y, y]^d: at d = 9 that box left every estimate 0.
    pf = parse_problem({"simplex": True, "alpha_terms": [{"coef": 1.5, "alpha": list(alpha)}],
                        "y": 1.0, "quadrature": {"sample_count": samples, "nodes_per_axis": 4}})
    for y in (1.0, 5.0):
        mc, box = cli._direct_estimates(pf, pf.quadrature, y)
        exact = 1.5 * simplex_monomial_v(alpha, y)
        assert mc.box_radius_used == 0.5 * y
        assert abs(mc.value - exact) <= 3.0 * mc.std_error
        assert box > 0.0


@pytest.mark.parametrize("alpha", [(1.0, 0.0), (0.0, 0.0), (0.5, 1.5)])
def test_simplex_box_indicator_counts_boundary_nodes_half(alpha):
    # On [0, y]^2 the symmetric rule pairs its nodes as u and y - u, so a
    # whole row of nodes lies on x1 + x2 = y.  Counted in full it biased the
    # estimate by O(1/n): 1.9e-2 to 4.2e-2 relative at 64 nodes.
    pf = parse_problem({"simplex": True, "alpha_terms": [{"coef": 1.0, "alpha": list(alpha)}],
                        "y": 1.0, "quadrature": {"sample_count": 1000}})
    _, box = cli._direct_estimates(pf, pf.quadrature, 1.0)
    exact = simplex_monomial_v(alpha, 1.0)
    assert abs(box - exact) <= 5e-4 * exact


def test_integrate_simplex_closed_form(tmp_path):
    path = write_problem(tmp_path / "simplex.json", SIMPLEX)
    proc = run_cli("integrate", "--input", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["method"] == "closed-form"
    assert doc["v"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_integrate_with_tau_shift(tmp_path):
    doc = dict(DISC)
    doc["f"] = {"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": -1.0, "exps": [0, 0]}]}
    doc["tau"] = -1.0  # f = x1^2 - 1 >= -1 on the disc
    path = write_problem(tmp_path / "tau.json", doc)
    proc = run_cli("integrate", "--input", path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    shift = out["tau_decomposition"]
    # v = tau * vol + integral(f - tau) must match the direct dual value.
    assert shift["v_from_tau_shift"] == pytest.approx(out["v_dual"], rel=1e-9)
    assert shift["volume"] == pytest.approx(math.pi, rel=1e-10)


def test_integrate_certificate_csv(tmp_path):
    path = write_problem(tmp_path / "disc.json", DISC)
    proc = run_cli("integrate", "--input", path, "--output", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "y,lambda_y,v_value,method,error_estimate"
    methods = [line.split(",")[3] for line in lines[1:]]
    assert methods == ["dual-gaussian", "closed-form-homogeneous"]
    # Both certificates agree on the dual relation y * lambda_y = 1 here.
    for line in lines[1:]:
        y, lam = map(float, line.split(",")[:2])
        assert abs(y * lam - 1.0) <= 1e-12


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    proc = run_cli("integrate", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_unknown_key_exits_2(tmp_path):
    doc = dict(DISC)
    doc["surprise"] = 1
    path = write_problem(tmp_path / "unknown.json", doc)
    proc = run_cli("integrate", "--input", str(path))
    assert proc.returncode == 2
    assert "surprise" in proc.stderr


def test_sweep_disc(tmp_path):
    doc = dict(DISC)
    del doc["y"]
    doc["y_grid"] = [0.5, 1.0, 2.0]
    doc["quadrature"] = {"sample_count": 100_000}
    path = write_problem(tmp_path / "sweep.json", doc)
    proc = run_cli("sweep", "--input", path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == (
        "y,lambda_y,v_dual,v_direct_mc,v_direct_boxindicator,rel_diff_dual_vs_mc,method,seed"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    v_dual = [float(r[2]) for r in rows]
    assert v_dual == pytest.approx([math.pi / 2, math.pi, 2 * math.pi], rel=1e-10)
    for row in rows:
        y, lam = float(row[0]), float(row[1])
        assert abs(y * lam - 1.0) <= 1e-12


def test_sweep_empty_grid_header_only(tmp_path):
    doc = dict(DISC)
    del doc["y"]
    doc["y_grid"] = []
    path = write_problem(tmp_path / "empty.json", doc)
    proc = run_cli("sweep", "--input", path)
    assert proc.returncode == 0
    assert proc.stdout.split("\n") == [
        "y,lambda_y,v_dual,v_direct_mc,v_direct_boxindicator,rel_diff_dual_vs_mc,method,seed",
        "",
    ]


def test_sweep_quartic_agrees_with_monte_carlo(tmp_path):
    doc = {
        "dim": 2,
        "f": {"dim": 2, "terms": [{"coef": 1.0, "exps": [0, 0]}]},
        "g": {
            "dim": 2,
            "terms": [
                {"coef": 1.0, "exps": [4, 0]},
                {"coef": 1.0, "exps": [0, 4]},
                {"coef": -1.925, "exps": [2, 2]},
            ],
        },
        "y_grid": [1.0],
        "quadrature": {"sample_count": 1_000_000, "nodes_per_axis": 96},
    }
    path = write_problem(tmp_path / "quartic.json", doc)
    proc = run_cli("sweep", "--input", path)
    assert proc.returncode == 0
    row = proc.stdout.strip().split("\n")[1].split(",")
    rel_diff = float(row[5])
    assert rel_diff <= 0.01


def test_sweep_requires_homogeneous_f(tmp_path):
    doc = dict(DISC)
    del doc["y"]
    doc["y_grid"] = [1.0]
    doc["f"] = {
        "dim": 2,
        "terms": [{"coef": 1.0, "exps": [0, 0]}, {"coef": 1.0, "exps": [2, 0]}],
    }
    path = write_problem(tmp_path / "inhom.json", doc)
    proc = run_cli("sweep", "--input", path)
    assert proc.returncode == 2


def _grid(doc, y_grid, **quadrature):
    """``doc`` over the levels ``y_grid``, with its quadrature block replaced."""
    grid = {k: v for k, v in doc.items() if k != "y"}
    return dict(grid, y_grid=y_grid, quadrature=quadrature)


FIG1 = dict(DISC, g=cli.FIG1_QUARTIC.to_json_dict(), y=2.0, quadrature={"sample_count": 2000},
            f={"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 0.3, "exps": [1, 1]}]})
SIMPLEX_3D = dict(SIMPLEX, alpha_terms=[{"coef": 1.5, "alpha": [1.0, 0.5, 0.0]}])
SWEEP_GRIDS = {
    "simplex-3d": _grid(SIMPLEX_3D, [0.4, 1.0, 3.7], sample_count=5000, nodes_per_axis=32),
    "fig1-quartic": _grid(FIG1, [0.3, 1.0, 2.5], sample_count=5000),
}


@pytest.mark.parametrize("doc, rel", [
    (SWEEP_GRIDS["simplex-3d"], 1e-13),
    (SWEEP_GRIDS["fig1-quartic"], 1e-13),
    # (y/y1)^p = 1e600 is past the double range although every value is not.
    (_grid(dict(DISC, f=DISC["g"]), [1e-150, 1.0, 1e150], sample_count=2000), 1e-12),
], ids=["simplex-3d", "fig1-quartic", "disc-1e-150-to-1e150"])
def test_sweep_direct_columns_are_the_per_level_estimates(doc, rel, tmp_path, capsys):
    # Homogeneity carries the direct estimates from the first level to
    # every other: the first row is the measurement, the rest agree with
    # measuring each level afresh up to rounding.
    assert main(["sweep", "--input", write_problem(tmp_path / "grid.json", doc)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split("\n")[1:-1]]
    pf = parse_problem(doc)
    assert len(rows) == len(pf.y_values)
    for i, (row, y) in enumerate(zip(rows, pf.y_values)):
        mc, box = cli._direct_estimates(pf, pf.quadrature, y)
        for printed, measured in zip(map(float, row[3:5]), (mc.value, box)):
            assert printed == (measured if i == 0 else pytest.approx(measured, rel=rel, abs=0))


def _count_calls(monkeypatch, module, name, calls):
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("case", sorted(SWEEP_GRIDS))
def test_sweep_runs_each_direct_estimate_once(case, tmp_path, capsys, monkeypatch):
    calls = []
    box = "simplex_box_indicator" if "simplex" in SWEEP_GRIDS[case] else "box_pass"
    for name in ("monte_carlo_sublevel", "box_pass", "simplex_box_indicator"):
        _count_calls(monkeypatch, cli, name, calls)
    assert main(["sweep", "--input", write_problem(tmp_path / "grid.json", SWEEP_GRIDS[case])]) == 0
    assert sorted(calls) == sorted([box, "monte_carlo_sublevel"])
    calls.clear()
    empty = dict(SWEEP_GRIDS[case], y_grid=[])
    assert main(["sweep", "--input", write_problem(tmp_path / "empty.json", empty)]) == 0
    assert calls == [] and capsys.readouterr().out.endswith(cli.SWEEP_HEADER + "\n")


@pytest.mark.parametrize("argv, doc", [
    (["integrate"], FIG1),
    (["laplace-check"], FIG1),
    (["find-lambda", "--target", "0.5"], FIG1),
    (["sweep"], _grid(FIG1, [0.5, 1.0, 2.0, 4.0, 8.0], sample_count=2000)),
], ids=["integrate", "laplace-check", "find-lambda", "sweep"])
def test_each_command_runs_one_sphere_integral(argv, doc, tmp_path, capsys, monkeypatch):
    # f = x1^2 + 0.3 x1 x2 over the fig1 quartic is one piece on the sphere.
    # Its sphere sum depends on neither lam nor y, so one memo per command
    # serves the base integral, every transform, every root step and every level.
    calls = []
    _count_calls(monkeypatch, cubature, "_sphere_integral", calls)
    assert main([argv[0], "--input", write_problem(tmp_path / "q.json", doc), *argv[1:]]) == 0
    assert len(calls) == 1


def test_laplace_check_interval(tmp_path):
    path = write_problem(tmp_path / "interval.json", INTERVAL)
    proc = run_cli("laplace-check", "--input", path, "--lambdas", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "lambda,lhs,rhs,rel_diff"
    _, lhs, rhs, rel = lines[1].split(",")
    assert float(lhs) == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    assert float(rhs) == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    assert float(rel) <= 1e-6


def test_laplace_check_simplex(tmp_path):
    doc = {
        "simplex": True,
        "alpha_terms": [{"coef": 1.0, "alpha": [0.0, 0.0]}],
        "y": 1.0,
    }
    path = write_problem(tmp_path / "s.json", doc)
    proc = run_cli("laplace-check", "--input", path, "--lambdas", "2")
    assert proc.returncode == 0
    _, lhs, rhs, rel = proc.stdout.strip().split("\n")[1].split(",")
    assert float(lhs) == pytest.approx(0.125, rel=1e-8)
    assert float(rhs) == pytest.approx(0.125, rel=1e-12)


def test_laplace_check_quartic_cross_engine(tmp_path):
    # Homogeneous but non-quadratic: the y side uses the closed form fed
    # by the box engine at weight 1, the transform side the box engine
    # at each lambda; agreement is a genuine cross-check of both.
    doc = {
        "dim": 2,
        "f": {"dim": 2, "terms": [{"coef": 1.0, "exps": [0, 0]}]},
        "g": {
            "dim": 2,
            "terms": [
                {"coef": 1.0, "exps": [4, 0]},
                {"coef": 1.0, "exps": [0, 4]},
                {"coef": -1.925, "exps": [2, 2]},
            ],
        },
        "y": 1.0,
        "quadrature": {"nodes_per_axis": 96},
    }
    path = write_problem(tmp_path / "quartic.json", doc)
    proc = run_cli("laplace-check", "--input", path, "--lambdas", "0.5,2")
    assert proc.returncode == 0
    for line in proc.stdout.strip().split("\n")[1:]:
        assert float(line.split(",")[3]) <= 1e-6


def test_laplace_check_high_degree_monomial(tmp_path):
    # f = x1^38 over the disc has v(y) proportional to y^20; a y-side
    # quadrature cut at 40/lambda misses 1.8e-4 of the transform.
    doc = dict(DISC, f={"dim": 2, "terms": [{"coef": 1.0, "exps": [38, 0]}]})
    path = write_problem(tmp_path / "x38.json", doc)
    proc = run_cli("laplace-check", "--input", path, "--lambdas", "0.5,1,2")
    assert proc.returncode == 0
    rows = proc.stdout.strip().split("\n")[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.5, 1.0, 2.0]
    for row in rows:
        assert float(row.split(",")[3]) <= 1e-10


@pytest.mark.parametrize("doc", [dict(DISC, f={"dim": 2, "terms": [{"coef": 1.0, "exps": [38, 0]}]}),
                                 dict(SIMPLEX, alpha_terms=[{"coef": 2.0, "alpha": [30.0, 0.5]}])],
                         ids=["x38-over-disc", "simplex"])
def test_laplace_check_calls_v_once_plus_once_per_tail_doubling(doc, tmp_path, capsys, monkeypatch):
    # v ~ y^20 and y^32.5: the tail beyond 40/lam is not negligible, so Y doubles.
    inner = duality.laplace_transform_by_quadrature
    calls_per_lambda = []

    def counting(v_fn, lam):
        calls = []

        def counted(ys):
            calls.append(len(ys))
            return v_fn(ys)

        calls_per_lambda.append(calls)
        return inner(counted, lam)

    monkeypatch.setattr(cli, "laplace_transform_by_quadrature", counting)
    path = write_problem(tmp_path / "p.json", doc)
    assert main(["laplace-check", "--input", path, "--lambdas", "0.5,1,2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert len(calls_per_lambda) == 3
    for first, *doublings in calls_per_lambda:
        # The nodes of the 65 first panels and Y, then a panel's nodes and 2Y.
        assert first == (duality._TRANSFORM_PANELS + 1) * duality._TRANSFORM_NODES + 1
        assert 1 <= len(doublings) <= duality._MAX_TAIL_DOUBLINGS
        assert doublings == [duality._TRANSFORM_NODES + 1] * len(doublings)


def test_laplace_check_rejects_nonpositive_lambda(tmp_path):
    path = write_problem(tmp_path / "interval.json", INTERVAL)
    proc = run_cli("laplace-check", "--input", path, "--lambdas", "-1")
    assert proc.returncode == 2


def test_integrate_closed_form_is_the_one_dual_integral(tmp_path, capsys, monkeypatch):
    # For homogeneous f the closed form and the dual are one sphere
    # integral: integrate runs it once and labels it twice.
    inner = duality._piece_dual
    lams = []

    def counting(problem, k, f_k, lam, spec):
        lams.append(lam)
        return inner(problem, k, f_k, lam, spec)

    monkeypatch.setattr(duality, "_piece_dual", counting)
    doc = dict(DISC, f={"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 0.3, "exps": [1, 1]}]},
               g={"dim": 2, "terms": [{"coef": 1.0, "exps": [4, 0]}, {"coef": 1.0, "exps": [0, 4]},
                                      {"coef": -1.925, "exps": [2, 2]}]},
               y=2.0, quadrature={"sample_count": 2000})
    assert main(["integrate", "--input", write_problem(tmp_path / "q.json", doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    dual, closed = out["certificates"]
    assert len(lams) == 1 and lams[0] == dual["lambda_y"]
    assert closed == dict(dual, method="closed-form-homogeneous")
    assert out["v_closed_form"] == out["v_dual"] == dual["v_value"]


def test_bench_fig1_refuses_an_out_of_range_seed(capsys):
    # The spec refuses the seed before any sample is drawn.
    for seed in ("-1", str(2**64)):
        assert main(["bench-fig1", "--seed", seed]) == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err


def test_numeric_box_radius_leaves_dual_alone(tmp_path, capsys):
    # box_radius encloses K_1 of the fig1 quartic, but it only sizes the
    # direct estimates' sampling box: the dual keeps its adaptive box.
    quartic = {
        "dim": 2,
        "terms": [
            {"coef": 1.0, "exps": [4, 0]},
            {"coef": 1.0, "exps": [0, 4]},
            {"coef": -1.925, "exps": [2, 2]},
        ],
    }
    docs = {}
    for radius in ("auto", 3.0):
        doc = dict(DISC, g=quartic, quadrature={"sample_count": 2000, "box_radius": radius})
        assert main(["integrate", "--input", write_problem(tmp_path / "q.json", doc)]) == 0
        docs[radius] = json.loads(capsys.readouterr().out)
    for key in ("v_dual", "v_closed_form"):
        assert docs[3.0][key] == pytest.approx(docs["auto"][key], rel=1e-12)


X400 = dict(
    INTERVAL,
    f={"dim": 1, "terms": [{"coef": 1.0, "exps": [400]}]},
    g={"dim": 1, "terms": [{"coef": 10.0, "exps": [2]}]},
)

# f = x1^40 over x1^4 + x2^4: v(y) = y^10.5 v(1).
X40 = dict(
    DISC,
    f={"dim": 2, "terms": [{"coef": 1.0, "exps": [40, 0]}]},
    g={"dim": 2, "terms": [{"coef": 1.0, "exps": [4, 0]}, {"coef": 1.0, "exps": [0, 4]}]},
)

# f = 1 over x1^4 + x2^4 at a level JSON reads as inf, such as "y": 1e400:
# lambda_y = Gamma(3/2)^2 / y is 0 there, and every command refuses the level.
INFINITE_LEVEL = dict(X40, f=DISC["f"], y=math.inf)


@pytest.mark.parametrize("doc", [X400, dict(SIMPLEX, alpha_terms=[{"coef": 1e300, "alpha": [100.0]}])],
                         ids=["x400-closed-form", "simplex-coef-times-v"])
def test_laplace_check_past_the_double_range_exits_3_without_a_warning(doc, tmp_path):
    # X400's v(y) overflows near the transform's peak; the simplex term's
    # v(y) fits, 1e300 times it does not.
    proc = run_cli("laplace-check", "--input", write_problem(tmp_path / "p.json", doc))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "engine error" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "problem, argv, code",
    [
        (INTERVAL, ["laplace-check", "--lambdas", "abc"], 2),
        (INTERVAL, ["laplace-check", "--lambdas", "1,,2"], 2),
        (dict(INTERVAL, quadrature={"engine": "box-gauss-legendre"}), ["integrate"], 2),
        # v(y) ~ y^200.5 / Gamma(201.5): Gamma overflows, v(1) does not ...
        (X400, ["integrate"], 0),
        # ... but v(y) near the transform's peak at y ~ 400 does.
        (X400, ["laplace-check"], 3),
        # The direct Monte Carlo box (2e200)^2 has no double volume.
        (dict(DISC, g={"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]},
                                           {"coef": 1.0, "exps": [4, 0]}]},
              quadrature={"sample_count": 1000, "box_radius": 1e200}), ["integrate"], 3),
        # phi at an infinite bracket end is no number to search on.
        (dict(DISC, f={"dim": 2, "terms": [{"coef": 1.0, "exps": [38, 0]}]}),
         ["find-lambda", "--target", "1", "--bracket-hi", "inf"], 2),
        # The disc's transform pi / lam^2 is past the double range: at 1e-160
        # the y-side sum overflows inside fsum, at 1e-300 each side is inf.
        (DISC, ["laplace-check", "--lambdas", "1e-160"], 3),
        (DISC, ["laplace-check", "--lambdas", "1e-300"], 3),
        # QuadratureSpec refuses a seed outside the unsigned 64-bit range.
        (INTERVAL, ["sweep", "--seed", "-1"], 2),
        (INTERVAL, ["sweep", "--seed", "18446744073709551616"], 2),
        # At y = 3e29 X40's v is 0.88 of the largest double, but the
        # box-indicator value, 1.19 v at 64 nodes, is past it: measured at
        # that level it printed inf ...
        (_grid(X40, [1.0, 3e29], sample_count=2000), ["sweep"], 3),
        # ... and integrate, which prints the measurement itself, wrote
        # Infinity, which is not JSON, and exited 0.
        (dict(X40, y=3e29, quadrature={"sample_count": 2000}), ["integrate"], 3),
        # Its CSV prints only the certificates, which are finite there.
        (dict(X40, y=3e29, quadrature={"sample_count": 2000}), ["integrate", "--output", "csv"], 0),
        # At y = 1e-30 v and both direct estimates are subnormal, and printed.
        (dict(X40, y=1e-30, quadrature={"sample_count": 2000}), ["integrate"], 0),
        # An infinite level: integrate, sweep and mvt took log 0 in the polar
        # engine (a traceback), laplace-check ignored it and find-lambda exited 3.
        *[(INFINITE_LEVEL, argv, 2) for argv in (
            ["integrate"], ["sweep"], ["laplace-check"], ["mvt"], ["find-lambda", "--target", "1"])],
        (_grid(INFINITE_LEVEL, [1.0, math.inf]), ["sweep"], 2),
        (dict(DISC, y=math.inf), ["integrate"], 2),
        (dict(SIMPLEX, y=math.inf), ["integrate"], 2),
        # Non-finite or boolean settings: at rel_tol inf the disc's Gaussian
        # route, which ignores it, exited 0 and the quartic exited 3.
        (DISC, ["integrate", "--rel-tol", "inf"], 2),
        (dict(X40, f=DISC["f"]), ["integrate", "--rel-tol", "inf"], 2),
        (dict(DISC, quadrature={"rel_tol": True}), ["integrate"], 2),
        (dict(DISC, quadrature={"box_radius": True}), ["integrate"], 2),
        # g has no degree, so the direct estimates read box_radius; at inf
        # the refusal named an engine invariant ("error_estimate ... nan").
        (dict(DISC, g={"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]},
                                           {"coef": 1.0, "exps": [4, 0]}]},
              quadrature={"sample_count": 1000, "box_radius": math.inf}), ["integrate"], 2),
        # An infinite target was a BracketError, exit 3.
        (DISC, ["find-lambda", "--target", "inf"], 2),
        (DISC, ["find-lambda", "--target", "1e400"], 2),
        # A subnormal level has lambda_y = inf: the disc exited 2 naming lam,
        # the quartic 3.
        *[(dict(doc, y=1e-310), [command], 2)
          for doc in (DISC, dict(X40, f=DISC["f"])) for command in ("integrate", "sweep")],
    ],
    ids=["lambdas-word", "lambdas-empty", "engine-key", "x400-integrate", "x400-laplace-check",
         "mc-box-volume", "find-lambda-infinite-bracket", "laplace-check-fsum-overflow",
         "laplace-check-past-double-range", "seed-negative", "seed-past-64-bits",
         "sweep-scaled-past-double-range", "integrate-box-indicator-past-double-range",
         "integrate-csv-near-double-range", "integrate-subnormal-level",
         "infinite-level-integrate", "infinite-level-sweep", "infinite-level-laplace-check",
         "infinite-level-mvt", "infinite-level-find-lambda", "infinite-level-in-grid",
         "infinite-level-disc", "infinite-level-simplex", "rel-tol-inf-gaussian", "rel-tol-inf-polar",
         "rel-tol-bool", "box-radius-bool", "box-radius-inf", "target-inf", "target-past-double-range",
         "subnormal-level-integrate-disc", "subnormal-level-sweep-disc",
         "subnormal-level-integrate-quartic", "subnormal-level-sweep-quartic"],
)
def test_exit_code_contract(problem, argv, code, tmp_path):
    path = write_problem(tmp_path / "p.json", problem)
    proc = run_cli(argv[0], "--input", path, *argv[1:])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2 and "engine" in problem.get("quadrature", {}):
        assert "engine" in proc.stderr


@pytest.mark.parametrize("g", [DISC["g"], X40["g"]], ids=["disc", "quartic"])
@pytest.mark.parametrize("command", ["integrate", "sweep"])
def test_a_subnormal_level_is_refused_by_name(command, g, tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", dict(DISC, g=g, y=1e-310))
    assert main([command, "--input", path]) == 2
    assert "the level y = 1e-310 is too small" in capsys.readouterr().err


def test_a_coefficient_past_the_double_range_exits_2(tmp_path):
    # JSON reads the coefficient 1 followed by 400 zeros as an int, which
    # float() cannot convert: it exited 1 with a traceback.
    doc = dict(DISC, f={"dim": 2, "terms": [{"coef": 10**400, "exps": [0, 0]}]})
    proc = run_cli("integrate", "--input", write_problem(tmp_path / "p.json", doc))
    assert proc.returncode == 2
    assert "past the double range" in proc.stderr and "Traceback" not in proc.stderr


def test_an_oversized_monte_carlo_run_exits_3_at_once(tmp_path, capsys):
    # 10^400 samples ran 2^19-sample chunks for minutes.
    path = write_problem(tmp_path / "p.json", dict(DISC, quadrature={"sample_count": 10**400}))
    start = time.perf_counter()
    assert main(["integrate", "--input", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "a Monte Carlo run in 2 dimensions takes at most" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["integrate"], ["integrate", "--output", "csv"], ["sweep"],
                                  ["sweep", "--output", "json"], ["laplace-check"], ["mvt"]],
                         ids=["integrate", "integrate-csv", "sweep", "sweep-json", "laplace-check", "mvt"])
def test_no_command_prints_a_non_finite_number(argv, tmp_path):
    # X40 at y = 3e29: v fits in a double, its box-indicator value does not.
    proc = run_cli(*argv, "--input", write_problem(tmp_path / "p.json", dict(X40, y=3e29)))
    assert proc.returncode in (0, 3) and "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stdout == ""
    elif proc.stdout[:1] in "{[":
        json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"{name} printed"))
    else:
        for line in proc.stdout.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    number = float(cell)
                except ValueError:
                    continue  # a method name
                assert math.isfinite(number), line


def test_find_lambda_disc(tmp_path):
    path = write_problem(tmp_path / "disc.json", DISC)
    proc = run_cli("find-lambda", "--input", path, "--target", str(math.pi))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lambda"] == pytest.approx(1.0, rel=1e-8)


def test_find_lambda_integrates_only_inside_the_search(tmp_path, capsys, monkeypatch):
    inner = duality.dual_integral
    lams = []

    def counting(problem, lam, spec):
        lams.append(lam)
        return inner(problem, lam, spec)

    monkeypatch.setattr(duality, "dual_integral", counting)
    monkeypatch.setattr(cli, "dual_integral", counting)
    path = write_problem(tmp_path / "disc.json", DISC)
    assert main(["find-lambda", "--input", path, "--target", str(2.7 * math.pi)]) == 0
    doc = json.loads(capsys.readouterr().out)
    in_cli = len(lams)
    disc = SublevelProblem(2, MultiPoly.constant(2, 1.0), MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}))
    spec = QuadratureSpec(sample_count=200_000)
    lams.clear()
    assert duality.find_lambda_for_target(disc, 2.7 * math.pi, (1e-3, 1e3), spec) == doc["lambda"]
    assert in_cli == len(lams)
    assert doc["phi"] == inner(disc, doc["lambda"], spec).value


def test_find_lambda_polynomial_f_over_the_fig1_quartic(tmp_path):
    # f = 1 + |x|^2 / 2 has no single degree; its components run on the sphere.
    f_terms = {(0, 0): 1.0, (2, 0): 0.5, (0, 2): 0.5}
    problem = SublevelProblem(2, MultiPoly(2, f_terms), cli.FIG1_QUARTIC)
    target = duality.dual_integral(problem, 0.7, QuadratureSpec()).value
    doc = {
        "dim": 2,
        "f": {"dim": 2, "terms": [{"coef": c, "exps": list(e)} for e, c in f_terms.items()]},
        "g": cli.FIG1_QUARTIC.to_json_dict(),
        "y": 1.0,
    }
    path = write_problem(tmp_path / "fig1.json", doc)
    proc = run_cli("find-lambda", "--input", path, "--target", repr(target))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["lambda"] == pytest.approx(0.7, rel=1e-8)


def test_integrate_four_dim_quartic_runs_on_the_sphere(tmp_path):
    terms = [([4, 0, 0, 0], 1.0), ([0, 4, 0, 0], 1.5), ([0, 0, 4, 0], 2.0), ([0, 0, 0, 4], 2.5)]
    doc = {
        "dim": 4,
        "f": {"dim": 4, "terms": [{"coef": 1.0, "exps": [0, 0, 0, 0]}]},
        "g": {"dim": 4, "terms": [{"coef": c, "exps": e} for e, c in terms]},
        "y": 1.0,
        "quadrature": {"nodes_per_axis": 16, "sample_count": 400_000},
    }
    path = write_problem(tmp_path / "quartic4.json", doc)
    proc = run_cli("integrate", "--input", path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["certificates"][0]["method"] == "dual-cubature"
    assert abs(out["v_dual"] - out["v_direct_mc"]) <= 3.0 * out["mc_std_error"]


def test_find_lambda_bracket_error_exits_3(tmp_path):
    path = write_problem(tmp_path / "disc.json", DISC)
    proc = run_cli("find-lambda", "--input", path, "--target", "1e9")
    assert proc.returncode == 3
    assert "bracket" in proc.stderr or "between" in proc.stderr


def test_mvt_interval(tmp_path):
    doc = {
        "dim": 1,
        "f": {"dim": 1, "terms": [{"coef": 1.0, "exps": [2]}]},
        "g": {"dim": 1, "terms": [{"coef": 1.0, "exps": [2]}]},
        "y": 1.0,
        "quadrature": {},
    }
    path = write_problem(tmp_path / "mvt.json", doc)
    proc = run_cli("mvt", "--input", path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert abs(out["point"][0]) == pytest.approx(3.0**-0.5, abs=1e-6)
    assert out["residual"] <= 1e-6


def test_bench_fig1_small(tmp_path):
    proc = run_cli("bench-fig1", "--variant", "quartic", "--samples", "200000", "--seed", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lambda_1"] == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert doc["rel_diff_dual_vs_mc"] <= 0.02
    assert "timing" in proc.stderr


def test_seed_flag_controls_randomness(tmp_path):
    path = write_problem(tmp_path / "disc.json", DISC)
    a = run_cli("integrate", "--input", path, "--seed", "11")
    b = run_cli("integrate", "--input", path, "--seed", "11")
    c = run_cli("integrate", "--input", path, "--seed", "12")
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["v_direct_mc"] != json.loads(c.stdout)["v_direct_mc"]


CERT_KEYS = ["y", "lambda_y", "v_value", "method", "error_estimate"]
CERT_CSV = ",".join(CERT_KEYS)
SWEEP_KEYS = [
    "y", "lambda_y", "v_dual", "v_direct_mc", "v_direct_boxindicator",
    "rel_diff_dual_vs_mc", "method", "seed",
]
LAPLACE_KEYS = ["lambda", "lhs", "rhs", "rel_diff"]
DIRECT_KEYS = ["v_direct_mc", "mc_std_error", "v_direct_boxindicator"]
FIG1_KEYS = [
    "variant", "y", "lambda_1", "v_dual", "v_mc", "mc_std_error", "v_boxindicator",
    "rel_diff_dual_vs_mc", "boxindicator_rel_err_vs_mc", "seed", "samples", "nodes_per_axis",
]

SMALL = {"sample_count": 2000}
SMALL_DISC = dict(DISC, quadrature=SMALL)
SMALL_SIMPLEX = dict(SIMPLEX, quadrature=SMALL)
SMALL_SIMPLEX_4D = dict(SMALL_SIMPLEX, y=2.0, alpha_terms=[
    {"coef": 1.0, "alpha": [-0.5, 0.0, -0.5, 0.0]}, {"coef": 0.5, "alpha": [0.0, 0.0, 0.0, 0.0]},
])
# f = 1 + x1^3 x2 + x1^4 over x1^4 + x2^4: f has two pieces, and the direct
# estimates form odd and even powers of negative coordinates through |x|.
SMALL_MIXED_QUARTIC = dict(SMALL_DISC, g=X40["g"], f={"dim": 2, "terms": [
    {"coef": 1.0, "exps": [0, 0]}, {"coef": 1.0, "exps": [3, 1]}, {"coef": 1.0, "exps": [4, 0]},
]})

# case -> (problem file or None, argv, JSON key shape, CSV header)
SHAPES = {
    "integrate-poly": (
        SMALL_DISC, ["integrate"],
        ["mode", "y", "v_dual", ("certificates", [CERT_KEYS]), "v_closed_form", *DIRECT_KEYS,
         "rel_diff_dual_vs_mc", "seed"],
        CERT_CSV,
    ),
    "integrate-poly-two-pieces": (
        SMALL_MIXED_QUARTIC, ["integrate"],
        ["mode", "y", "v_dual", ("certificates", [CERT_KEYS]), *DIRECT_KEYS, "rel_diff_dual_vs_mc", "seed"],
        CERT_CSV,
    ),
    "integrate-tau": (
        dict(SMALL_DISC, tau=-1.0,
             f={"dim": 2, "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": -1.0, "exps": [0, 0]}]}),
        ["integrate"],
        ["mode", "y", "v_dual", ("certificates", [CERT_KEYS]),
         ("tau_decomposition", ["tau", "volume", "shifted_integral", "v_from_tau_shift"]),
         *DIRECT_KEYS, "rel_diff_dual_vs_mc", "seed"],
        CERT_CSV,
    ),
    "integrate-simplex": (
        SMALL_SIMPLEX, ["integrate"],
        ["mode", "y", "v", "method", ("terms", [["alpha", "coef", "lambda_y", "v_term"]]),
         *DIRECT_KEYS, "rel_diff_closed_vs_mc", "seed"],
        CERT_CSV,
    ),
    "integrate-simplex-4d-two-terms": (
        SMALL_SIMPLEX_4D, ["integrate"],
        ["mode", "y", "v", "method", ("terms", [["alpha", "coef", "lambda_y", "v_term"]]),
         *DIRECT_KEYS, "rel_diff_closed_vs_mc", "seed"],
        CERT_CSV,
    ),
    "sweep-poly": (
        dict(SMALL_DISC, y=None, y_grid=[0.5, 1.0]), ["sweep"], [SWEEP_KEYS], ",".join(SWEEP_KEYS)
    ),
    "sweep-simplex": (SMALL_SIMPLEX, ["sweep"], [SWEEP_KEYS], ",".join(SWEEP_KEYS)),
    "laplace-check-poly": (
        SMALL_DISC, ["laplace-check", "--lambdas", "1,2"], [LAPLACE_KEYS], ",".join(LAPLACE_KEYS)
    ),
    "laplace-check-simplex": (
        SMALL_SIMPLEX, ["laplace-check", "--lambdas", "1"], [LAPLACE_KEYS], ",".join(LAPLACE_KEYS)
    ),
    "mvt": (
        SMALL_DISC, ["mvt"],
        ["point", "f_at_point", "target_mean", "residual", "attempts", "seed"],
        "x1,x2,f_at_point,target_mean,residual,attempts",
    ),
    "find-lambda": (
        SMALL_DISC, ["find-lambda", "--target", "3.0"],
        ["lambda", "phi", "target", "rel_residual", ("certificate", CERT_KEYS)],
        CERT_CSV,
    ),
    "bench-fig1": (
        None, ["bench-fig1", "--samples", "2000", "--nodes", "16", "--rel-tol", "1e-6"],
        FIG1_KEYS,
        ",".join(["y"] + [k for k in FIG1_KEYS if k != "y"]),
    ),
}


def _shape(doc):
    """Key order of a JSON document; a list of objects shows as the shape of its first."""
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return [_shape(doc[0])]
    if isinstance(doc, dict):
        return [k if _shape(v) is None else (k, _shape(v)) for k, v in doc.items()]
    return None


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(SHAPES))
def test_output_shape(case, output, tmp_path, capsys):
    problem, argv, json_shape, csv_header = SHAPES[case]
    if problem is not None:
        problem = {k: v for k, v in problem.items() if v is not None}
        argv = [argv[0], "--input", write_problem(tmp_path / "p.json", problem), *argv[1:]]
    assert main([*argv, "--output", output]) == 0
    out = capsys.readouterr().out
    if output == "json":
        assert _shape(json.loads(out)) == json_shape
    else:
        lines = out.split("\n")
        assert lines[0] == csv_header
        assert lines[-1] == "" and len(lines) > 2
        assert all(line.count(",") == csv_header.count(",") for line in lines[1:-1])


def test_closed_form_certificate_bounds_a_cancelling_component(tmp_path):
    # x1 * x2 integrates to 0 over the symmetric quartic star, so the
    # closed form is rounding noise; its error must be on the scale of the
    # base integral's error, not of |v| * rel_tol.
    quartic = {
        "dim": 2,
        "terms": [
            {"coef": 1.0, "exps": [4, 0]},
            {"coef": 1.0, "exps": [0, 4]},
            {"coef": -1.925, "exps": [2, 2]},
        ],
    }
    doc = dict(DISC, f={"dim": 2, "terms": [{"coef": 1.0, "exps": [1, 1]}]}, g=quartic,
               quadrature={"sample_count": 2000})
    proc = run_cli("integrate", "--input", write_problem(tmp_path / "xy.json", doc))
    assert proc.returncode == 0
    certs = json.loads(proc.stdout)["certificates"]
    closed = [c for c in certs if c["method"] == "closed-form-homogeneous"]
    assert len(closed) == 1
    assert closed[0]["error_estimate"] >= abs(closed[0]["v_value"])


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counting)
    path = write_problem(tmp_path / "disc.json", DISC)
    for _ in range(2):
        assert main(["find-lambda", "--input", path, "--target", "3.0"]) == 0
    assert len(built) == 1


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [["--help"], ["find-lambda", "--help"], ["integrate", "--bogus"],
                                  ["find-lambda", "--input", "p.json"], ["nope"]])
def test_the_kept_parser_prints_what_a_fresh_one_does(argv, tmp_path, capsys):
    path = write_problem(tmp_path / "disc.json", DISC)
    assert main(["find-lambda", "--input", path, "--target", "3.0"]) == 0
    capsys.readouterr()
    fresh = _exit_of(cli.build_parser().parse_args, argv, capsys)
    assert fresh[0] in (0, 2) and fresh[1] + fresh[2]
    for _ in range(2):
        assert _exit_of(main, argv, capsys) == fresh


def test_import_loads_no_optional_module_and_builds_no_parser():
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import lapdual, lapdual.cli\n"
        "print(len(built), sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] in ('scipy', 'mpmath', 'perfbench')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
