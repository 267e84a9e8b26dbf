"""Self-tests of the benchmark: generators, oracles, tracer, contract."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import oracles, tracer, workloads  # noqa: E402
from perfbench.run import Context, run_op, tail_percentile  # noqa: E402

mpmath.mp.dps = 30


def _blocks_repr(seed):
    return repr([[(op.index, op.kind, op.params) for op in w.block(seed, b)]
                 for w in workloads.WORKLOADS.values() for b in (0, 3)])


def test_generator_is_a_pure_function_of_the_seed():
    assert _blocks_repr(7) == _blocks_repr(7)
    assert _blocks_repr(7) != _blocks_repr(8)
    # A fresh interpreter with another string-hash seed makes the same ops.
    code = f"import sys; sys.path[:0] = [{str(ROOT)!r}]; from perfbench.tests.test_perfbench import _blocks_repr; print(_blocks_repr(7))"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == _blocks_repr(7)


def test_blocks_have_the_template_composition():
    for w in workloads.WORKLOADS.values():
        for b in (0, 1):
            ops = w.block(3, b)
            assert sorted(op.kind for op in ops) == sorted(w.template)
            assert [op.index for op in ops] == list(range(b * w.block_size, (b + 1) * w.block_size))


def _mp_circle(f_terms, g_terms, p):
    def integrand(t):
        x, y = mpmath.cos(t), mpmath.sin(t)
        ev = lambda terms: sum(c * x ** e[0] * y ** e[1] for c, e in terms)  # noqa: E731
        return ev(f_terms) * ev(g_terms) ** (-p)

    return mpmath.quad(integrand, mpmath.linspace(0, 2 * mpmath.pi, 9))


@pytest.mark.parametrize("family,c,k", [("quartic", -1.9, 2), ("quartic", 3.0, 4), ("sextic", -1.7, 0), ("sextic", 0.5, 4)])
def test_polar_oracle_matches_mpmath(family, c, k):
    g_terms, d_g = workloads.fig1_g(family, c)
    f_k = {0: [(1.3, (0, 0))], 2: [(0.7, (2, 0)), (1.1, (0, 2))], 4: [(0.5, (4, 0)), (1.5, (2, 2)), (0.9, (0, 4))]}[k]
    y = 0.37
    p = mpmath.mpf(2 + k) / d_g
    ref = mpmath.mpf(y) ** p / (2 + k) * _mp_circle(f_k, g_terms, p)
    assert oracles.polar_component(f_k, k, g_terms, d_g, y) == pytest.approx(float(ref), rel=1e-13)


def test_separable_oracle_matches_mpmath():
    a, y = (0.6, 1.7, 1.1), 2.5
    f_k = [(0.8, (2, 0, 0)), (-1.2, (0, 2, 0)), (0.4, (0, 0, 2))]
    k, p = 2, mpmath.mpf(5) / 4

    def factor(e, a_i):
        return mpmath.quad(lambda x: x ** e * mpmath.exp(-a_i * x ** 4), [-mpmath.inf, 0, mpmath.inf])

    base = sum(c * factor(e[0], a[0]) * factor(e[1], a[1]) * factor(e[2], a[2]) for c, e in f_k)
    ref = mpmath.mpf(y) ** p * base / mpmath.gamma(1 + p)
    assert oracles.separable_quartic_component(f_k, k, a, y) == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_radial_oracle_matches_mpmath_and_erfc(lam):
    a, b, f = 0.8, 1.6, (1.2, 0.5)
    ref = mpmath.pi * mpmath.quad(lambda s: (f[0] + f[1] * s) * mpmath.exp(-lam * (a * s + b * s * s)), [0, 1, mpmath.inf])
    assert oracles.radial_phi(f, (a, b), lam) == pytest.approx(float(ref), rel=1e-13)
    # f = 1: pi e^(lam a^2 / 4b) / 2 sqrt(pi / (lam b)) erfc(a sqrt(lam / b) / 2)
    closed = math.pi * math.exp(lam * a * a / (4 * b)) * 0.5 * math.sqrt(math.pi / (lam * b)) * math.erfc(a * math.sqrt(lam / b) / 2)
    assert oracles.radial_phi((1.0,), (a, b), lam) == pytest.approx(closed, rel=1e-13)


def test_ellipse_closed_form_matches_polar_oracle_and_mpmath():
    Q, c0, quad, y = (1.3, 0.7, 0.4), 1.1, (-0.6, 0.9, 0.3), 1.9
    v0, v2 = oracles.ellipse_components(c0, quad, Q, y)
    g_terms = [(Q[0], (2, 0)), (Q[1], (0, 2)), (Q[2], (1, 1))]
    f2 = [(quad[0], (2, 0)), (quad[1], (0, 2)), (quad[2], (1, 1))]
    assert v0 == pytest.approx(oracles.polar_component([(c0, (0, 0))], 0, g_terms, 2, y), rel=1e-13)
    assert v2 == pytest.approx(oracles.polar_component(f2, 2, g_terms, 2, y), rel=1e-13)
    ref2 = mpmath.mpf(y) ** 2 / 4 * _mp_circle(f2, g_terms, 2)
    assert v2 == pytest.approx(float(ref2), rel=1e-13)


def test_simplex_closed_form_matches_mpmath():
    alpha, y = (0.7, 1.9), 1.6
    direct = mpmath.quad(lambda u: mpmath.quad(lambda v: u ** alpha[0] * v ** alpha[1], [0, y - u]), [0, y])
    assert oracles.simplex_monomial(alpha, y) == pytest.approx(float(direct), rel=1e-12)
    alpha3 = (0.3, 2.2, 1.4)
    p = 3 + sum(alpha3)
    ref = mpmath.mpf(y) ** p * mpmath.fprod(mpmath.gamma(1 + a) for a in alpha3) / mpmath.gamma(1 + p)
    assert oracles.simplex_monomial(alpha3, y) == pytest.approx(float(ref), rel=1e-13)


def test_dual_lambda_and_sphere_minimum():
    order, y = 1.75, 0.3
    assert oracles.dual_lambda(order, y) == pytest.approx(float(mpmath.gamma(1 + order) ** (1 / order) / y), rel=1e-14)
    theta = [2 * math.pi * i / 100000 for i in range(100000)]
    for family, c in (("quartic", -1.93), ("quartic", 4.0), ("sextic", -1.5), ("sextic", 1.2)):
        g_terms, _ = workloads.fig1_g(family, c)
        sampled = min(oracles.poly_eval(g_terms, [[math.cos(t), math.sin(t)] for t in theta]))
        assert oracles.fig1_sphere_min(family, c) == pytest.approx(sampled, rel=1e-8)


def _first_cheap(w):
    return next(op for op in w.block(5, 0) if op.kind in ("quartic-easy", "radial", "integrate", "sweep"))


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    ctx = Context(tmp_path, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    ops = [(w, _first_cheap(w)) for w in workloads.WORKLOADS.values()]
    plain = [run_op(w, op, ctx) for w, op in ops]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [run_op(w, op, ctx, t) for w, op in ops]
    finally:
        t.uninstall()
    for a, b in zip(plain, traced):
        assert a.ok and b.ok, (a.reason, b.reason)
        assert a.digest == b.digest
    import lapdual
    import lapdual.cli

    assert not hasattr(lapdual.v_polynomial, "__wrapped__")
    assert not hasattr(lapdual.cli.main, "__wrapped__")
    spans = t.spans
    names = {s[0] for s in spans}
    assert {"polyalg", "cubature.box", "duality.dual_integral", "cubature.mc", "rng", "duality.find_lambda",
            "cli", "problemfile", "cubature.gauss"} <= names
    # duality binds integrate_box by name: its calls must be seen too.
    assert any(s[0] == "cubature.box" and tracer._has_ancestor(spans, i, "duality.dual_integral")
               for i, s in enumerate(spans))

    # Self times are non-negative and children lie inside their parent.
    selfs = tracer.self_times(spans)
    children = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            children[parent] = children.get(parent, 0.0) + (end - start)
    assert min(selfs) >= -1e-9
    assert all(total <= spans[p][2] - spans[p][1] + 1e-9 for p, total in children.items())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = set(tracer.layer_metrics([])) | {"trace.solves_per_s_traced", "trace.solves_per_s_untraced", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "solve_s.p50", "solve_s.tail", "solves_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert [tail_percentile(n) for n in (20, 40, 99, 100, 200, 1000)] == [50, 75, 75, 90, 95, 99]


def test_run_refuses_without_lapdual_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
