"""Spans around lapdual's public functions, recorded from outside the package.

``Tracer.install()`` replaces each traced function in every lapdual
module namespace that binds it (``duality`` imports ``integrate_box``
from ``cubature``, so patching ``lapdual.cubature`` alone would miss
those callers) and ``MultiPoly.__call__`` on the class; ``uninstall()``
puts the originals back.  A span is (name, start, end, parent, op id,
attrs); spans stay in memory until the run ends.  The program runs in
one thread, so the open spans form a stack and a span's children never
overlap each other.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# Each table row: (module, attribute, span name, attrs hook).  A hook
# receives (args, kwargs, result) and returns a dict, or None.


def _points(args, kwargs, result):
    return {"points": 1 if isinstance(result, float) else int(result.size), "terms": len(args[0].terms)}


def _draws(args, kwargs, result):
    return {"draws": int(result.size)}


def _effort(args, kwargs, result):
    return {"evals": int(result.effort)}


def _mc(args, kwargs, result):
    # monte_carlo_sublevel(f, g, dim, y, enclosing_radius, spec)
    return {"samples": int(result.effort), "dim": args[2], "y": float(args[3]), "radius": float(args[4])}


def _attempts(args, kwargs, result):
    return {"attempts": int(result.attempts)}


def _command(args, kwargs, result):
    return {"command": args[0][0]}


_TABLE = (
    ("lapdual.rng", "uniforms", "rng", _draws),
    ("lapdual.rng", "uniforms_open", "rng", _draws),
    ("lapdual.rng", "standard_normals", "rng", _draws),
    ("lapdual.cubature", "integrate_box", "cubature.box", _effort),
    ("lapdual.cubature", "integrate_gaussian_quadratic", "cubature.gauss", _effort),
    ("lapdual.cubature", "monte_carlo_sublevel", "cubature.mc", _mc),
    ("lapdual.cubature", "auto_enclosing_radius", "cubature.mc", None),
    ("lapdual.cubature", "sphere_minimum", "cubature.sphere_min", None),
    ("lapdual.duality", "dual_integral", "duality.dual_integral", None),
    ("lapdual.duality", "find_lambda_for_target", "duality.find_lambda", None),
    ("lapdual.mvt", "mean_value_point", "mvt", _attempts),
    ("lapdual.simplex", "simplex_monomial_v", "simplex", None),
    ("lapdual.simplex", "simplex_laplace_of_v", "simplex", None),
    ("lapdual.simplex", "multivariate_laplace_monomial", "simplex", None),
    ("lapdual.simplex", "generalized_polynomial_v", "simplex", None),
    ("lapdual.simplex", "simplex_gauge", "simplex", None),
    ("lapdual.special", "gamma", "special", None),
    ("lapdual.special", "log_gamma", "special", None),
    ("lapdual.problemfile", "load_problem_file", "problemfile", None),
    ("lapdual.problemfile", "parse_problem", "problemfile", None),
    ("lapdual.cli", "main", "cli", _command),
)


class Tracer:
    """Records spans while installed; ``op`` tags new spans with the current op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self.spans[idx][5] = attrs

    def span(self, name, fn, hook=None):
        """``fn`` wrapped so each call records one span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, {"error": type(exc).__name__})
                raise
            tracer._close(idx, hook(args, kwargs, result) if hook else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrappers(self) -> dict:
        import lapdual.cubature as cubature
        import lapdual.duality as duality
        import lapdual.simplex as simplex

        wrappers = {}
        for module, attr, name, hook in _TABLE:
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self.span(name, fn, hook))

        def rule(fn, cached):
            # A cold build is a miss in the rule's lru_cache during this call.
            def traced(n):
                misses = cached.cache_info().misses
                idx = self._open("cubature.rule")
                try:
                    return fn(n)
                finally:
                    self._close(idx, {"cold": cached.cache_info().misses - misses})

            return traced

        for fn, cached in (
            (cubature.gauss_legendre_rule, cubature._legendre_rule),
            (cubature.gauss_hermite_rule, cubature._hermite_rule),
        ):
            wrappers[id(fn)] = (fn, rule(fn, cached))

        quad = duality.laplace_transform_by_quadrature

        def laplace_quad(v_fn, lam, **kwargs):
            evals = 0

            def counted(y):
                nonlocal evals
                evals += 1
                return v_fn(y)

            idx = self._open("duality.laplace_quad")
            try:
                return quad(counted, lam, **kwargs)
            finally:
                self._close(idx, {"v_evals": evals})

        wrappers[id(quad)] = (quad, laplace_quad)

        orthant = simplex.orthant_monomial_evaluator

        def orthant_evaluator(alpha):
            return self.span("simplex", orthant(alpha))

        wrappers[id(orthant)] = (orthant, self.span("simplex", orthant_evaluator))
        return wrappers

    def install(self) -> None:
        """Patch every lapdual namespace; idempotent only after uninstall()."""
        from lapdual.polyalg import MultiPoly

        wrappers = self._wrappers()
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lapdual" or mod_name.startswith("lapdual.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))
        call = MultiPoly.__call__
        MultiPoly.__call__ = self.span("polyalg", call, _points)
        self._patched.append((MultiPoly, "__call__", call))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


CLI_COMMANDS = ("integrate", "sweep", "laplace-check", "mvt", "find-lambda")


def layer_metrics(spans, volumes=None, import_s=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit).

    ``volumes`` maps (op, y) to the reference volume of K_y for the
    box-fill ratio; ``import_s`` is the time a fresh interpreter takes
    to import lapdual.cli.
    """
    volumes = volumes or {}
    cli_wall = defaultdict(list)
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    attr = defaultdict(float)
    fills = []
    effort_errors = 0
    phi_in_roots = 0
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        if not _has_ancestor(spans, i, name):
            busy[name] += end - start
        attrs = attrs or {}
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and key not in ("y", "radius", "dim"):
                attr[name, key] += value
        if name == "polyalg":
            attr[name, "term_points"] += attrs.get("points", 0) * attrs.get("terms", 0)
        elif name == "cubature.box" and attrs.get("error") == "EffortError":
            effort_errors += 1
        elif name == "cubature.mc" and "samples" in attrs and (op, attrs["y"]) in volumes:
            fills.append(volumes[op, attrs["y"]] / (2.0 * attrs["radius"]) ** attrs["dim"])
        elif name == "duality.dual_integral" and _has_ancestor(spans, i, "duality.find_lambda"):
            phi_in_roots += 1
        elif name == "cli" and "command" in attrs:
            cli_wall[attrs["command"]].append(end - start)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {
        "polyalg.points": (attr["polyalg", "points"], "count"),
        "polyalg.term_points": (attr["polyalg", "term_points"], "count"),
        "polyalg.busy_s": (busy["polyalg"], "s"),
        "polyalg.ns_per_term_point": (per(busy["polyalg"], attr["polyalg", "term_points"], 1e9), "ns"),
        "rng.draws": (attr["rng", "draws"], "count"),
        "rng.busy_s": (busy["rng"], "s"),
        "rng.ns_per_draw": (per(busy["rng"], attr["rng", "draws"], 1e9), "ns"),
        "cubature.rule.calls": (calls["cubature.rule"], "count"),
        "cubature.rule.cold_builds": (attr["cubature.rule", "cold"], "count"),
        "cubature.rule.busy_s": (busy["cubature.rule"], "s"),
        "cubature.box.calls": (calls["cubature.box"], "count"),
        "cubature.box.evals": (attr["cubature.box", "evals"], "count"),
        "cubature.box.evals_per_call": (per(attr["cubature.box", "evals"], calls["cubature.box"]), "count"),
        "cubature.box.self_s": (own["cubature.box"], "s"),
        "cubature.box.effort_errors": (effort_errors, "count"),
        "cubature.gauss.calls": (calls["cubature.gauss"], "count"),
        "cubature.gauss.evals": (attr["cubature.gauss", "evals"], "count"),
        "cubature.gauss.self_s": (own["cubature.gauss"], "s"),
        "cubature.mc.samples": (attr["cubature.mc", "samples"], "count"),
        "cubature.mc.self_s": (own["cubature.mc"], "s"),
        "cubature.mc.box_fill_frac": (statistics.fmean(fills) if fills else 0.0, "frac"),
        "cubature.sphere_min.calls": (calls["cubature.sphere_min"], "count"),
        "cubature.sphere_min.busy_s": (busy["cubature.sphere_min"], "s"),
        "duality.dual_integral.calls": (calls["duality.dual_integral"], "count"),
        "duality.dual_integral.self_s": (own["duality.dual_integral"], "s"),
        "duality.find_lambda.phi_evals_per_root": (per(phi_in_roots, calls["duality.find_lambda"]), "count"),
        "duality.laplace_quad.v_evals": (attr["duality.laplace_quad", "v_evals"], "count"),
        "mvt.calls": (calls["mvt"], "count"),
        "mvt.attempts": (attr["mvt", "attempts"], "count"),
        "mvt.busy_s": (busy["mvt"], "s"),
        "simplex.calls": (calls["simplex"], "count"),
        "special.calls": (calls["special"], "count"),
        "simplex.busy_s": (busy["simplex"], "s"),
        "problemfile.busy_s": (busy["problemfile"], "s"),
        "cli.import_s": (import_s or 0.0, "s"),
    }
    for command in CLI_COMMANDS:
        walls = cli_wall[command]
        m[f"cli.{command}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    return m
