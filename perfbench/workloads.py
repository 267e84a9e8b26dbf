"""The four benchmark workloads: seeded generators, calls and checks.

A workload is a sequence of blocks.  Block ``b`` of seed ``s`` is a pure
function of (workload, s, b), and every block has the same composition
(the same number of ops from each stratum), so the share of each varied
property is exact in every run.  Parameters inside a stratum are
stratified-random (one draw per equal-width cell), which keeps a
block's cost nearly independent of the seed.

Library workloads call lapdual through ``import lapdual`` attribute
lookups at call time, so a tracer that patches the package sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

from . import oracles


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    params: dict


@dataclass
class Outcome:
    """Check result of one op.  ``certs`` holds (claimed, observed) errors."""

    ok: bool
    reason: str = ""
    certs: list = field(default_factory=list)


def digest_floats(values) -> str:
    return hashlib.sha256("|".join(float(v).hex() for v in values).encode()).hexdigest()


def _rel_err(value, ref, scale=None):
    return abs(value - ref) / (abs(ref) if scale is None else scale)


def _stratified(rng, lo, hi, m):
    """m values, one uniform draw in each of m equal cells of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (j + rng.random()) / m for j in range(m)]
    rng.shuffle(values)
    return values


def _lapdual():
    import lapdual

    return lapdual


def _multipoly(dim, terms):
    return _lapdual().MultiPoly(dim, [(exps, coef) for coef, exps in terms])


# ---------------------------------------------------------------- fig1 family

# c ranges per stratum.  Inside each range every component takes the
# same box passes (86k, 348k or 1.4M evaluations per component for easy,
# mid and heavy), so an op's cost hardly depends on where c falls.  The
# sextic is only bounded for |c| < 2 and gets hard again as c -> 2.
_C_RANGES = {
    "quartic-easy": (-1.5, 6.0),
    "sextic-easy": (-1.2, 1.2),
    "quartic-mid": (-1.85, -1.7),
    "sextic-mid": (-1.85, -1.65),
    "quartic-heavy": (-1.95, -1.92),
    "sextic-heavy": (-1.95, -1.92),
}
_MIXED_SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def fig1_g(family, c):
    if family == "quartic":
        return [(1.0, (4, 0)), (1.0, (0, 4)), (c, (2, 2))], 4
    return [(1.0, (6, 0)), (1.0, (0, 6)), (c, (3, 3))], 6


def _mixed_f(rng):
    """Degree-4 f with components k = 0, 2, 4 of mixed signs.

    Every monomial is even in each variable and each component's terms
    share one sign, so no component integrates to (nearly) zero.
    """
    s0, s2, s4 = rng.choice(_MIXED_SIGNS)
    w = [rng.uniform(0.5, 2.0) for _ in range(6)]
    return [
        (s0 * w[0], (0, 0)),
        (s2 * w[1], (2, 0)), (s2 * w[2], (0, 2)),
        (s4 * w[3], (4, 0)), (s4 * w[4], (2, 2)), (s4 * w[5], (0, 4)),
    ]


def _fig1_block(rng, kinds, start):
    """Ops for a block whose kinds are fig1 strata; y spans 1e-3 .. 1e3."""
    c_values = {k: iter(_stratified(rng, *_C_RANGES[k], kinds.count(k))) for k in sorted(set(kinds)) if k in _C_RANGES}
    log_y = _stratified(rng, -3.0, 3.0, len(kinds))
    ops = []
    for i, kind in enumerate(kinds):
        params = {"y": 10.0 ** log_y[i]}
        if kind == "sep3":
            params["a"] = [math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for _ in range(3)]
            sign = rng.choice((1, -1))
            params["f"] = [(sign * rng.uniform(0.5, 2.0), e) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
        else:
            params["family"] = kind.split("-")[0]
            params["c"] = next(c_values[kind])
            params["f"] = _mixed_f(rng)
        ops.append(Op(start + i, kind, params))
    return ops


def _fig1_problem(params):
    if "a" in params:
        a = params["a"]
        g_terms, d_g, dim = [(a[0], (4, 0, 0)), (a[1], (0, 4, 0)), (a[2], (0, 0, 4))], 4, 3
    else:
        (g_terms, d_g), dim = fig1_g(params["family"], params["c"]), 2
    return dim, g_terms, d_g


def fig1_components(params, f_terms=None) -> dict[int, float]:
    """Reference v_k(y) per homogeneous component of f."""
    dim, g_terms, d_g = _fig1_problem(params)
    refs = {}
    for k, f_k in oracles.homogeneous_components(f_terms or params["f"]).items():
        if dim == 3:
            refs[k] = oracles.separable_quartic_component(f_k, k, params["a"], params["y"])
        else:
            refs[k] = oracles.polar_component(f_k, k, g_terms, d_g, params["y"])
    return refs


class Workload:
    name = ""
    block_size = 0
    min_blocks = 1
    # Shared hosts slow everything down by up to 1.6x for tens of seconds.
    # With passes = 2 each op runs again half a run later and keeps the
    # faster time.  dual-homog keeps 1: one block of its distinct problems
    # fills the run.
    passes = 1
    template: tuple = ()
    about = ""  # input size and the share of each varied property

    def block(self, seed: int, b: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{b}")
        kinds = list(self.template)
        rest = kinds[1:]
        rng.shuffle(rest)
        return self._ops(rng, [kinds[0]] + rest, b * self.block_size)

    def warm(self) -> None:
        """Fill lapdual's rule caches for the sizes this workload reaches."""

    def volumes(self, op) -> dict[float, float]:
        """Reference vol(K_y) for each y the op's Monte Carlo calls use."""
        return {}


class DualHomog(Workload):
    name = "dual-homog"
    block_size = 40
    # Sorted by cost the strata fall in this order, and the sizes put the
    # median (position 19.5 of 40) inside sextic-easy and p75 (29.25)
    # inside sextic-mid rather than on a boundary between strata.
    template = (
        ("quartic-easy",) * 13 + ("sextic-easy",) * 12
        + ("quartic-mid",) * 3 + ("sextic-mid",) * 7
        + ("quartic-heavy",) * 2 + ("sextic-heavy",) * 2 + ("sep3",)
    )
    rel_tol = 1e-9
    value_tol = 1e-7
    about = ("default spec (64 nodes/axis, rel_tol 1e-9), value tolerance 1e-7; "
             "shares c<=-1.9 4/40, d=3 1/40, vanishing components 0/40")

    def _ops(self, rng, kinds, start):
        return _fig1_block(rng, kinds, start)

    def warm(self):
        lapdual = _lapdual()
        for n in (64, 128, 256, 512, 1024):
            lapdual.gauss_legendre_rule(n)

    def call(self, op, ctx=None):
        lapdual = _lapdual()
        dim, g_terms, _ = _fig1_problem(op.params)
        problem = lapdual.SublevelProblem(dim, _multipoly(dim, op.params["f"]), _multipoly(dim, g_terms))
        return lapdual.v_polynomial(problem, op.params["y"], lapdual.QuadratureSpec(rel_tol=self.rel_tol))

    def digest(self, result):
        value, certs = result
        return digest_floats([value] + [x for c in certs for x in (c.y, c.lambda_y, c.v_value, c.error_estimate)])

    def check(self, op, result):
        value, certs = result
        refs = fig1_components(op.params)
        dim, _, d_g = _fig1_problem(op.params)
        y = op.params["y"]
        if len(certs) != len(refs):
            return Outcome(False, f"{len(certs)} certificates for {len(refs)} components")
        out = Outcome(True)
        for cert, (k, ref) in zip(certs, refs.items()):
            out.certs.append((cert.error_estimate, abs(cert.v_value - ref)))
            if _rel_err(cert.lambda_y, oracles.dual_lambda((dim + k) / d_g, y)) > 1e-12:
                return Outcome(False, f"lambda_y of component {k} is off", out.certs)
            if _rel_err(cert.v_value, ref) > self.value_tol:
                return Outcome(False, f"component {k}: {cert.v_value!r} vs reference {ref!r}", out.certs)
        scale = sum(abs(r) for r in refs.values())
        if _rel_err(value, sum(refs.values()), scale) > self.value_tol:
            return Outcome(False, f"v = {value!r} vs reference {sum(refs.values())!r}", out.certs)
        return out


def known_defect_probe() -> str:
    """One line on the vanishing-component defect of ``v_polynomial``.

    f = xy over the fig1 quartic (c = -1.925) integrates to zero by
    symmetry but not bit-exactly, and the purely relative convergence
    test in ``integrate_box`` then never passes: EffortError after
    13.9 s at the default spec (7.2 s for f = y^3).  Starting at 16
    nodes per axis reaches the same error in under a second.
    """
    lapdual = _lapdual()
    g_terms, _ = fig1_g("quartic", -1.925)
    problem = lapdual.SublevelProblem(2, _multipoly(2, [(1.0, (1, 1))]), _multipoly(2, g_terms))
    t0 = time.perf_counter()
    try:
        value, _ = lapdual.v_polynomial(problem, 1.0, lapdual.QuadratureSpec(nodes_per_axis=16))
    except lapdual.EffortError:
        return f"known defect present: f=xy over the fig1 quartic raises EffortError after {time.perf_counter() - t0:.2f} s (nodes_per_axis=16)"
    return f"known defect not reproduced: f=xy over the fig1 quartic returned {value!r}"


class DirectMC(Workload):
    name = "direct-mc"
    block_size = 20
    min_blocks = 5
    passes = 2
    # Sextic ops cost more (degree-6 g); 8 quartic to 12 sextic keeps the
    # median and p90 inside the sextic group.
    template = (
        ("quartic-easy",) * 5 + ("sextic-easy",) * 8
        + ("quartic-mid",) * 2 + ("sextic-mid",) * 3
        + ("quartic-heavy", "sextic-heavy")
    )
    samples = 1 << 17
    about = ("2^17 samples, d=2, fail beyond 6 sigma, best of 2 runs per op; "
             "shares c<=-1.9 2/20, d=3 0/20, vanishing components 0/20")

    def _ops(self, rng, kinds, start):
        ops = _fig1_block(rng, kinds, start)
        for op in ops:
            op.params["seed"] = rng.getrandbits(63)
        return ops

    def call(self, op, ctx=None):
        lapdual = _lapdual()
        p = op.params
        g = _multipoly(2, fig1_g(p["family"], p["c"])[0])
        radius = lapdual.auto_enclosing_radius(g, p["y"])
        spec = lapdual.QuadratureSpec(engine=lapdual.ENGINE_MONTE_CARLO, sample_count=self.samples, seed=p["seed"])
        return radius, lapdual.monte_carlo_sublevel(_multipoly(2, p["f"]), g, 2, p["y"], radius, spec)

    def digest(self, result):
        radius, est = result
        return digest_floats([radius, est.value, est.std_error])

    def volumes(self, op):
        p = op.params
        return {p["y"]: fig1_components(p, [(1.0, (0, 0))])[0]}

    def check(self, op, result):
        radius, est = result
        p = op.params
        _, d_g = fig1_g(p["family"], p["c"])
        reach = (p["y"] / oracles.fig1_sphere_min(p["family"], p["c"])) ** (1.0 / d_g)
        if radius < reach:
            return Outcome(False, f"enclosing radius {radius!r} misses K_y, which reaches {reach!r}")
        ref = sum(fig1_components(p).values())
        err = abs(est.value - ref)
        cert = [(3.0 * est.std_error, err)]
        # A 6-sigma miss has probability 2e-9 under a correct engine.
        if not err <= 6.0 * est.std_error:
            return Outcome(False, f"MC {est.value!r} +- {est.std_error!r} vs reference {ref!r}", cert)
        return Outcome(True, certs=cert)


class FindLambda(Workload):
    name = "find-lambda"
    block_size = 10
    min_blocks = 4
    passes = 2
    template = ("radial",) * 10
    bracket = (1e-2, 1e2)
    lam_tol = 2e-5
    # g = a|x|^2 + b|x|^4.  A root's cost depends on lambda * (a, b); with
    # (a, b) fixed, stratifying lambda alone fixes a block's cost.
    g = (1.0, 1.0)
    about = ("g = |x|^2 + |x|^4, f = c0 + c1|x|^2, lambda* in [0.1, 10], 16 nodes/axis, rel_tol 1e-6, "
             "bracket (1e-2, 1e2), lambda tolerance 2e-5, best of 2 runs per op; shares non-homogeneous g 10/10, d=3 0/10")

    def _ops(self, rng, kinds, start):
        log_lam = _stratified(rng, math.log(0.1), math.log(10.0), len(kinds))
        # Op 0, which the set-up probe runs, takes the middle cell, so the
        # set-up cost is the same for every seed.
        middle = sorted(log_lam)[len(log_lam) // 2]
        log_lam.remove(middle)
        log_lam.insert(0, middle)
        n = len(kinds)
        c0, c1 = _stratified(rng, 0.5, 2.0, n), _stratified(rng, 0.0, 1.0, n)
        ops = []
        for i, kind in enumerate(kinds):
            f, lam = [c0[i], c1[i]], math.exp(log_lam[i])
            ops.append(Op(start + i, kind, {"f": f, "lam": lam, "target": oracles.radial_phi(f, self.g, lam)}))
        return ops

    def warm(self):
        lapdual = _lapdual()
        for n in (16, 32, 64, 128, 256):
            lapdual.gauss_legendre_rule(n)

    def call(self, op, ctx=None):
        lapdual = _lapdual()
        p = op.params
        a, b = self.g
        g = _multipoly(2, [(a, (2, 0)), (a, (0, 2)), (b, (4, 0)), (2.0 * b, (2, 2)), (b, (0, 4))])
        f = _multipoly(2, [(p["f"][0], (0, 0)), (p["f"][1], (2, 0)), (p["f"][1], (0, 2))])
        spec = lapdual.QuadratureSpec(nodes_per_axis=16, rel_tol=1e-6)
        return lapdual.find_lambda_for_target(lapdual.SublevelProblem(2, f, g), p["target"], self.bracket, spec)

    def digest(self, result):
        return digest_floats([result])

    def check(self, op, result):
        if _rel_err(result, op.params["lam"]) > self.lam_tol:
            return Outcome(False, f"lambda {result!r} vs seeded {op.params['lam']!r}")
        return Outcome(True)


# ------------------------------------------------------------------- CLI ops


def _poly_doc(terms):
    return {"dim": len(terms[0][1]), "terms": [{"coef": c, "exps": list(e)} for c, e in terms]}


def _ellipse(rng):
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return (a, b, rng.uniform(-0.5, 0.5) * math.sqrt(a * b))


def _quadratic_terms(q):
    return [(q[0], (2, 0)), (q[1], (0, 2)), (q[2], (1, 1))]


class Cli(Workload):
    name = "cli"
    block_size = 7
    min_blocks = 15
    passes = 2
    # By cost: integrate and mvt < find-lambda < laplace-check < 3-D sweep.
    # These counts put the median inside find-lambda and p90 inside the
    # sweeps, not on a boundary between commands.
    template = ("integrate", "mvt", "find-lambda", "find-lambda", "laplace-check", "sweep", "sweep")
    mc_samples = 20000
    box_tol = 0.05  # tensor rule on a discontinuous indicator: about 1e-2 observed
    about = ("lapdual.cli.main in-process, 20000 MC samples, default spec, best of 2 runs per op; "
             "shares find-lambda 2/7, sweep 2/7 (all d=3), integrate, laplace-check, mvt 1/7 each")

    def _ops(self, rng, kinds, start):
        ops = []
        for i, kind in enumerate(kinds):
            p = {"seed": rng.getrandbits(32)}
            if kind in ("integrate", "mvt", "laplace-check"):
                p["Q"] = _ellipse(rng)
                p["y"] = 10.0 ** rng.uniform(-1.0, 1.0)
                p["c0"] = rng.uniform(0.5, 2.0)
                p["quad"] = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
                if kind == "laplace-check":
                    p["k"] = rng.choice((0, 2))
                    p["lambdas"] = sorted(10.0 ** rng.uniform(-0.7, 0.7) for _ in range(3))
            elif kind == "sweep":
                p["alpha"] = [rng.uniform(0.0, 2.5) for _ in range(3)]
                p["coef"] = rng.uniform(0.5, 2.0)
                p["y_grid"] = sorted(10.0 ** rng.uniform(-0.7, 0.7) for _ in range(3))
            else:
                p["a"] = rng.uniform(0.5, 2.0)
                p["w"] = rng.uniform(0.5, 2.0)
                p["y"] = 10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0))
            ops.append(Op(start + i, kind, p))
        return ops

    def _f_terms(self, p):
        terms = [(p["c0"], (0, 0))] + _quadratic_terms(p["quad"])
        if "k" in p:
            terms = terms[:1] if p["k"] == 0 else terms[1:]
        return terms

    def problem_doc(self, op):
        p = op.params
        if op.kind == "sweep":
            return {"simplex": True, "alpha_terms": [{"coef": p["coef"], "alpha": p["alpha"]}],
                    "y_grid": p["y_grid"], "quadrature": {"sample_count": self.mc_samples, "seed": p["seed"]}}
        if op.kind == "find-lambda":
            g = [(p["a"], (2, 0)), (p["a"], (0, 2))]
            return {"dim": 2, "f": _poly_doc([(p["w"], (0, 0))]), "g": _poly_doc(g), "y": p["y"]}
        return {"dim": 2, "f": _poly_doc(self._f_terms(p)), "g": _poly_doc(_quadratic_terms(p["Q"])),
                "y": p["y"], "quadrature": {"sample_count": self.mc_samples, "seed": p["seed"]}}

    def argv(self, op, path):
        p = op.params
        argv = [op.kind, "--input", str(path)]
        if op.kind == "laplace-check":
            argv += ["--lambdas", ",".join(repr(x) for x in p["lambdas"])]
        elif op.kind == "find-lambda":
            argv += ["--target", repr(self._disc_target(p))]
        return argv

    @staticmethod
    def _disc_target(p):
        return math.pi * p["w"] * p["y"] / p["a"]

    def call(self, op, ctx):
        """Run one CLI command in this process; returns (exit code, stdout bytes)."""
        path = ctx.workdir / f"op-{op.index}.json"
        path.write_text(json.dumps(self.problem_doc(op)), encoding="utf-8")
        import lapdual.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lapdual.cli.main(self.argv(op, path))
        return code, out.getvalue().encode("utf-8")

    def digest(self, result):
        return hashlib.sha256(result[1]).hexdigest()

    def volumes(self, op):
        p = op.params
        if op.kind == "integrate":
            return {p["y"]: oracles.ellipse_components(1.0, (0.0, 0.0, 0.0), p["Q"], p["y"])[0]}
        if op.kind == "sweep":
            return {y: oracles.simplex_monomial([0.0] * len(p["alpha"]), y) for y in p["y_grid"]}
        return {}

    def check(self, op, result):
        code, stdout = result
        if code != 0:
            return Outcome(False, f"exit code {code}")
        text = stdout.decode("utf-8")
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(op.params, text)

    def _ellipse_refs(self, p, y):
        return oracles.ellipse_components(p["c0"], p["quad"], p["Q"], y)

    def _check_integrate(self, p, text):
        doc = json.loads(text)
        refs = self._ellipse_refs(p, p["y"])
        total, scale = sum(refs), sum(abs(r) for r in refs)
        certs = doc["certificates"]
        out = Outcome(True, certs=[(c["error_estimate"], abs(c["v_value"] - r)) for c, r in zip(certs, refs)])
        mc_err = abs(doc["v_direct_mc"] - total)
        out.certs.append((3.0 * doc["mc_std_error"], mc_err))
        if len(certs) != 2:
            out.ok, out.reason = False, f"{len(certs)} certificates for 2 components"
        elif any(_rel_err(c["lambda_y"], oracles.dual_lambda((2 + k) / 2, p["y"])) > 1e-12 for c, k in zip(certs, (0, 2))):
            out.ok, out.reason = False, "lambda_y off"
        elif any(_rel_err(c["v_value"], r) > 1e-11 for c, r in zip(certs, refs)):
            out.ok, out.reason = False, "component value off"
        elif _rel_err(doc["v_dual"], total, scale) > 1e-11:
            out.ok, out.reason = False, f"v_dual {doc['v_dual']!r} vs {total!r}"
        elif not mc_err <= 6.0 * doc["mc_std_error"]:
            out.ok, out.reason = False, "Monte Carlo estimate beyond 6 sigma"
        elif _rel_err(doc["v_direct_boxindicator"], total, scale) > self.box_tol:
            out.ok, out.reason = False, "box-indicator estimate off"
        elif doc["seed"] != p["seed"]:
            out.ok, out.reason = False, "seed not echoed"
        return out

    def _check_sweep(self, p, text):
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(p["y_grid"]):
            return Outcome(False, f"{len(rows)} rows for {len(p['y_grid'])} levels")
        alpha, coef, d = p["alpha"], p["coef"], len(p["alpha"])
        for row, y in zip(rows, p["y_grid"]):
            y_out, lam, v_dual, v_mc, v_box = (float(x) for x in row[:5])
            v = coef * oracles.simplex_monomial(alpha, y)
            second = coef * coef * oracles.simplex_monomial([2.0 * a for a in alpha], y)
            sigma = math.sqrt(max(0.0, ((2.0 * y) ** d * second - v * v) / self.mc_samples))
            if y_out != y or row[6] != "closed-form":
                return Outcome(False, "row does not echo its level or method")
            if _rel_err(lam, oracles.dual_lambda(d + math.fsum(alpha), y)) > 1e-12:
                return Outcome(False, "lambda_y off")
            if _rel_err(v_dual, v) > 1e-12:
                return Outcome(False, f"closed form {v_dual!r} vs {v!r}")
            if not abs(v_mc - v) <= 6.0 * sigma:
                return Outcome(False, "Monte Carlo estimate beyond 6 sigma")
            if _rel_err(v_box, v) > self.box_tol:
                return Outcome(False, "box-indicator estimate off")
        return Outcome(True)

    def _check_laplace_check(self, p, text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if len(rows) != len(p["lambdas"]):
            return Outcome(False, f"{len(rows)} rows for {len(p['lambdas'])} arguments")
        order = (2 + p["k"]) / 2
        v_one = self._ellipse_refs(p, 1.0)[p["k"] // 2]
        for row, lam in zip(rows, p["lambdas"]):
            lam_out, lhs, rhs = (float(x) for x in row[:3])
            ref = v_one * math.exp(math.lgamma(order + 1.0) - (order + 1.0) * math.log(lam))
            if lam_out != lam:
                return Outcome(False, "row does not echo its argument")
            if _rel_err(rhs, ref) > 1e-12 or _rel_err(lhs, ref) > 1e-10:
                return Outcome(False, f"transform at {lam!r}: lhs {lhs!r} rhs {rhs!r} vs {ref!r}")
        return Outcome(True)

    def _check_mvt(self, p, text):
        doc = json.loads(text)
        y = p["y"]
        refs = self._ellipse_refs(p, y)
        volume = oracles.ellipse_components(1.0, (0.0, 0.0, 0.0), p["Q"], y)[0]
        mean, scale = sum(refs) / volume, sum(abs(r) for r in refs) / volume
        point = [doc["point"]]
        g_at = oracles.poly_eval(_quadratic_terms(p["Q"]), point)[0]
        f_at = oracles.poly_eval(self._f_terms(p), point)[0]
        if not g_at <= y * (1.0 + 1e-12):
            return Outcome(False, f"point {doc['point']!r} is outside K_y (g = {g_at!r} > {y!r})")
        if _rel_err(doc["target_mean"], mean, scale) > 1e-11:
            return Outcome(False, f"target mean {doc['target_mean']!r} vs {mean!r}")
        if abs(f_at - mean) > 1e-9 * (1.0 + abs(mean)) + 1e-12 * scale:
            return Outcome(False, f"f(point) = {f_at!r} misses the mean {mean!r}")
        return Outcome(True)

    def _check_find_lambda(self, p, text):
        doc = json.loads(text)
        cert = doc["certificate"]
        target = self._disc_target(p)
        out = Outcome(True, certs=[(cert["error_estimate"], abs(cert["v_value"] - target))])
        if _rel_err(doc["lambda"], 1.0 / p["y"]) > 1e-9:
            out.ok, out.reason = False, f"lambda {doc['lambda']!r} vs {1.0 / p['y']!r}"
        return out


WORKLOADS = {w.name: w for w in (DualHomog(), DirectMC(), FindLambda(), Cli())}
