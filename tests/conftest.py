import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lapdual import MultiPoly

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def disc_g():
    """g(x) = x1^2 + x2^2 in the plane; K_y is the disc of radius sqrt(y)."""
    return MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})


@pytest.fixture
def interval_g():
    """g(x) = x^2 on the line; K_y is the interval [-sqrt(y), sqrt(y)]."""
    return MultiPoly(1, {(2,): 1.0})


@pytest.fixture
def quartic_g():
    """Nonconvex quartic whose level set at 1 is a four-lobed star."""
    return MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})


@pytest.fixture
def sextic_g():
    """Nonconvex sextic companion of the quartic benchmark set."""
    return MultiPoly(2, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})


@pytest.fixture
def one_2d():
    return MultiPoly.constant(2, 1.0)


@pytest.fixture
def one_1d():
    return MultiPoly.constant(1, 1.0)


def run_cli(*args):
    """Run the CLI in a subprocess on this checkout's sources; returns
    CompletedProcess with text I/O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "lapdual.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_problem(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def separable_power_integral(f_terms, a, lam, m):
    """Integral of f exp(-lam * sum_i a_i x_i^m) over R^d for even m, term by
    term in log space: integral of x^b exp(-c x^m) dx = 2 Gamma((b + 1)/m) /
    (m c^((b + 1)/m)) for even b, and 0 for odd b.  ``f_terms`` maps exponent
    tuples to coefficients (a dict or MultiPoly.terms)."""
    total = 0.0
    for exps, coef in dict(f_terms).items():
        if any(b % 2 for b in exps):
            continue
        log_term = sum(
            math.log(2.0 / m) + math.lgamma((b + 1) / m) - (b + 1) / m * math.log(lam * a_i)
            for b, a_i in zip(exps, a)
        )
        total += coef * math.exp(log_term)
    return total
