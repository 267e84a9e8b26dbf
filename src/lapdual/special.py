"""Gamma and log-Gamma on the positive half-line.

Thin wrappers over ``math.gamma`` and ``math.lgamma`` that reject
nonpositive arguments: every caller in this package has a strictly
positive argument, so no reflection path is offered.  Also the
log-space kernel y^p * C / Gamma(1 + p) shared by the closed forms of v,
on one y or on an array of them, and the overflow guard and power-of-two
split the log-space results share.
"""

import math

import numpy as np

from .errors import EvaluationError, InputError


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0.

    Relative error is below 1e-15 up to the double-precision overflow
    point x ~ 171.62; larger arguments, infinity included, raise
    OverflowError.  Nonpositive arguments raise InputError.
    """
    x = float(x)
    if not x > 0.0:
        raise InputError(f"gamma requires x > 0, got {x!r}")
    if math.isinf(x):
        raise OverflowError(f"gamma({x!r}) overflows double precision")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for real x > 0, stable for large x."""
    x = float(x)
    if not x > 0.0:
        raise InputError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def power_over_gamma(y: float, p: float, log_coef: float) -> float:
    """y^p * exp(log_coef) / Gamma(1 + p) for y > 0 and p > 0, in log space.

    Neither y^p nor Gamma(1 + p) needs to fit in a double, only the
    result; a result beyond the double range raises EvaluationError.
    """
    return exp_in_range(p * math.log(y) + log_coef - log_gamma(1.0 + p), "y^p * C / Gamma(1 + p)")


def powers_over_gamma(ys: np.ndarray, p: float, log_coef: float) -> np.ndarray:
    """``power_over_gamma`` at every y of an array of positive ys, formed in
    the same order with numpy's log and exp (which may differ from math's
    by an ulp).  EvaluationError, and no numpy warning, when a value is
    beyond the double range."""
    log_values = p * np.log(ys) + log_coef - log_gamma(1.0 + p)
    with np.errstate(over="ignore"):
        values = np.exp(log_values)
    if not np.all(np.isfinite(values)):
        raise EvaluationError(
            f"y^p * C / Gamma(1 + p) = exp({np.max(log_values)}) overflows double precision"
        )
    return values


def exp_in_range(log_value: float, what: str) -> float:
    """exp(log_value), or EvaluationError naming ``what`` when the result
    is beyond the double range; a result below it rounds to 0."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise EvaluationError(
            f"{what} = exp({log_value}) overflows double precision"
        ) from None


def frexp_exp(log_value: float) -> tuple[float, int]:
    """(m, e) with m * 2^e = exp(log_value) and 0.5 <= m < 1, for any finite log_value:
    frexp(exp(log_value)) where that is a normal double, else after a shift by k * ln 2."""
    try:
        value = math.exp(log_value)
        if value >= 2.0**-1022:
            return math.frexp(value)
    except OverflowError:
        pass
    shift = round(log_value / math.log(2.0))
    mantissa, power = math.frexp(math.exp(log_value - shift * math.log(2.0)))
    return mantissa, power + shift
