"""Gamma and log-Gamma on the positive half-line.

Thin wrappers over ``math.gamma`` and ``math.lgamma`` that reject
nonpositive arguments: every caller in this package has a strictly
positive argument, so no reflection path is offered.
"""

import math

from .errors import InputError


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
