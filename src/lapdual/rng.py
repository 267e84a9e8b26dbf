"""Deterministic counter-based random numbers.

Every output word is a pure function of (seed, counter), so a counter
range can be partitioned across workers arbitrarily without changing a
single value.  The mixer is the splitmix64 finalizer; output i of the
stream is mix(seed + (i + 1) * GOLDEN) with 64-bit wraparound.
"""

import numpy as np

_U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def raw64(seed: int, start: int, count: int) -> np.ndarray:
    """uint64 words for counters start .. start+count-1 under ``seed``."""
    z = np.arange(start, start + count, dtype=np.uint64)
    # Wraparound multiply/add modulo 2**64 is intended throughout; every
    # step runs in place on z, with one buffer for the shifted words.
    z += _U64(1)
    z *= _U64(_GOLDEN)
    z += _U64(seed & _MASK)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _U64(30), out=shifted)
    z *= _U64(_MIX_1)
    z ^= np.right_shift(z, _U64(27), out=shifted)
    z *= _U64(_MIX_2)
    z ^= np.right_shift(z, _U64(31), out=shifted)
    return z


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Doubles in [0, 1), one per counter."""
    return (raw64(seed, start, count) >> _U64(11)).astype(np.float64) * 2.0**-53


def uniforms_open(seed: int, start: int, count: int) -> np.ndarray:
    """Doubles in (0, 1], safe as log/Box-Muller arguments."""
    w = (raw64(seed, start, count) >> _U64(11)) + _U64(1)
    return w.astype(np.float64) * 2.0**-53


def standard_normals(seed: int, start: int, count: int) -> np.ndarray:
    """N(0,1) draws via Box-Muller; draw i consumes counters start+2i, start+2i+1."""
    w = raw64(seed, start, 2 * count)
    u1 = ((w[0::2] >> _U64(11)) + _U64(1)).astype(np.float64) * 2.0**-53
    u2 = (w[1::2] >> _U64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
