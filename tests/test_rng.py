import numpy as np
import pytest

from lapdual import rng


def test_partition_invariance():
    whole = rng.uniforms(12345, 0, 1000)
    parts = np.concatenate(
        [rng.uniforms(12345, 0, 137), rng.uniforms(12345, 137, 400), rng.uniforms(12345, 537, 463)]
    )
    assert np.array_equal(whole, parts)


def test_determinism_and_seed_sensitivity():
    a = rng.uniforms(1, 0, 256)
    b = rng.uniforms(1, 0, 256)
    c = rng.uniforms(2, 0, 256)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_range():
    u = rng.uniforms(9, 0, 10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    v = rng.uniforms_open(9, 0, 10000)
    assert np.all(v > 0.0) and np.all(v <= 1.0)


def test_uniform_moments():
    u = rng.uniforms(42, 0, 200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normals_are_standard():
    z = rng.standard_normals(7, 0, 100000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_large_seed_accepted():
    u = rng.uniforms(2**64 - 1, 0, 16)
    assert np.all(np.isfinite(u))


def _splitmix64(seed, i):
    """Output i of the stream under ``seed``, in Python integers."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**63, 2**64 - 5])
def test_raw64_matches_pure_python_splitmix64(seed, start):
    # start 2**64 - 5 with 5 words ends on the last counter, 2**64 - 1.
    words = rng.raw64(seed, start, 5)
    assert words.dtype == np.uint64
    assert [int(w) for w in words] == [_splitmix64(seed, start + i) for i in range(5)]
