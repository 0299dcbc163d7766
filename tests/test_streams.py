"""Vectorized per-shot streams against numpy's own generators.

``_uniforms`` replays SeedSequence, PCG64 and ``random()`` in numpy integer
arithmetic. If numpy changes any of them, these tests fail, so seeded outputs
cannot change without notice.
"""

import warnings

import numpy as np
import pytest

from arcwalk.engine import _uniforms


def numpy_rows(base_seed, shots, k):
    return np.array([np.random.default_rng(base_seed + i).random(k) for i in range(shots)])


@pytest.mark.parametrize(
    "base_seed,shots,k",
    [
        (0, 50_000, 1),
        (2**32 - 3_000, 6_000, 2),  # one word, then two, inside one call
        (0, 2_000, 7),
        (2**32 - 100, 200, 161),
        (2**64 - 3, 3, 7),  # the largest seed the vectorized path takes
        (2**64 - 3, 6, 2),  # crosses 2**64: the default_rng fallback
        (2**64 + 12_345, 4, 3),
    ],
)
def test_rows_equal_default_rng(base_seed, shots, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy warns on scalar uint64 overflow
        got = _uniforms(base_seed, shots, k)
    assert got.shape == (shots, k) and got.dtype == np.float64
    assert np.array_equal(got, numpy_rows(base_seed, shots, k))

