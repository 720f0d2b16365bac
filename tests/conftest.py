"""Shared oracles and one expensive shared sieve pass for the test suite.

Oracles here are deliberately independent of the package internals:
trial division for primality, a classic dense sieve (no odd compression,
no segmentation) for recounts, and exact rational / high-precision
summation for the accumulated sums.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mertens import accumulate_checkpoints
from mertens.bounds import log_spaced_integers
from mertens.sieve import primes_array
from mertens.sums import columns_at

TRIAL_LIMIT = 100_000


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def dense_sieve_flags(limit: int) -> bytearray:
    """Textbook sieve over all integers, used as an independent recount."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def decades_up_to(n_max: int) -> list[int]:
    out = []
    x = 10
    while x <= n_max:
        out.append(x)
        x *= 10
    return out


@pytest.fixture(scope="session")
def trial_flags_100k() -> np.ndarray:
    flags = np.zeros(TRIAL_LIMIT + 1, dtype=bool)
    for n in range(2, TRIAL_LIMIT + 1):
        flags[n] = trial_is_prime(n)
    return flags


@pytest.fixture(scope="session")
def shared_scan():
    """One sieve pass to 1e8 with every checkpoint grid the suite needs."""
    n_max = 10**8
    rs_ints = range(286, 10**5 + 1)
    rs_logs = log_spaced_integers(286, n_max)
    euler_points = [int(p) for p in primes_array(10**6)]
    cap_points = sorted(set(log_spaced_integers(2, 10**7)) | set(decades_up_to(10**7)))
    points = sorted(
        set(rs_ints)
        | set(rs_logs)
        | set(euler_points)
        | set(cap_points)
        | set(decades_up_to(n_max))
    )
    cols = accumulate_checkpoints(n_max, points)
    return SimpleNamespace(
        at=lambda pts: columns_at(cols, pts),
        rs_points=sorted(set(rs_ints) | set(rs_logs)),
        euler_points=euler_points,
        cap_points=cap_points,
    )
