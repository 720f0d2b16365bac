"""Independent oracles for the benchmark's output checks.

Nothing here imports `mertens`: the prime table comes from a dense
odd-only sieve written for this file, and the sums are exact integer
prefix sums of the binary64 terms, rounded once per checkpoint.  A result
built this way is the correctly rounded sum of its terms, which is what a
`math.fsum` over the same terms returns.
"""

from __future__ import annotations

import math

import numpy as np

# pi(10^k) for k = 1..8.
KNOWN_PI_DECADES = {
    10: 4,
    100: 25,
    1_000: 168,
    10_000: 1_229,
    100_000: 9_592,
    1_000_000: 78_498,
    10_000_000: 664_579,
    100_000_000: 5_761_455,
}

# Limb width and chunk length of the exact summation.  A term's scaled
# integer splits into a high limb below 2^(53 + max shift - LIMB_BITS) and a
# low limb below 2^LIMB_BITS; MAX_SHIFT and CHUNK keep every per-chunk
# cumulative sum of either limb below 2^63.
LIMB_BITS = 40
MAX_SHIFT = 30
CHUNK = 1 << 18


def dense_primes(n: int) -> np.ndarray:
    """All primes <= n as int64, from one dense odd-only sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # index i stands for 2i + 1
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    del odd
    primes *= 2
    primes += 1
    primes[0] = 2  # index 0 stood for 1, which is not prime; 2 takes its slot
    return primes


def pi_at(primes: np.ndarray, points) -> list[int]:
    """pi(x) for each x, by binary search in the oracle's prime table."""
    return np.searchsorted(primes, np.asarray(points, dtype=np.int64), side="right").tolist()


def exact_prefix_sums(primes: np.ndarray, term, cuts) -> list[float]:
    """Correctly rounded sum of term(p) over primes[:c], for each ascending c.

    `term` maps an array of primes to positive binary64 terms.  Each term
    is M * 2^(e - 53) with an integer M < 2^53, so scaled by 2^(53 - e_min)
    it is the integer M << (e - e_min).  The integers are summed exactly in
    two 64-bit limbs per chunk and carried in a Python int; int / 2^k true
    division rounds once, correctly.  e_min is read from the last prime's
    term, the smallest one for 1/p and ln(p)/p; a smaller one raises.
    """
    if primes.size == 0:
        raise ValueError("exact_prefix_sums needs at least one prime")
    e_min = int(np.frexp(term(primes[-1:]))[1][0])
    scale = 1 << (53 - e_min)

    out = []
    carry = 0  # exact sum of every chunk before the current one
    cut_iter = iter(cuts)
    cut = next(cut_iter, None)
    for start in range(0, len(primes) + 1, CHUNK):
        mant, expo = np.frexp(term(primes[start : start + CHUNK]))
        if expo.size and (
            not np.all(mant > 0.0)
            or int(expo.min()) < e_min
            or int(expo.max()) - e_min > MAX_SHIFT
        ):
            raise ValueError("terms must be positive and within 2^MAX_SHIFT of the last one")
        big = np.ldexp(mant, 53).astype(np.uint64)
        shift = (expo - e_min).astype(np.uint64)
        hi = (big >> (np.uint64(LIMB_BITS) - shift)).astype(np.int64)
        lo = ((big << shift) & np.uint64((1 << LIMB_BITS) - 1)).astype(np.int64)
        cum_hi = np.concatenate(([0], np.cumsum(hi)))
        cum_lo = np.concatenate(([0], np.cumsum(lo)))
        while cut is not None and cut <= start + len(hi):
            j = cut - start
            total = carry + (int(cum_hi[j]) << LIMB_BITS) + int(cum_lo[j])
            out.append(total / scale)
            cut = next(cut_iter, None)
        carry += (int(cum_hi[-1]) << LIMB_BITS) + int(cum_lo[-1])
        if cut is None:
            break
    if cut is not None:
        raise ValueError(f"cut {cut} lies beyond {len(primes)} primes")
    return out


def s_terms(primes: np.ndarray) -> np.ndarray:
    """1/p for every prime, each correctly rounded."""
    return 1.0 / primes.astype(np.float64)


def a_terms(primes: np.ndarray) -> np.ndarray:
    """ln(p)/p with ln from the C library (math.log), not numpy's."""
    logs = np.fromiter(map(math.log, primes.tolist()), dtype=np.float64, count=len(primes))
    return logs / primes.astype(np.float64)
