"""Segmented sieve of Eratosthenes streaming primes in deterministic order.

The sieve walks fixed-size windows of a run of the integer line, keeping
only odd residues in memory (one boolean per odd number), and hands each
window on in ascending pieces of at most PIECE integers, so no consumer
array grows with the window.  It is serial: mertens.sums cuts a pass into
runs and gives each run its own stream, in one process or in a pool.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

# Integers per sieve window; 512 KiB of odd flags.  A wider window crosses
# off each base prime in fewer Python slices: at 2**21, table --n-max 1e8
# ran ~6 % faster than at 2**20 but peaked ~1.4 MB higher (2-core VM).
# iter_prime_arrays reads it at each call, so a test may patch it; no output
# depends on it.
SEGMENT_SIZE = 1 << 20
# iter_prime_arrays yields a window's primes in pieces of at most PIECE
# integers, so term rows and limb buffers downstream stay this size.
PIECE = 1 << 18
# Resource ceilings: the largest sieve bound; each worker is one process,
# holding one window of SEGMENT_SIZE / 2 flags.
MAX_SIEVE_BOUND = 1 << 40
MAX_WORKERS = 64

_TWO = np.array([2], dtype=np.int64)


class SieveLimitError(RuntimeError):
    """Raised when a request exceeds the sieve maximum or a resource ceiling."""


def _check_request(n: int, workers: int = 1) -> None:
    if n < 0:
        raise ValueError(f"sieve bound must be non-negative, got {n}")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if workers > MAX_WORKERS:
        raise SieveLimitError(f"worker count {workers} exceeds the maximum {MAX_WORKERS}")
    if n > MAX_SIEVE_BOUND:
        raise SieveLimitError(
            f"bound {n} exceeds the sieve maximum {MAX_SIEVE_BOUND}; "
            "use the extrapolation path"
        )


def base_odd_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit (int64 array), sieved by the odd primes <= sqrt(limit)."""
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    mask = _odd_mask(3, limit + 1, base_odd_primes(math.isqrt(limit)))
    return 3 + 2 * np.flatnonzero(mask).astype(np.int64)


def _odd_mask(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Prime flags for the odd numbers in [lo, hi), lowest first.

    base_primes holds the odd primes <= sqrt(hi - 1), ascending.  Each one's
    first odd multiple >= max(p^2, lo) is p q, q the least odd cofactor
    >= max(p, lo / p), found for all of them in one numpy step; the only
    Python per prime is one slice assignment, empty when p q >= hi.
    """
    first = lo | 1
    mask = np.ones(max((hi - first + 1) // 2, 0), dtype=bool)
    if len(mask) == 0:
        return mask
    ps = base_primes[: np.searchsorted(base_primes, math.isqrt(hi - 1), side="right")]
    cofactors = np.maximum(ps, -(-first // ps)) | 1
    for i, p in zip(((ps * cofactors - first) // 2).tolist(), ps.tolist()):
        mask[i::p] = False
    return mask


def iter_prime_arrays(n: int, *, start: int = 0) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, primes) with primes ascending and coverage contiguous.

    Each tuple asserts "every prime in [lo, hi) is in this array"; the union
    of coverages is [start, n + 1), so a consumer can finalize a point x as
    soon as a piece with hi > x has been consumed.  Windows of SEGMENT_SIZE
    from max(start, 3) come as pieces of at most PIECE integers.
    """
    _check_request(n)
    if start < min(3, n + 1):
        yield start, min(3, n + 1), _TWO[: int(n >= 2)]
    base = base_odd_primes(math.isqrt(n))
    size = SEGMENT_SIZE
    for lo in range(max(start, 3), n + 1, size):
        hi = min(lo + size, n + 1)
        mask = _odd_mask(lo, hi, base)
        # PIECE is even, so every piece starts at the parity of lo, and its
        # first odd number is flag (piece_lo - lo) / 2.
        for piece_lo in range(lo, hi, PIECE):
            offset = (piece_lo - lo) // 2
            primes = np.flatnonzero(mask[offset : offset + PIECE // 2])
            primes *= 2
            primes += piece_lo | 1
            yield piece_lo, min(piece_lo + PIECE, hi), primes


def iter_checkpoint_events(
    arrays: Iterable[tuple[int, int, np.ndarray]],
    points: Sequence[int],
) -> Iterator[tuple[str, np.ndarray | int]]:
    """Interleave ("terms", subarray) and ("checkpoint", x) events in order.

    A checkpoint event for x is emitted exactly once, after every prime <= x
    has appeared in a terms event.  Points ascend strictly, inside the coverage.
    """
    k = 0
    for lo, hi, arr in arrays:
        start = 0
        j = bisect_left(points, hi, k)
        below_hi = points[k:j]
        for x, cut in zip(below_hi, np.searchsorted(arr, below_hi, side="right").tolist()):
            if cut > start:
                yield "terms", arr[start:cut]
                start = cut
            yield "checkpoint", x
        k = j
        if start < len(arr):
            yield "terms", arr[start:]


def primes_array(n: int) -> np.ndarray:
    """Materialized int64 array of all primes <= n, ascending."""
    arrays = (arr for _, _, arr in iter_prime_arrays(n))
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays])


def _validate_points(points: Sequence[int]) -> np.ndarray:
    """points as a new int64 array, checked: non-empty, integers, non-negative, strictly ascending."""
    given = np.asarray(points)
    beyond = f"checkpoints must lie in [0, {MAX_SIEVE_BOUND}], the sieve maximum"
    if given.dtype.kind == "f":  # refused before the int64 cast, which would warn and wrap
        if (bad := np.flatnonzero(~np.isfinite(given))).size:
            raise ValueError(f"checkpoints must be finite, got {given[bad[0]].item()!r}")
        if (np.abs(given) >= 2.0**63).any():
            raise SieveLimitError(beyond)
    try:
        pts = np.array(given, dtype=np.int64)
    except OverflowError:
        raise SieveLimitError(beyond) from None
    if (cut := np.flatnonzero(pts != given)).size:  # the int64 cast truncated a fraction
        raise ValueError(f"checkpoints must be integers, got {given[cut[0]].item()!r}")
    if len(pts) == 0:
        raise ValueError("checkpoint list must be non-empty")
    if (down := np.flatnonzero(pts[1:] <= pts[:-1])).size:
        a, b = pts[down[0] : down[0] + 2].tolist()
        raise ValueError(f"checkpoints must be strictly ascending, got {a} before {b}")
    if pts[0] < 0:
        raise ValueError(f"checkpoints must be non-negative, got {pts[0]}")
    return pts
