"""Segmented sieve of Eratosthenes streaming primes in deterministic order.

The sieve walks fixed-size windows of a run of the integer line, keeping
in memory one boolean for each integer prime to 6 (a 6k±1 wheel, one flag
per three integers), and hands each window on in ascending pieces of at
most PIECE integers, so no consumer array grows with the window; its base
primes come from a stream of its own.  It is serial: mertens.sums cuts a
pass into runs and gives each run its own stream, in one process or a pool.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

# Integers per sieve window, a multiple of 6: 2**20 wheel flags, 1 MiB.  A
# wider window crosses off each base prime in fewer Python slices, a narrower
# one stays in cache: in process at 1e8, 3 * 2**21 took 0.279 s and 3 * 2**19
# 0.258 s against 0.221 s here (2-core VM).  iter_prime_arrays reads it at
# each call, so a test may patch it; no output depends on it.
SEGMENT_SIZE = 3 << 20
# iter_prime_arrays yields a window's primes in pieces of at most PIECE
# integers (a multiple of 6), so term rows and limb buffers stay this size.
# Whole windows of the odd-only sieve were slower on perfbench's seed-1
# table-1e8 (0.516 s against 0.466 s, 9 of 10 pairs, 2-core VM).
PIECE = 3 << 18
# Resource ceilings: the largest sieve bound; each worker is one process,
# holding one window of SEGMENT_SIZE / 3 flags.
MAX_SIEVE_BOUND = 1 << 40
MAX_WORKERS = 64


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


def _wheel_mask(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Prime flags for [lo, hi), lo a multiple of 6: flag i for lo + 3i + 1 + (i & 1).

    base_primes holds every prime <= sqrt(hi - 1), ascending; those past 2
    and 3 cross off.  The multiples p q >= max(p^2, lo) of each with q = 1 and
    q = 5 (mod 6) are two slices of step 2 p; the least q of each class comes
    for every p in one numpy step, so the only Python per prime is two slices.
    """
    mask = np.ones((hi - lo + 4) // 6 + (hi - lo) // 6, dtype=bool)
    ps = base_primes[2 : np.searchsorted(base_primes, math.isqrt(hi - 1), side="right")]
    q = np.maximum(ps, -(-lo // ps))
    ones, fives = ((ps * (q + (r - q) % 6) - lo) // 3 for r in (1, 5))
    for step, i, j in zip((2 * ps).tolist(), ones.tolist(), fives.tolist()):
        mask[i::step] = False
        mask[j::step] = False
    return mask


def iter_prime_arrays(n: int, *, start: int = 0) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, primes) with primes ascending and coverage contiguous.

    Each tuple asserts "every prime in [lo, hi) is in this array"; the union
    of coverages is [start, n + 1), so a consumer can finalize a point x as
    soon as a piece with hi > x has been consumed.  Windows of SEGMENT_SIZE from
    the multiple of 6 at or below start come as pieces of at most PIECE integers;
    2 and 3, off the wheel, open the piece at 0.  primes_array gives the base primes.
    """
    _check_request(n)
    size = SEGMENT_SIZE
    if size <= 0 or size % 6 or PIECE <= 0 or PIECE % 6:
        raise ValueError(f"sieve window {size} and piece {PIECE} must be positive multiples of 6")
    base = primes_array(math.isqrt(n)) if n >= 25 else np.empty(0, dtype=np.int64)
    for lo in range(start - start % 6, n + 1 if start <= n else 0, size):
        hi = min(lo + size, n + 1)
        mask = _wheel_mask(lo, hi, base)
        mask[: max(max(start, 2) - lo + 4, 0) // 6] = False  # lo + 1 if it is 1 or below start
        # PIECE is a multiple of 6, so flag k of the piece at piece_lo stands
        # for piece_lo + 3k + 1 + (k & 1) = (piece_lo + 3k + 1) | 1.
        for piece_lo in range(lo, hi, PIECE):
            primes = np.flatnonzero(mask[(piece_lo - lo) // 3 :][: PIECE // 3])
            primes *= 3
            primes += piece_lo + 1
            primes |= 1
            if piece_lo == 0:
                primes = np.concatenate([np.arange(max(start, 2), min(n + 1, 4)), primes])
            yield max(piece_lo, start), min(piece_lo + PIECE, hi), primes


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
    return np.concatenate([arr for _, _, arr in iter_prime_arrays(n)])


def _validate_points(points: Sequence[int]) -> np.ndarray:
    """points as a new int64 array, checked: non-empty, integers, non-negative, strictly ascending."""
    given = np.asarray(points)
    beyond = f"checkpoints must lie in [0, {MAX_SIEVE_BOUND}], the sieve maximum"
    if given.dtype.kind in "fu":  # floats and uint64s are checked before the int64 cast wraps them
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
