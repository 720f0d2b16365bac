"""Segmented sieve of Eratosthenes streaming primes in deterministic order.

The sieve walks fixed-size windows of the integer line, keeping only odd
residues in memory (one boolean per odd number).  Segments may be produced
by a pool of worker processes, but consumers always receive them in
ascending order, so every downstream computation is bit-identical for any
worker count and any segment size.
"""

from __future__ import annotations

import math
import multiprocessing
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_SEGMENT_SIZE = 1 << 18  # integers per window; ~128 KiB of odd flags
# Resource ceilings: the largest sieve bound; each worker is one process, and
# a segment holds segment_size / 2 flags per worker plus its prime array.
MAX_SIEVE_BOUND = 1 << 40
MAX_WORKERS = 64
MAX_SEGMENT_SIZE = 1 << 24
POOL_SEGMENTS_IN_FLIGHT = 256  # packed segments a pool holds at most, whatever n

_TWO = np.array([2], dtype=np.int64)


class SieveLimitError(RuntimeError):
    """Raised when a request exceeds the sieve maximum or a resource ceiling."""


def _check_request(n: int, segment_size: int, workers: int) -> None:
    if n < 0:
        raise ValueError(f"sieve bound must be non-negative, got {n}")
    if segment_size < 1:
        raise ValueError(f"segment size must be positive, got {segment_size}")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if segment_size > MAX_SEGMENT_SIZE:
        raise SieveLimitError(
            f"segment size {segment_size} exceeds the maximum {MAX_SEGMENT_SIZE}"
        )
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


def _segment_bounds(n: int, segment_size: int) -> list[tuple[int, int]]:
    # Contiguous [lo, hi) windows covering the integers [3, n + 1).
    return [(lo, min(lo + segment_size, n + 1)) for lo in range(3, n + 1, segment_size)]


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


# Worker-process state for the parallel path (populated by the initializer).
_POOL_BASE: np.ndarray | None = None


def _pool_init(base_primes: np.ndarray) -> None:
    global _POOL_BASE
    _POOL_BASE = base_primes


def _pool_sieve(task: list[tuple[int, int]]) -> list[tuple[int, int, int, bytes]]:
    out = []
    for lo, hi in task:
        mask = _odd_mask(lo, hi, _POOL_BASE)
        out.append((lo, hi, mask.shape[0], np.packbits(mask).tobytes()))
    return out


def _iter_odd_masks(
    n: int, segment_size: int, workers: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    bounds = _segment_bounds(n, segment_size)
    if not bounds:
        return
    base = base_odd_primes(math.isqrt(n))
    if workers <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            yield lo, hi, _odd_mask(lo, hi, base)
        return
    procs = min(workers, len(bounds))
    window = 2 * procs  # tasks in flight
    size = max(1, min(len(bounds) // (procs * 4), POOL_SEGMENTS_IN_FLIGHT // window))
    tasks = (bounds[i : i + size] for i in range(0, len(bounds), size))
    with multiprocessing.Pool(procs, initializer=_pool_init, initargs=(base,)) as pool:
        # Tasks are taken in submission order, so segments arrive ascending; one
        # is submitted per task taken, so a slow consumer buffers one window.
        pending = deque(pool.apply_async(_pool_sieve, (t,)) for t in islice(tasks, window))
        while pending:
            done = pending.popleft().get()
            pending.extend(pool.apply_async(_pool_sieve, (t,)) for t in islice(tasks, 1))
            for lo, hi, count, packed in done:
                buf = np.frombuffer(packed, dtype=np.uint8)
                yield lo, hi, np.unpackbits(buf, count=count).view(bool)


def iter_prime_arrays(
    n: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, primes) with primes ascending and coverage contiguous.

    Each tuple asserts "every prime in [lo, hi) is in this array"; the union
    of coverages is [0, n + 1), so checkpoint consumers can finalize a point
    x as soon as a window with hi > x has been consumed.
    """
    _check_request(n, segment_size, workers)
    if n >= 2:
        yield 0, 3, _TWO
    for lo, hi, mask in _iter_odd_masks(n, segment_size, workers):
        first = lo | 1
        yield lo, hi, first + 2 * np.flatnonzero(mask).astype(np.int64)


def iter_checkpoint_events(
    arrays: Iterable[tuple[int, int, np.ndarray]],
    points: Sequence[int],
) -> Iterator[tuple[str, np.ndarray | int]]:
    """Interleave ("terms", subarray) and ("checkpoint", x) events in order.

    A checkpoint event for x is emitted exactly once, after every prime <= x
    has appeared in a terms event.  Points must be strictly ascending.
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
    while k < len(points):  # bounds below the first window (n < 2)
        yield "checkpoint", points[k]
        k += 1


def primes_array(n: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Materialized int64 array of all primes <= n, ascending."""
    arrays = (arr for _, _, arr in iter_prime_arrays(n, segment_size))
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays])


def _validate_points(points: Sequence[int]) -> list[int]:
    pts = [int(x) for x in points]
    if not pts:
        raise ValueError("checkpoint list must be non-empty")
    for a, b in zip(pts, pts[1:]):
        if b <= a:
            raise ValueError(f"checkpoints must be strictly ascending, got {a} before {b}")
    if pts[0] < 0:
        raise ValueError(f"checkpoints must be non-negative, got {pts[0]}")
    return pts
