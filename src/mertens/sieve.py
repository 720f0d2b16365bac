"""Segmented sieve of Eratosthenes streaming primes in deterministic order.

The sieve walks fixed-size windows of the integer line, keeping only odd
residues in memory (one boolean per odd number).  Windows may be sieved by
a pool of worker processes, but consumers always receive them in ascending
order, each as pieces of at most PIECE integers, so every downstream
computation is bit-identical for any worker count and any window size, and
no consumer array grows with the window.
"""

from __future__ import annotations

import math
import multiprocessing
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

# Integers per sieve window; 512 KiB of odd flags.  A wider window crosses
# off each base prime in fewer Python slices: at 2**21, table --n-max 1e8
# ran ~6 % faster than at 2**20 but peaked ~1.4 MB higher (2-core VM).
DEFAULT_SEGMENT_SIZE = 1 << 20
# iter_prime_arrays yields a window's primes in pieces of at most PIECE
# integers, so term rows and limb buffers downstream stay this size.
PIECE = 1 << 18
# Resource ceilings: the largest sieve bound; each worker is one process, and
# a window holds segment_size / 2 flags per worker.
MAX_SIEVE_BOUND = 1 << 40
MAX_WORKERS = 64
MAX_SEGMENT_SIZE = 1 << 24
# Integers a pool holds sieved at most, whatever n: 4 MiB of packed flags
# (a task is never smaller than one window).
POOL_INTEGERS_IN_FLIGHT = 1 << 26

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
    depth = 2 * procs  # tasks in flight
    in_flight = POOL_INTEGERS_IN_FLIGHT // (depth * segment_size)  # windows per task
    size = max(1, min(len(bounds) // (procs * 4), in_flight))
    tasks = (bounds[i : i + size] for i in range(0, len(bounds), size))
    with multiprocessing.Pool(procs, initializer=_pool_init, initargs=(base,)) as pool:
        # Tasks are taken in submission order, so windows arrive ascending; one
        # is submitted per task taken, so a slow consumer buffers depth tasks.
        pending = deque(pool.apply_async(_pool_sieve, (t,)) for t in islice(tasks, depth))
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
    x as soon as a window with hi > x has been consumed.  Each sieve window
    comes as pieces [lo, hi) of at most PIECE integers.
    """
    _check_request(n, segment_size, workers)
    if n >= 2:
        yield 0, 3, _TWO
    for lo, hi, mask in _iter_odd_masks(n, segment_size, workers):
        # PIECE is even, so every piece starts at the parity of lo, and its
        # first odd number is flag (piece_lo - lo) / 2.
        for piece_lo in range(lo, hi, PIECE):
            start = (piece_lo - lo) // 2
            primes = np.flatnonzero(mask[start : start + PIECE // 2])
            primes *= 2
            primes += piece_lo | 1
            yield piece_lo, min(piece_lo + PIECE, hi), primes


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


def _validate_points(points: Sequence[int]) -> np.ndarray:
    """points as a new int64 array, checked: non-empty, non-negative, strictly ascending."""
    try:
        pts = np.array(points, dtype=np.int64)
    except OverflowError:
        raise SieveLimitError(
            f"checkpoints must lie in [0, {MAX_SIEVE_BOUND}], the sieve maximum"
        ) from None
    if len(pts) == 0:
        raise ValueError("checkpoint list must be non-empty")
    if (down := np.flatnonzero(pts[1:] <= pts[:-1])).size:
        a, b = pts[down[0] : down[0] + 2].tolist()
        raise ValueError(f"checkpoints must be strictly ascending, got {a} before {b}")
    if pts[0] < 0:
        raise ValueError(f"checkpoints must be non-negative, got {pts[0]}")
    return pts
