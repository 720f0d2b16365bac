"""Exact accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Every checkpoint value is the correctly rounded sum of the binary64 terms up
to it.  prefix_limbs holds running sums exactly as integer limbs on one fixed
binary grid and reads every cut of a row from them in a few vector steps;
round_limbs rounds all the cuts at once.  The scans in identities use them
too, the factorial right sides among them; identities rounds its other sums
(the Abel sides and the Euler partial sums) correctly with math.fsum.

accumulate_checkpoints cuts its pass into runs, each sieved and summed from
zero in this process or in a pool, and adds the runs' limbs in order; so the
values depend only on which terms were added, never on how the runs and
windows were sized or which worker summed them.

Checkpoints come back as columns: one numpy array per quantity, indexed
like the requested points; a caller that reads only some of the sums asks
for those alone, and the others are never computed.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .sieve import _check_request, _validate_points, iter_prime_arrays


LIMB_BITS = 30
_LIMB = float(1 << LIMB_BITS)
_LIMB_MASK = (1 << LIMB_BITS) - 1
# prefix_limbs' grid: limb j has unit 2**(-LIMB_BITS * j), so six limbs reach
# 2**-150; the lowest bit of 1/p**2 below the sieve cap 2**40 is 2**-132.
GRID_LIMBS = 6
# A run holds at most RUN_POINTS checkpoints, so its limbs stay small (on verify
# --n-max 1e7's points, 2**11 ran slower, 2**13 faulted 2-4x the pages and 2**14
# peaked 9 MB higher), and a 1 / (RUNS_PER_WORKER W) share of the integers for W
# workers, but never fewer than RUN_INTEGERS unless its points or the pass end it.
# RUNS_PER_WORKER = 1 was slower: table --n-max 1e9 --workers 2 took 2.66 s against
# 2.38 s (4 of 4 pairs, 2-core VM).
RUN_POINTS = 1 << 12
RUNS_PER_WORKER = 4
RUN_INTEGERS = 1 << 20
SUMS = ("s", "a", "q", "l")


class CompensatedAccumulator:
    """Exact running sum, kept as a canonical expansion of floats.

    parts[0] is the exact sum of every term added so far, correctly rounded;
    parts[1] is the remainder, correctly rounded, and so on until the
    remainder is zero (an empty list means zero).  The state depends only on
    the exact sum, never on the order of the terms or how add_array calls
    split them.

    No package code sums with it: it stays as the tests' oracle for
    accumulate_checkpoints, sharing no code with prefix_limbs, and as an
    entry point the benchmark's tracer wraps.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[float] = []

    def add_array(self, arr: np.ndarray) -> None:
        """Add every element of arr; a non-finite one raises ValueError and adds nothing.

        math.fsum of the terms and the parts finds the new canonical expansion
        one part at a time; a sum past the float range raises OverflowError.
        """
        work = arr.tolist() + self.parts
        parts = []
        while (r := math.fsum(work)) != 0.0:
            if not math.isfinite(r):
                raise ValueError(f"non-finite sum {r!r}: every term must be finite")
            parts.append(r)
            work.append(-r)
        self.parts = parts

    @property
    def value(self) -> float:
        return self.parts[0] if self.parts else 0.0

    def __repr__(self) -> str:
        return f"CompensatedAccumulator({self.value!r})"


def prefix_limbs(
    terms: Sequence[np.ndarray], cuts: np.ndarray, carry: np.ndarray | None = None
) -> np.ndarray:
    """Exact prefix sums carry + sum(row[:c]) of each row of terms at each cut c, as limbs.

    terms holds rows of n nonnegative floats below 2**29 with no bit below
    2**-150, n < 2**23.  They are consumed (scaled and split in place).
    cuts ascend and end at n, so the last column holds each row's whole sum.
    carry (None for zero) is added before normalizing: limbs[:, :, -1:] of
    the call for the terms before these, or one column per cut whose limbs
    need not be normalized.  Every sum must lie in [0, 2**30).
    Returns normalized limbs, shape (GRID_LIMBS, len(terms), len(cuts)):
    column k of row i is sum_j limbs[j, i, k] * 2**(-LIMB_BITS j), and
    round_limbs rounds it.

    Each row is split in passes from its top bit 2**top: scale it so that
    the next LIMB_BITS bits lie above the point, h = trunc(row), row -= h,
    all exact.  A row of positive terms has no bit below 2**(e - 53), e its
    least term's exponent, so its last pass is known and takes its whole
    remainders as h; a row with a zero passes until every remainder is zero.
    np.add.reduceat sums each pass's limbs h between cuts: integers below
    2**53, exact in float64.  They are shifted onto the grid, summed along
    the cuts, and carried.
    """
    starts = np.concatenate(([0], cuts[:-1]))
    nonempty = starts < cuts  # an empty piece's reduceat entry would be a term, not 0
    starts = starts[nonempty]
    pieces = np.zeros(len(cuts))
    limbs = np.zeros((GRID_LIMBS, len(terms), len(cuts)), dtype=np.int64)
    for i, row in enumerate(terms):
        if len(row) >= 1 << 23:  # longer rows could give piece sums that float64 rounds
            raise ValueError("each row must be shorter than 2**23")
        top = math.frexp(float(row.max(initial=0.0)))[1]
        if not -LIMB_BITS * (GRID_LIMBS - 1) < top < LIMB_BITS:  # 0 for a zero row
            raise ValueError("every row's largest term must lie in [2**-150, 2**29)")
        # Pass k has unit 2**(top - LIMB_BITS k) = 2**(d - LIMB_BITS j) with 0 <= d < LIMB_BITS:
        # a piece sum a adds a >> (LIMB_BITS - d) to limb j - 1 and its low bits, times 2**d, to limb j.
        d = top % LIMB_BITS
        j, scale = (d - top) // LIMB_BITS + 1, 2.0 ** (LIMB_BITS - top)
        least = float(row.min(initial=math.inf))  # passes: ceil((top - e + 53) / LIMB_BITS), or -1
        passes = -((math.frexp(least)[1] - top - 53) // LIMB_BITS) if 0 < least < math.inf else -1
        h = np.empty_like(row)
        while True:
            row *= scale
            passes -= 1
            if passes:
                # trunc, not floor: the two agree on these nonnegative terms, but only trunc
                # keeps row -= h exact for a negative one (-2**-60 - floor(-2**-60) rounds to 1).
                np.trunc(row, out=h)
                row -= h
            pieces[nonempty] = np.add.reduceat(h if passes else row, starts)
            a = pieces.astype(np.int64)
            high, low = a >> (LIMB_BITS - d), (a & ((1 << (LIMB_BITS - d)) - 1)) << d
            if j >= GRID_LIMBS and (low.any() or (j > GRID_LIMBS and high.any())):
                raise ValueError("every bit of every term must be at least 2**-150")
            limbs[min(j - 1, GRID_LIMBS - 1), i] += high  # a part past the grid is 0 here
            limbs[min(j, GRID_LIMBS - 1), i] += low
            if not passes or (passes < 0 and not row.any()):
                break
            j, scale = j + 1, _LIMB
    np.cumsum(limbs, axis=2, out=limbs)
    if carry is not None:
        limbs += carry
    return _normalize(limbs)


def _normalize(limbs: np.ndarray) -> np.ndarray:
    """limbs, each below the first carried into the one above in place; a sum past 2**30 raises."""
    for j in range(GRID_LIMBS - 1, 0, -1):
        limbs[j - 1] += limbs[j] >> LIMB_BITS
        limbs[j] &= _LIMB_MASK
    if (limbs[0] >> LIMB_BITS).any():
        raise ValueError("every sum must lie in [0, 2**30)")
    return limbs


def round_limbs(limbs: np.ndarray) -> np.ndarray:
    """The correctly rounded float of each column of limbs, laid out as prefix_limbs'.

    limbs are normalized in place.  From t, the first nonzero limb, w takes the sum's
    top 62 bits (limbs t..t+3) and sets its last bit if any lower bit is set.  That
    sticky bit lies 9 places below the 53 bits a float keeps, so the int64 -> float64
    conversion, which rounds to nearest even, rounds w as it would round the sum.
    """
    flat = _normalize(limbs).reshape(GRID_LIMBS, -1)
    m = flat.shape[1]
    zero = flat == 0
    t = np.zeros(m, dtype=np.int64)  # leading zero limbs; a zero sum stops at the last, and w = 0
    run = np.ones(m, dtype=bool)
    for j in range(GRID_LIMBS - 1):
        run &= zero[j]
        t += run
    grid = np.concatenate([flat, np.zeros((3, m), dtype=np.int64)]).ravel()
    at = t * m + np.arange(m)
    lead, second, third, fourth = (grid[at + i * m] for i in range(4))
    bits = np.frexp(lead)[1].astype(np.int64)  # bit length of the leading limb
    low = (third << LIMB_BITS) | fourth
    drop = LIMB_BITS - 2 + bits  # low's bits below w
    w = (((lead << LIMB_BITS) | second) << (32 - bits)) | (low >> drop)
    w |= (low & ((1 << drop) - 1)) != 0
    for j in range(4, GRID_LIMBS):  # limbs past t + 3
        w |= ~zero[j] & (t <= j - 4)
    exp = (bits - 62 - LIMB_BITS * t).astype(np.int32)
    return np.ldexp(w.astype(np.float64), exp).reshape(limbs.shape[1:])


def _term_arrays(values: np.ndarray, sums: Sequence[str] = SUMS) -> list[np.ndarray]:
    """The term rows of values for each of sums, in that order; np.log only for A or L."""
    pf = values.astype(np.float64)
    if "a" in sums or "l" in sums:
        logs = np.log(pf)
    terms = {
        "s": lambda: 1.0 / pf,
        "a": lambda: logs / pf,
        "q": lambda: 1.0 / (pf * pf),
        "l": lambda: logs / (pf * pf - pf),
    }
    return [terms[key]() for key in sums]


def _sum_run(start: int, stop: int, points: np.ndarray, sums):
    """The integers [start, stop), sieved and summed from zero.

    Returns the run's prime count; the count of its primes <= x at each x of
    points, the run's checkpoints, ascending; the normalized limbs of sums at
    the d distinct values of that count, shape (GRID_LIMBS, len(sums), d);
    and those at the run's end.
    """
    pi = np.empty(len(points), dtype=np.int64)
    limbs = np.empty((GRID_LIMBS, len(sums), len(points)), dtype=np.int64)
    total = np.zeros((GRID_LIMBS, len(sums), 1), dtype=np.int64)
    count = k = d = 0
    for _, hi, arr in iter_prime_arrays(stop - 1, start=start):
        j = int(np.searchsorted(points, hi))
        pi[k:j] = count + np.searchsorted(arr, points[k:j], side="right")
        # Points with one value of pi share a column, even across pieces.
        new = pi[k:j][np.diff(pi[k:j], prepend=pi[k - 1] if k else -1) > 0]
        out = prefix_limbs(_term_arrays(arr, sums), np.append(new - count, len(arr)), total)
        limbs[:, :, d : d + len(new)] = out[:, :, :-1]
        total = out[:, :, -1:]
        count, k, d = count + len(arr), j, d + len(new)
    return count, pi, limbs[:, :, :d], total


def _runs(xs: np.ndarray, integers: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(start, stop, xs in [start, stop)) cutting [0, xs[-1]], at most integers and RUN_POINTS."""
    start = k = 0
    while start <= xs[-1]:
        stop = min(start + integers, int(xs[-1]) + 1)
        j = int(np.searchsorted(xs, stop))
        if j - k > RUN_POINTS:
            j, stop = k + RUN_POINTS, int(xs[k + RUN_POINTS])
        yield start, stop, xs[k:j]
        start, k = stop, j


def _pooled(fn: Callable, tasks: Iterable[tuple], procs: int) -> Iterator:
    """fn(*task) for each task in order, from procs processes with at most 2 procs tasks in flight.

    The workers never call BLAS: each sets OPENBLAS_NUM_THREADS=1 for itself
    before it loads numpy, so numpy's OpenBLAS starts on one thread there.
    Pool.imap here peaked at 56.3 MB, not 53.9, on verify --n-max 1e7 --workers 2 (2-core VM).
    """
    import multiprocessing  # here, not at the top: a single-process run never needs it

    tasks = iter(tasks)
    with multiprocessing.Pool(procs, os.putenv, ("OPENBLAS_NUM_THREADS", "1")) as pool:
        pending = deque(pool.apply_async(fn, t) for t in islice(tasks, 2 * procs))
        while pending:
            done = pending.popleft().get()
            pending.extend(pool.apply_async(fn, t) for t in islice(tasks, 1))
            yield done


def accumulate_checkpoints(
    n_max: int, points: Sequence[int], *, workers: int = 1, sums: Sequence[str] = SUMS
) -> dict[str, np.ndarray]:
    """One sieve pass giving x, pi(x) and the requested sums at each point.

    Returns one array per key "x", "pi" and each of sums, a non-empty
    selection of "s", "a", "q" and "l" (all four by default), with entry i
    taken at points[i].  Points must be strictly ascending with
    points[-1] <= n_max.  The columns are bit-identical for any sieve
    window, cut into runs, worker count and selection of sums.
    """
    keys = [key for key in SUMS if key in sums]
    if not sums or len(keys) < len(set(sums)):
        raise ValueError(f"sums must be a non-empty selection of {SUMS}, got {sums!r}")
    xs = _validate_points(points)
    if xs[-1] > n_max:
        raise ValueError(f"last checkpoint {xs[-1]} exceeds n_max {n_max}")
    last = int(xs[-1])
    _check_request(last, workers)
    integers = max(RUN_INTEGERS, -(-(last + 1) // (RUNS_PER_WORKER * workers)))
    tasks = [(*run, keys) for run in _runs(xs, integers)]
    procs = min(workers, len(tasks))
    results = _pooled(_sum_run, tasks, procs) if procs > 1 else starmap(_sum_run, tasks)
    pi = np.empty(len(xs), dtype=np.int64)
    columns = np.empty((len(keys), len(xs)))
    carry = np.zeros((GRID_LIMBS, len(keys), 1), dtype=np.int64)
    count = k = 0
    for run_count, run_pi, limbs, total in results:
        j = k + len(run_pi)
        pi[k:j] = count + run_pi
        which = np.cumsum(np.diff(run_pi, prepend=-1) > 0) - 1  # each point's column
        columns[:, k:j] = round_limbs(limbs + carry)[:, which]
        carry = _normalize(total + carry)
        count, k = count + run_count, j
    return {"x": xs, "pi": pi, **dict(zip(keys, columns))}


def columns_at(cols: dict[str, np.ndarray], points: Sequence[int]) -> dict[str, np.ndarray]:
    """The checkpoint columns cols restricted to points, in the order given.

    Every point must equal one of cols["x"] in value (50.0 selects 50); the
    first that does not, such as 5.9 or 2**70, raises KeyError.
    """
    xs = cols["x"]
    want = np.asarray(points)  # uncast: int64 would truncate 5.9 to 5 and overflow at 2**70
    idx = np.minimum(np.searchsorted(xs, want), len(xs) - 1)
    missing = xs[idx] != want
    if missing.any():
        raise KeyError(want[missing].tolist()[0])
    return {key: col[idx] for key, col in cols.items()}
