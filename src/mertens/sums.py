"""Exact accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Every checkpoint value is the correctly rounded sum of the binary64 terms up
to it.  prefix_limbs holds running sums exactly as integer limbs on one fixed
binary grid and reads every cut of a row from them in a few vector steps;
round_limbs rounds all the cuts at once.  This is the package's one route to
a correctly rounded sum (the scans in identities use it too), and the values
depend only on which terms were added, never on how the sieve windows were
sized or which worker produced them.

Checkpoints come back as columns: one numpy array per quantity, indexed
like the requested points; a caller that reads only some of the sums asks
for those alone, and the others are never computed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, iter_prime_arrays, _validate_points


LIMB_BITS = 30
_LIMB = float(1 << LIMB_BITS)
_LIMB_MASK = (1 << LIMB_BITS) - 1
# prefix_limbs' grid: limb j has unit 2**(-LIMB_BITS * j), so six limbs reach
# 2**-150; the lowest bit of 1/p**2 below the sieve cap 2**40 is 2**-132.
GRID_LIMBS = 6
# accumulate_checkpoints reads at most this many checkpoints per prefix_limbs
# call, so its limb arrays stay small whatever the number of points (at 2**12,
# verify --n-max 1e7 peaked up to 0.7 MB higher: freed heap kept by malloc).
BLOCK = 1 << 11
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
    all exact, until every remainder is zero.  Per pass,
    np.add.reduceat sums the integer limbs h between consecutive cuts:
    integers below 2**53, so float64 holds them exactly.  They are shifted
    onto the grid, summed along the cuts, and carried.
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
        h = np.empty_like(row)
        while True:
            row *= scale
            # trunc, not floor: the two agree on these nonnegative terms, but only trunc
            # keeps row -= h exact for a negative one (-2**-60 - floor(-2**-60) rounds to 1).
            np.trunc(row, out=h)
            row -= h
            pieces[nonempty] = np.add.reduceat(h, starts)
            a = pieces.astype(np.int64)
            high, low = a >> (LIMB_BITS - d), (a & ((1 << (LIMB_BITS - d)) - 1)) << d
            if j >= GRID_LIMBS and (low.any() or (j > GRID_LIMBS and high.any())):
                raise ValueError("every bit of every term must be at least 2**-150")
            limbs[min(j - 1, GRID_LIMBS - 1), i] += high  # a part past the grid is 0 here
            limbs[min(j, GRID_LIMBS - 1), i] += low
            if not row.any():
                break
            j, scale = j + 1, _LIMB
    np.cumsum(limbs, axis=2, out=limbs)
    if carry is not None:
        limbs += carry
    for j in range(GRID_LIMBS - 1, 0, -1):
        limbs[j - 1] += limbs[j] >> LIMB_BITS
        limbs[j] &= _LIMB_MASK
    if (limbs[0] >> LIMB_BITS).any():
        raise ValueError("every sum must lie in [0, 2**30)")
    return limbs


def round_limbs(limbs: np.ndarray) -> np.ndarray:
    """The correctly rounded float of each column of prefix_limbs' normalized limbs.

    From t, the first nonzero limb, w takes the sum's top 62 bits (limbs
    t..t+3) and sets its last bit if any lower bit is set.  That sticky bit
    lies 9 places below the 53 bits a float keeps, so the int64 -> float64
    conversion, which rounds to nearest even, rounds w as it would round the
    sum.
    """
    flat = limbs.reshape(GRID_LIMBS, -1)
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


def accumulate_checkpoints(
    n_max: int,
    points: Sequence[int],
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    sums: Sequence[str] = SUMS,
) -> dict[str, np.ndarray]:
    """One sieve pass giving x, pi(x) and the requested sums at each point.

    Returns one array per key "x", "pi" and each of sums, a non-empty
    selection of "s", "a", "q" and "l" (all four by default), with entry i
    taken at points[i].  Points must be strictly ascending with
    points[-1] <= n_max.  The columns are bit-identical for any segment
    size, worker count and selection of sums.

    Each sieve piece's term rows are summed once by prefix_limbs, at the
    piece's distinct checkpoint cuts and its end, in blocks of at most BLOCK
    cuts; the limbs at the end of a block carry into the next.
    """
    keys = [key for key in SUMS if key in sums]
    if not sums or len(keys) < len(set(sums)):
        raise ValueError(f"sums must be a non-empty selection of {SUMS}, got {sums!r}")
    xs = _validate_points(points)
    if xs[-1] > n_max:
        raise ValueError(f"last checkpoint {xs[-1]} exceeds n_max {n_max}")
    pi = np.zeros(len(xs), dtype=np.int64)
    columns = np.zeros((len(keys), len(xs)))
    carry = np.zeros((GRID_LIMBS, len(keys), 1), dtype=np.int64)
    count = k = 0
    for _, hi, arr in iter_prime_arrays(int(xs[-1]), segment_size, workers):
        j = int(np.searchsorted(xs, hi))
        cuts = np.searchsorted(arr, xs[k:j], side="right")
        pi[k:j] = count + cuts
        terms = _term_arrays(arr, keys)
        # Points with one value of pi share a cut: each distinct cut is summed once.
        distinct, which = np.unique(cuts, return_inverse=True)
        ends = np.append(distinct, len(arr))
        at_cut = np.empty((len(keys), len(distinct)))
        base = 0
        for b in range(0, len(ends), BLOCK):
            block = ends[b : b + BLOCK]
            limbs = prefix_limbs([t[base : block[-1]] for t in terms], block - base, carry)
            out = at_cut[:, b : b + BLOCK]
            if out.shape[1]:
                out[...] = round_limbs(limbs[:, :, : out.shape[1]])
            carry[...] = limbs[:, :, -1:]
            base = block[-1]
        columns[:, k:j] = at_cut[:, which]
        count += len(arr)
        k = j
    return {"x": xs, "pi": pi, **dict(zip(keys, columns))}


def columns_at(cols: dict[str, np.ndarray], points: Sequence[int]) -> dict[str, np.ndarray]:
    """The checkpoint columns cols restricted to points, in the order given.

    Every point must be one of cols["x"]; the first that is not raises
    KeyError.
    """
    xs = cols["x"]
    want = np.asarray(points, dtype=np.int64)
    idx = np.minimum(np.searchsorted(xs, want), len(xs) - 1)
    missing = xs[idx] != want
    if missing.any():
        raise KeyError(int(want[missing][0]))
    return {key: col[idx] for key, col in cols.items()}
