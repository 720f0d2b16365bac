"""Exact accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Every checkpoint value is the correctly rounded sum of the binary64 terms up
to it.  prefix_limbs holds each running sum exactly as integer limbs on one
fixed binary grid and reads every checkpoint of a sieve piece from them in
a few vector steps, so the values depend only on which terms were added,
never on how the sieve windows were sized or which worker produced them.
CompensatedAccumulator keeps an exact running sum as floats for callers that
add terms one array at a time.

Checkpoints come back as columns: one numpy array per quantity, indexed
like the requested points; a caller that reads only some of the sums asks
for those alone, and the others are never computed.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, iter_prime_arrays, _validate_points


# add_array reduces arrays at least this long to integer limbs before fsum.
# The limb route costs ~35 us a call and ~10 ns a term, the per-element route
# ~100 ns a term; on real term arrays near 1e5, 1e7 and 1e8 they cross
# between 320 and 352 elements (2-core Xeon VM, numpy 2.4.6).
COMPRESS_MIN = 384
LIMB_BITS = 30
_LIMB = float(1 << LIMB_BITS)
_LIMB_MASK = (1 << LIMB_BITS) - 1
_CHUNK_MASK = (1 << 53) - 1
# prefix_limbs' grid: limb j has unit 2**(-LIMB_BITS * j), so six limbs reach
# 2**-150; the lowest bit of 1/p**2 below the sieve cap 2**40 is 2**-132.
GRID_LIMBS = 6
# accumulate_checkpoints reads at most this many checkpoints per prefix_limbs
# call, so its limb arrays stay small whatever the number of points (at 2**12,
# verify --n-max 1e7 peaked up to 0.7 MB higher: freed heap kept by malloc).
BLOCK = 1 << 11
SUMS = ("s", "a", "q", "l")


def _limb_passes(r: np.ndarray, scale: float = _LIMB) -> Iterator[np.ndarray]:
    """Split r exactly into LIMB_BITS-bit integer limbs, consuming it.

    Every |r * scale| must be below 2**LIMB_BITS.  Each pass takes the next
    LIMB_BITS bits of every element as an integer: r *= scale (2**LIMB_BITS
    after the first pass), h = trunc(r), r -= h, all exact (floor would not
    be: -2**-60 - floor(-2**-60) rounds to 1), so |h| < 2**30 and r stays in
    (-1, 1).  The passes, yielded as one reused buffer h, end when every
    remainder is zero.
    """
    h = np.empty_like(r)
    while True:
        r *= scale
        np.trunc(r, out=h)
        r -= h
        yield h
        if not r.any():
            return
        scale = _LIMB


def _exact_chunks(arr: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of arr.

    With 2**top > max|x|, r = arr * 2**-top lies in (-1, 1) and _limb_passes
    splits it.  The int64 sum of one limb is exact for len(arr) < 2**33.
    The limb sums make one Python int, which is split into 53-bit pieces
    that are floats exactly: each piece times its power of two is a multiple
    of 2**-1074, like every term, so even below the normal range it needs no
    rounding.  Raises ValueError for a non-finite element and OverflowError
    when the sum leaves the float range.
    """
    mag = np.abs(arr)
    peak = float(mag.max())
    if not math.isfinite(peak):
        raise ValueError(f"non-finite term {peak!r}: every term must be finite")
    if peak == 0.0:
        return []
    top = math.frexp(peak)[1]
    r = np.ldexp(arr, -top)
    out = []
    if top > 0:  # scaling down could round terms below 2**(top - 1022): pass them as they are
        tiny = mag < math.ldexp(1.0, top - 1022)
        out = arr[tiny].tolist()
        r[tiny] = 0.0
    total = passes = 0
    for h in _limb_passes(r):
        total = (total << LIMB_BITS) + int(h.sum(dtype=np.int64))
        passes += 1
    exp = top - LIMB_BITS * passes  # the sum is total * 2**exp
    sign = -1.0 if total < 0 else 1.0
    total = abs(total)
    while total:
        if piece := total & _CHUNK_MASK:
            out.append(sign * math.ldexp(piece, exp))
        total >>= 53
        exp += 53
    return out


class CompensatedAccumulator:
    """Exact running sum, kept as a canonical expansion of floats.

    parts[0] is the exact sum of every term added so far, correctly rounded;
    parts[1] is the remainder, correctly rounded, and so on until the
    remainder is zero (an empty list means zero).  The state depends only on
    the exact sum, never on the order of the terms or how add_array calls
    split them.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[float] = []

    def add_array(self, arr: np.ndarray) -> None:
        """Add every element of arr; a non-finite one raises ValueError and adds nothing.

        An array of COMPRESS_MIN or more elements enters as its _exact_chunks,
        a shorter one element by element; either way math.fsum then finds the
        new canonical expansion of the same exact sum.
        """
        head = _exact_chunks(arr) if len(arr) >= COMPRESS_MIN else arr.tolist()
        work = head + self.parts
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
    cuts ascend and end at n, so the last column holds each row's whole sum;
    carry is such a column, limbs[:, :, -1:] of the call for the terms
    before these, or None for zero.  Every sum must stay below 2**30.
    Returns normalized limbs, shape (GRID_LIMBS, len(terms), len(cuts)):
    column k of row i is sum_j limbs[j, i, k] * 2**(-LIMB_BITS j), and
    round_limbs rounds it.

    Each row is split by _limb_passes from its own top bit 2**top.  Per
    pass, np.add.reduceat sums the limbs between consecutive cuts: integers
    below 2**53, so float64 holds them exactly.  They are shifted onto the
    grid, summed along the cuts, and carried.
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
        passes = _limb_passes(row, 2.0 ** (LIMB_BITS - top))
        for j, h in enumerate(passes, (d - top) // LIMB_BITS + 1):
            pieces[nonempty] = np.add.reduceat(h, starts)
            a = pieces.astype(np.int64)
            high, low = a >> (LIMB_BITS - d), (a & ((1 << (LIMB_BITS - d)) - 1)) << d
            if j >= GRID_LIMBS and (low.any() or (j > GRID_LIMBS and high.any())):
                raise ValueError("every bit of every term must be at least 2**-150")
            limbs[min(j - 1, GRID_LIMBS - 1), i] += high  # a part past the grid is 0 here
            limbs[min(j, GRID_LIMBS - 1), i] += low
    np.cumsum(limbs, axis=2, out=limbs)
    if carry is not None:
        limbs += carry
    for j in range(GRID_LIMBS - 1, 0, -1):
        limbs[j - 1] += limbs[j] >> LIMB_BITS
        limbs[j] &= _LIMB_MASK
    if (limbs[0] >> LIMB_BITS).any():
        raise ValueError("every sum must be below 2**30")
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
    piece's checkpoints and its end, in blocks of at most BLOCK cuts; the
    limbs at the end of a block carry into the next.
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
        ends = np.append(cuts, len(arr))
        dest = columns[:, k:j]
        base = 0
        for b in range(0, len(ends), BLOCK):
            block = ends[b : b + BLOCK]
            limbs = prefix_limbs([t[base : block[-1]] for t in terms], block - base, carry)
            out = dest[:, b : b + BLOCK]
            if out.shape[1]:
                out[...] = round_limbs(limbs[:, :, : out.shape[1]])
            carry[...] = limbs[:, :, -1:]
            base = block[-1]
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
