"""Exact accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Each sum is held exactly (see CompensatedAccumulator), so every checkpoint
value is the correctly rounded sum of the binary64 terms up to it.  That
depends only on which terms were added, never on how the sieve windows were
sized or which worker produced them.  A long term array is first reduced
exactly to a few floats through integer limbs (_exact_chunks), so math.fsum
sees about ten items instead of one per prime.

Checkpoints come back as columns: one numpy array per quantity, indexed
like the requested points.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    iter_checkpoint_events,
    iter_prime_arrays,
    _validate_points,
)


# add_array reduces arrays at least this long to integer limbs before fsum.
# The limb route costs ~35 us a call and ~10 ns a term, the per-element route
# ~100 ns a term; on real term arrays near 1e5, 1e7 and 1e8 they cross
# between 320 and 352 elements (2-core Xeon VM, numpy 2.4.6).
COMPRESS_MIN = 384
LIMB_BITS = 30
_LIMB = float(1 << LIMB_BITS)
_CHUNK_MASK = (1 << 53) - 1


def _exact_chunks(arr: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of arr.

    With 2**top > max|x|, r = arr * 2**-top lies in (-1, 1).  Each pass
    takes the next LIMB_BITS bits of every element as an integer,
    h = trunc(r * 2**LIMB_BITS), and keeps r - h in (-1, 1); both steps are
    exact (floor would not be: -2**-60 - floor(-2**-60) rounds to 1), and the
    passes end when every remainder is zero.  |h| < 2**30, so the int64 sum
    of one limb is exact for len(arr) < 2**33.  The limb sums make one
    Python int, which is split into 53-bit pieces that are floats exactly:
    each piece times its power of two is a multiple of 2**-1074, like every
    term, so even below the normal range it needs no rounding.
    Raises ValueError for a non-finite element and OverflowError when the
    sum leaves the float range.
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
    h = np.empty_like(r)
    total = passes = 0
    while r.any():
        r *= _LIMB
        np.trunc(r, out=h)
        r -= h
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


def _term_arrays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    pf = values.astype(np.float64)
    inv = 1.0 / pf
    logs = np.log(pf)
    return inv, logs / pf, 1.0 / (pf * pf), logs / (pf * pf - pf)


def accumulate_checkpoints(
    n_max: int,
    points: Sequence[int],
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """One sieve pass giving x, pi(x), S, A, Q and L at each requested point.

    Returns one array per key "x", "pi", "s", "a", "q" and "l", with entry i
    taken at points[i].  Points must be strictly ascending with
    points[-1] <= n_max.  The columns are bit-identical for any segment size
    and worker count.
    """
    pts = _validate_points(points)
    if pts[-1] > n_max:
        raise ValueError(f"last checkpoint {pts[-1]} exceeds n_max {n_max}")
    pi = np.zeros(len(pts), dtype=np.int64)
    sums = np.zeros((4, len(pts)))  # rows S, A, Q, L
    accs = [CompensatedAccumulator() for _ in range(4)]
    values = [0.0] * 4
    count = k = 0
    arrays = iter_prime_arrays(pts[-1], segment_size, workers)
    for kind, payload in iter_checkpoint_events(arrays, pts):
        if kind == "terms":
            for acc, terms in zip(accs, _term_arrays(payload)):
                acc.add_array(terms)
            values = [acc.value for acc in accs]
            count += len(payload)
        else:
            pi[k] = count
            sums[:, k] = values
            k += 1
    s, a, q, l = sums
    return {"x": np.array(pts, dtype=np.int64), "pi": pi, "s": s, "a": a, "q": q, "l": l}


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
