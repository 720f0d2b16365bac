"""Exact accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Each sum is held exactly (see CompensatedAccumulator), so every checkpoint
value is the correctly rounded sum of the binary64 terms up to it.  That
depends only on which terms were added, never on how the sieve windows were
sized or which worker produced them.

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

    def add(self, x: float) -> None:
        self.add_array(np.array([x], dtype=np.float64))

    def add_array(self, arr: np.ndarray) -> None:
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
