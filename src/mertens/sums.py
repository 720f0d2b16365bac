"""Compensated accumulation of the four prime sums S, A, Q, L.

S(x) = sum 1/p, A(x) = sum ln(p)/p, Q(x) = sum 1/p^2 and
L(x) = sum ln(p)/(p^2 - p), each over primes p <= x.

Accumulation is Kahan-Neumaier, applied term by term in ascending prime
order.  Because the running (sum, compensation) pair is carried across
segment boundaries, the result depends only on the term sequence, never on
how the sieve windows were sized or which worker produced them.

Checkpoints come back as columns: one numpy array per quantity, indexed
like the requested points.
"""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np

from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    iter_checkpoint_events,
    iter_prime_arrays,
    _validate_points,
)

EPS = sys.float_info.epsilon

# Numeric caps standing in for boundedness claims: Q is below sum 1/i^2
# (pi^2/6 ~ 1.6449) and L is below the convergent sum ln(j)/(j^2 - j).
Q_CAP = 1.645
L_CAP = 2.0


def _kahan_neumaier_py(s: float, c: float, terms) -> tuple[float, float]:
    for x in terms:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s, c


class CompensatedAccumulator:
    """Kahan-Neumaier running sum: float result plus a compensation term.

    After k additions of magnitude <= 1 the accumulated error stays below
    4*k*eps*max|partial|, far better than naive addition's k*eps growth.
    """

    __slots__ = ("sum", "compensation")

    def __init__(self, value: float = 0.0) -> None:
        self.sum = float(value)
        self.compensation = 0.0

    def add(self, x: float) -> None:
        self.sum, self.compensation = _kahan_neumaier_py(self.sum, self.compensation, (x,))

    def add_array(self, arr: np.ndarray) -> None:
        self.sum, self.compensation = _kahan_neumaier_py(
            self.sum, self.compensation, arr.tolist()
        )

    @property
    def value(self) -> float:
        return self.sum + self.compensation

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
    s, a, q, l = (np.zeros(len(pts)) for _ in range(4))
    acc_s, acc_a, acc_q, acc_l = (CompensatedAccumulator() for _ in range(4))
    count = k = 0
    arrays = iter_prime_arrays(pts[-1], segment_size, workers)
    for kind, payload in iter_checkpoint_events(arrays, pts):
        if kind == "terms":
            t_s, t_a, t_q, t_l = _term_arrays(payload)
            acc_s.add_array(t_s)
            acc_a.add_array(t_a)
            acc_q.add_array(t_q)
            acc_l.add_array(t_l)
            count += len(payload)
        else:
            pi[k] = count
            s[k], a[k], q[k], l[k] = acc_s.value, acc_a.value, acc_q.value, acc_l.value
            k += 1
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
