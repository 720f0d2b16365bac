"""Exact and near-exact identity checks over primes and finite sequences.

Everything here evaluates both sides of an identity by independent routes
and reports the disagreement.  Every sum is exact up to one final rounding
(math.fsum, or the prefix limbs of sums), so the tolerances below are
dominated by per-term rounding, not by accumulation.  stieltjes_scan reads
the integral at every ascending point from one exact prefix sum over the
jumps of pi, and factorial_log_scan every left side from one over ln j;
stieltjes_identity_check and factorial_log_identity are their one-point
cases.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import log_spaced_integers
from .sums import prefix_limbs, round_limbs

EPS = sys.float_info.epsilon

REL_TOL_EXACT = 1e-12  # identities exact in real arithmetic
REL_TOL_LOG_SUMS = 1e-10  # n-term log sums, n up to 1e5
LOG_BOUND_SLACK = 4.0 * EPS


@dataclass
class IdentityVerdict:
    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    passed: bool


def _verdict(lhs: float, rhs: float, tol: float) -> IdentityVerdict:
    abs_diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_diff = abs_diff / scale if scale > 0.0 else 0.0
    passed = rel_diff <= tol or (abs(lhs) < 1.0 and abs_diff <= tol)
    return IdentityVerdict(lhs, rhs, abs_diff, rel_diff, passed)


def log_one_minus_bound(x: float) -> IdentityVerdict:
    """Check -ln(1 - x) <= x + x^2 on [0, 1/2] (equality only at 0)."""
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"bound holds on [0, 0.5], got {x}")
    lhs = -math.log1p(-x)
    rhs = x + x * x
    v = _verdict(lhs, rhs, REL_TOL_EXACT)
    v.passed = lhs <= rhs + LOG_BOUND_SLACK
    return v


@dataclass
class SequencePair:
    """Finite sequences f, g over the index window [m, n+1].

    Position i - m of each list holds the value at index i; both lists must
    reach index n + 1 because the summation-by-parts identity references
    f_{n+1} and g_{n+1}.
    """

    f: Sequence[float]
    g: Sequence[float]
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"window start must be >= 1, got m={self.m}")
        if self.n < self.m:
            raise ValueError(f"window must satisfy m <= n, got [{self.m}, {self.n}]")
        need = self.n - self.m + 2
        if len(self.f) < need or len(self.g) < need:
            raise IndexError(
                f"sequences must cover indices {self.m}..{self.n + 1} "
                f"({need} entries), got lengths {len(self.f)} and {len(self.g)}"
            )


def abel_identity_eval(seq: SequencePair) -> IdentityVerdict:
    """Evaluate both sides of summation by parts and compare.

    sum_{i=m}^{n} f_i (g_{i+1} - g_i)
        = f_{n+1} g_{n+1} - f_m g_m - sum_{i=m}^{n} g_{i+1} (f_{i+1} - f_i)
    """
    m, n = seq.m, seq.n
    f = [float(v) for v in seq.f[: n - m + 2]]
    g = [float(v) for v in seq.g[: n - m + 2]]
    lhs = math.fsum(f[i] * (g[i + 1] - g[i]) for i in range(n - m + 1))
    tail = math.fsum(g[i + 1] * (f[i + 1] - f[i]) for i in range(n - m + 1))
    rhs = f[-1] * g[-1] - f[0] * g[0] - tail
    return _verdict(lhs, rhs, REL_TOL_EXACT)


def stieltjes_identity_check(x: int, primes: np.ndarray, s_lhs: float) -> IdentityVerdict:
    """S(x) = s_lhs against pi(x)/x + integral(pi(t)/t^2, t=1.9..x), exactly.

    The one-point stieltjes_scan.  pi vanishes on [1.9, 2), so the literal
    lower limit 1.9 contributes nothing; it matches the stated identity.
    """
    cols = {"x": np.array([x], dtype=np.int64), "s": np.array([s_lhs], dtype=np.float64)}
    return stieltjes_scan(cols, primes)[0][1]


def stieltjes_grid(limit: int, primes: np.ndarray) -> list[int]:
    """Scan grid: log-spaced thresholds plus p - 1, p and p + 1 for each p in primes."""
    xs = set(log_spaced_integers(2, limit))
    for p in primes.tolist():
        for x in (p - 1, p, p + 1):
            if 2 <= x <= limit:
                xs.add(x)
    return sorted(xs)


def stieltjes_scan(
    cols: dict[str, np.ndarray], primes: np.ndarray
) -> list[tuple[int, IdentityVerdict]]:
    """S(x) = cols["s"] against pi(x)/x + integral(pi(t)/t^2), at each ascending cols["x"].

    The integral is the sum over the jumps of pi: k (1/p_k - 1/p_{k+1}) for
    k < pi(x), then the tail pi(x) (1/p_pi(x) - 1/x).  prefix_limbs sums the
    jumps exactly at the cuts pi(x) - 1 and adds each point's tail as exact
    limbs, the differences of its prefix sums over the tails, so round_limbs
    gives every integral correctly rounded.  Points may repeat.  primes holds
    every prime <= the last x, and pi of the last x must be below 2**23.
    """
    xs = cols["x"]
    if len(xs) == 0 or xs[0] < 2 or np.any(xs[1:] < xs[:-1]):
        raise ValueError("scan needs ascending thresholds x >= 2")
    ks = np.searchsorted(primes, xs, side="right")
    inv = 1.0 / primes[: ks[-1]].astype(np.float64)
    jumps = np.arange(1, ks[-1], dtype=np.float64) * (inv[:-1] - inv[1:])
    tails = ks * (inv[ks - 1] - 1.0 / xs)
    each_tail = np.diff(prefix_limbs([tails], np.arange(len(xs) + 1)), axis=2)
    rhs = ks / xs + round_limbs(prefix_limbs([jumps], ks - 1, each_tail))[0]
    return [
        (x, _verdict(s, r, REL_TOL_EXACT))
        for x, s, r in zip(xs.tolist(), cols["s"].tolist(), rhs.tolist())
    ]


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def _vp_unchecked(n: int, p: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def legendre_vp(n: int, p: int) -> int:
    """Exponent of the prime p in n!, i.e. sum of floor(n / p^k)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    _require_prime(p)
    return _vp_unchecked(n, p)


@dataclass
class FactorialLogCheck:
    identity: IdentityVerdict
    stirling_ratio: float  # (ln n! - n ln n) / n, in [-1, 0] for n >= 1
    stirling_ok: bool


def factorial_log_identity(n: int, primes: np.ndarray) -> FactorialLogCheck:
    """ln(n!) summed directly against its prime-power decomposition.

    The one-point factorial_log_scan.
    """
    return factorial_log_scan([n], primes)[0]


def _add_exponents(exps: list[int], ps: list[int], n: int) -> None:
    """Add the exponent of each prime ps[i] in n >= 1 to exps[i], by trial division."""
    for i, p in enumerate(ps):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exps[i] += 1
    if n > 1:
        exps[bisect_left(ps, n)] += 1


def factorial_log_scan(ns: Sequence[int], primes: np.ndarray) -> list[FactorialLogCheck]:
    """factorial_log_identity at each n of ns, ascending, 1 <= n <= 2**23.

    lhs = sum of ln j for j = 2..n, every one read from one exact prefix sum
    of the np.log terms (n = 1 gives 0), so each is correctly rounded.
    rhs = sum over primes p <= n of ln(p) * vp(n!) by math.fsum, taken from
    the ascending array primes, which must hold every prime <= max(ns).
    vp(n!) = vp((n - 1)!) + vp(n), so along a run n - 1, n the exponents
    are carried by factoring n; after a jump they are recomputed.
    Also reports the weak-Stirling ratio, which stays in [-1, 0] because
    (n/e)^n <= n! <= n^n.
    """
    cuts = np.asarray(ns, dtype=np.int64) - 1  # ln 2 .. ln n are the first n - 1 terms
    if len(cuts) == 0 or cuts[0] < 0 or np.any(cuts[1:] < cuts[:-1]):
        raise ValueError("factorial_log_scan needs ascending n >= 1")
    logs = np.log(np.arange(2, cuts[-1] + 2, dtype=np.float64))
    lhs = round_limbs(prefix_limbs([logs], cuts))[0]
    ps = primes[: np.searchsorted(primes, cuts[-1] + 1, side="right")].tolist()
    log_ps = [math.log(p) for p in ps]
    exps = [0] * len(ps)  # vp(prev!) for each p in ps
    prev = 1
    out = []
    for n, left in zip((cuts + 1).tolist(), lhs.tolist()):
        k = bisect_right(ps, n)
        if n == prev + 1:
            _add_exponents(exps, ps, n)
        elif n != prev:
            exps[:k] = [_vp_unchecked(n, p) for p in ps[:k]]
        prev = n
        rhs = math.fsum(log_p * e for log_p, e in zip(log_ps[:k], exps))
        ratio = (left - n * math.log(n)) / n
        out.append(
            FactorialLogCheck(
                identity=_verdict(left, rhs, REL_TOL_LOG_SUMS),
                stirling_ratio=ratio,
                stirling_ok=-1.0 <= ratio <= 0.0,
            )
        )
    return out


@dataclass
class EulerProductCheck:
    product: Fraction  # exact finite Euler product over p <= n
    partial_smooth_sum: float  # sum of 1/j over n-smooth j <= cutoff
    bracket_ok: bool


def _smooth_values(primes: list[int], cutoff: int) -> list[int]:
    # Every n-smooth value <= cutoff, generated by multiplying prime powers
    # with non-decreasing factors; no integer is ever factored.
    out = [1]

    def extend(start: int, value: int) -> None:
        for i in range(start, len(primes)):
            nxt = value * primes[i]
            if nxt > cutoff:
                break
            out.append(nxt)
            extend(i, nxt)

    extend(0, 1)
    return out


def euler_product_check(n: int, cutoff: int, primes: np.ndarray) -> EulerProductCheck:
    """Bracket the finite Euler product by partial sums over smooth numbers.

    prod_{p <= n} (1 - 1/p)^(-1) equals the full sum of 1/j over n-smooth j,
    so truncating at a cutoff must undershoot the exact rational product,
    with the gap shrinking as the cutoff grows (checked at cutoff/2).
    primes is ascending and holds every prime <= n.
    """
    if not 2 <= n <= 50:
        raise ValueError(f"exact product supported for 2 <= n <= 50, got {n}")
    if cutoff < n:
        raise ValueError(f"cutoff must be >= n, got {cutoff} < {n}")
    ps = primes[: np.searchsorted(primes, n, side="right")].tolist()
    product = Fraction(1)
    for p in ps:
        product *= Fraction(p, p - 1)
    smooth = _smooth_values(ps, cutoff)
    partial = math.fsum(1.0 / j for j in smooth)
    partial_half = math.fsum(1.0 / j for j in smooth if j <= cutoff // 2)
    bracket_ok = Fraction(partial) < product and partial > partial_half
    return EulerProductCheck(product, partial, bracket_ok)
