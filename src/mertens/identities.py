"""Exact and near-exact identity checks over primes and finite sequences.

Everything here evaluates both sides of an identity by independent routes
and reports the disagreement.  Every sum is exact up to one final rounding
(math.fsum, or the prefix limbs of sums), so the tolerances below are
dominated by per-term rounding, not by accumulation.  stieltjes_scan reads
the integral at every ascending point from one exact prefix sum over the
jumps of pi, and factorial_log_scan every left side from one over ln j and
every right side from the exact row sums of a table of ln(p) * vp(n!).
Both scans return columns indexed like their points, judged by one
elementwise verdict; stieltjes_identity_check and factorial_log_identity
are their one-point cases, and return entry 0 as Python scalars.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Sequence

import numpy as np

from .bounds import log_spaced_integers, sorted_union
from .sums import _normalize, prefix_limbs, round_limbs

EPS = sys.float_info.epsilon

REL_TOL_EXACT = 1e-12  # identities exact in real arithmetic
REL_TOL_LOG_SUMS = 1e-10  # n-term log sums, n up to 1e5
LOG_BOUND_SLACK = 4.0 * EPS
# factorial_log_scan's exponent table holds at most this many entries per
# chunk of rows (or one row); at 2**20, verify --n-max 1e7 peaked ~2 MB higher.
FACTORIAL_CHUNK = 1 << 16


@dataclass
class IdentityVerdict:
    """Both sides and their gap: Python scalars at one point, arrays over a scan's points."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    abs_diff: float | np.ndarray
    rel_diff: float | np.ndarray
    passed: bool | np.ndarray


def _verdict(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> IdentityVerdict:
    """Judge float64 arrays (or numpy scalars) of both sides entry by entry.

    rel_diff = abs_diff / max(|lhs|, |rhs|), or 0 where that scale is 0 (both
    sides and abs_diff are 0 there, divided by 1, so no warning).  An entry
    passes when rel_diff <= tol, or when |lhs| < 1 and abs_diff <= tol; a NaN fails.
    """
    abs_diff = abs(lhs - rhs)
    scale = np.maximum(abs(lhs), abs(rhs))
    rel_diff = abs_diff / (scale + (scale == 0.0))
    passed = (rel_diff <= tol) | ((abs(lhs) < 1.0) & (abs_diff <= tol))
    return IdentityVerdict(lhs, rhs, abs_diff, rel_diff, passed)


def _entry(v: IdentityVerdict, i: int) -> IdentityVerdict:
    """Entry i of a verdict of columns (or of numpy scalars), as Python scalars."""
    return IdentityVerdict(*[x.item(i) for x in vars(v).values()])  # in field order


def log_one_minus_bound(x: float) -> IdentityVerdict:
    """Check -ln(1 - x) <= x + x^2 on [0, 1/2] (equality only at 0)."""
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"bound holds on [0, 0.5], got {x}")
    lhs = -math.log1p(-x)
    rhs = x + x * x
    v = _entry(_verdict(np.float64(lhs), np.float64(rhs), REL_TOL_EXACT), 0)
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
    f = list(map(float, seq.f[: n - m + 2]))
    g = list(map(float, seq.g[: n - m + 2]))
    lhs = math.fsum(map(mul, f, map(sub, g[1:], g)))
    tail = math.fsum(map(mul, g[1:], map(sub, f[1:], f)))
    rhs = f[-1] * g[-1] - f[0] * g[0] - tail
    return _entry(_verdict(np.float64(lhs), np.float64(rhs), REL_TOL_EXACT), 0)


def stieltjes_identity_check(x: int, primes: np.ndarray, s_lhs: float) -> IdentityVerdict:
    """S(x) = s_lhs against pi(x)/x + integral(pi(t)/t^2, t=1.9..x), exactly.

    The one-point stieltjes_scan.  pi vanishes on [1.9, 2), so the literal
    lower limit 1.9 contributes nothing; it matches the stated identity.
    """
    cols = {"x": np.array([x], dtype=np.int64), "s": np.array([s_lhs], dtype=np.float64)}
    return _entry(stieltjes_scan(cols, primes), 0)


def stieltjes_grid(limit: int, primes: np.ndarray) -> list[int]:
    """Scan grid: log-spaced thresholds plus each p - 1, p and p + 1 of primes, in [2, limit]."""
    xs = sorted_union(log_spaced_integers(2, limit), primes - 1, primes, primes + 1)
    return xs[(2 <= xs) & (xs <= limit)].tolist()


def stieltjes_scan(cols: dict[str, np.ndarray], primes: np.ndarray) -> IdentityVerdict:
    """S(x) = cols["s"] against pi(x)/x + integral(pi(t)/t^2), at each ascending cols["x"].

    The integral is the sum over the jumps of pi: k (1/p_k - 1/p_{k+1}) for
    k < pi(x), then the tail pi(x) (1/p_pi(x) - 1/x).  prefix_limbs sums the
    jumps exactly at the cuts pi(x) - 1 and adds each point's tail as exact
    limbs, the differences of its prefix sums over the tails, so round_limbs
    gives every integral correctly rounded.  Points may repeat.  primes holds
    every prime <= the last x, and pi of the last x must be below 2**23.
    Entry i of the verdict's columns judges cols["x"][i]; its lhs is cols["s"].
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
    return _verdict(cols["s"], rhs, REL_TOL_EXACT)


@functools.lru_cache(maxsize=1024)  # each p is trial-divided once, not on every call
def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def legendre_vp(n: int, p: int) -> int:
    """Exponent of the prime p in n!, i.e. sum of floor(n / p^k)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    _require_prime(p)
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


@dataclass
class FactorialLogCheck:
    identity: IdentityVerdict
    stirling_ratio: float | np.ndarray  # (ln n! - n ln n) / n, in [-1, 0] for n >= 1
    stirling_ok: bool | np.ndarray


def factorial_log_identity(n: int, primes: np.ndarray) -> FactorialLogCheck:
    """ln(n!) summed directly against its prime-power decomposition.

    The one-point factorial_log_scan.
    """
    c = factorial_log_scan([n], primes)
    return FactorialLogCheck(_entry(c.identity, 0), c.stirling_ratio.item(), c.stirling_ok.item())


def _factorial_exponents(ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """vp(n!) for each n of ascending ns (rows) and p of ascending ps (columns).

    Legendre's sum of floor(n / q) over q = p, p^2, ...; the q <= max(ns)
    of each pass are a prefix of the columns, since p^i ascends with p.
    """
    exps = np.zeros((len(ns), len(ps)), dtype=np.int64)
    q = ps
    while len(q := q[q <= ns[-1]]):
        exps[:, : len(q)] += ns[:, None] // q
        q = q * ps[: len(q)]
    return exps


def factorial_log_scan(ns: Sequence[int], primes: np.ndarray) -> FactorialLogCheck:
    """factorial_log_identity at each n of ns, ascending, 1 <= n <= 2**23, as columns.

    lhs = sum of ln j for j = 2..n, every one read from one exact prefix sum
    of the np.log terms (n = 1 gives 0), so each is correctly rounded.
    rhs = sum over primes p <= n of ln(p) * vp(n!), from the ascending array
    primes, which must hold every prime <= max(ns).  The exponents come as
    a table, rows of ns by primes, in chunks of at most FACTORIAL_CHUNK
    entries (or one row); each row of ln(p) * vp(n!), with ln(p) from
    math.log, is summed exactly by prefix_limbs and rounded once, so rhs is
    bit-equal to math.fsum of the same products.
    Also reports the weak-Stirling ratio, which stays in [-1, 0] because
    (n/e)^n <= n! <= n^n; n ln n takes ln n from math.log.
    """
    given = np.asarray(ns)  # checked before the int64 cast, which n >= 2**63 would overflow
    if len(given) == 0 or given[0] < 1 or given[-1] > 1 << 23 or np.any(given[1:] < given[:-1]):
        raise ValueError("factorial_log_scan needs ascending n with 1 <= n <= 2**23")
    cuts = given.astype(np.int64) - 1  # ln 2 .. ln n are the first n - 1 terms
    logs = np.log(np.arange(2, cuts[-1] + 2, dtype=np.float64))
    lhs = round_limbs(prefix_limbs([logs], cuts))[0]
    n_rows = cuts + 1
    ks = np.searchsorted(primes, n_rows, side="right")  # pi(n) of each row
    ps = primes[: ks[-1]]
    log_ps = np.array(list(map(math.log, ps.tolist())))
    rhs = np.zeros(len(n_rows))
    # A chunk from row a holds row i while (i - a + 1) * max(pi(n_i), 1) <= FACTORIAL_CHUNK,
    # i.e. while ends[i] <= a; ends ascends, so one searchsorted ends each chunk.
    ends = np.arange(1, len(ks) + 1) - FACTORIAL_CHUNK // np.maximum(ks, 1)
    a = 0
    while a < len(n_rows):
        b = max(a + 1, int(np.searchsorted(ends, a, side="right")))
        k = ks[b - 1]
        if k:
            terms = _factorial_exponents(n_rows[a:b], ps[:k]) * log_ps[:k]
            limbs = prefix_limbs([terms.ravel()], np.arange(b - a + 1) * k)
            rhs[a:b] = round_limbs(_normalize(np.diff(limbs, axis=2)))[0]
        a = b
    ratio = (lhs - n_rows * np.array(list(map(math.log, n_rows.tolist())))) / n_rows
    ok = (-1.0 <= ratio) & (ratio <= 0.0)
    return FactorialLogCheck(_verdict(lhs, rhs, REL_TOL_LOG_SUMS), ratio, ok)


@dataclass
class EulerProductCheck:
    product: Fraction  # exact finite Euler product over p <= n
    partial_smooth_sum: float  # sum of 1/j over n-smooth j <= cutoff
    bracket_ok: bool


def _smooth_values(primes: list[int], cutoff: int) -> np.ndarray:
    """Every value <= cutoff with no prime factor outside primes, each once, unordered.

    Each prime p multiplies the values found so far by p, p^2, ... up to cutoff.
    """
    smooth = np.ones(1, dtype=np.int64)
    for p in primes:
        power = smooth
        while len(power := power[power <= cutoff // p] * p):
            smooth = np.concatenate([smooth, power])
    return smooth


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
    inv = 1.0 / smooth  # fsum rounds correctly in any order
    partial = math.fsum(inv.tolist())
    partial_half = math.fsum(inv[smooth <= cutoff // 2].tolist())
    bracket_ok = Fraction(partial) < product and partial > partial_half
    return EulerProductCheck(product, partial, bracket_ok)
