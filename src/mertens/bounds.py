"""Inequality scans, the Mertens constant, and beyond-sieve extrapolation.

Every check reports a BoundReport, or a list of them, with the worst signed
margin (rhs - lhs) over the scanned range; a violation is a strictly
negative margin.  Scans are exhaustive where cheap and log-spaced (256
points per decade) beyond, since the scanned quantities only change at
primes.  No check sieves: checks of S, A, Q and L take the checkpoint
columns they scan (see accumulate_checkpoints), and the exact integer checks
take an ascending prime array holding every prime they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sieve import primes_array

B = 0.261497212847643  # Mertens' constant: S(x) ~ ln ln x + B
EULER_SLACK = 0.48  # S(n) >= ln ln n - EULER_SLACK
RS_MIN_N = 286  # threshold for the Rosser-Schoenfeld envelope
# Numeric caps standing in for boundedness claims: |A(x) - ln x| stays below
# RESIDUAL_CAP, Q is below sum 1/i^2 (pi^2/6 ~ 1.6449) and L is below the
# convergent sum ln(j)/(j^2 - j).
RESIDUAL_CAP = 2.0
Q_CAP = 1.645
L_CAP = 2.0

LOG_POINTS_PER_DECADE = 256
CHEBYSHEV_BLOCK = 1 << 16  # integers per block; pi is counted per block, so memory is flat in hi


@dataclass
class BoundReport:
    name: str
    lo: int
    hi: int
    scanned: int
    violations: int
    worst_margin: float
    worst_arg: int


def _combined_report(
    name: str, lo: int, hi: int, scans: Iterable[tuple[np.ndarray, np.ndarray]]
) -> BoundReport:
    """Fold (arguments, margins) pairs; ties go to the lowest argument."""
    scanned = 0
    violations = 0
    best = (math.inf, -1)
    for xs, margins in scans:
        scanned += len(margins)
        violations += int(np.count_nonzero(margins < 0.0))
        i = int(np.argmin(margins))  # first occurrence = lowest argument
        best = min(best, (float(margins[i]), int(xs[i])))
    return BoundReport(name, lo, hi, scanned, violations, best[0], best[1])


def pi_table(limit: int) -> np.ndarray:
    """Dense table t with t[i] = pi(i) for 0 <= i <= limit."""
    flags = np.zeros(limit + 1, dtype=bool)
    ps = primes_array(limit)
    flags[ps] = True
    return np.cumsum(flags, dtype=np.int64)


def log_spaced_integers(lo: int, hi: int) -> list[int]:
    """Distinct integers ~log-uniform in [lo, hi], endpoints included."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    out = {lo, hi}
    k_lo = math.floor(LOG_POINTS_PER_DECADE * math.log10(lo))
    k_hi = math.ceil(LOG_POINTS_PER_DECADE * math.log10(hi))
    for k in range(k_lo, k_hi + 1):
        x = round(10.0 ** (k / LOG_POINTS_PER_DECADE))
        if lo <= x <= hi:
            out.add(x)
    return sorted(out)


def binomial_prime_product_check(n: int, primes: np.ndarray) -> BoundReport:
    """Exact big-integer check of the chain behind pi(x) = O(x / ln x).

    Verifies n^(pi(2n) - pi(n)) <= prod_{n < p <= 2n} p <= C(2n, n) <= 4^n.
    Margins are reported in log space (nats); verdicts use exact integers.
    primes is ascending and holds every prime <= 2n + 1.
    """
    return binomial_prime_product_scan(n, n, primes)


def binomial_prime_product_scan(lo: int, hi: int, primes: np.ndarray) -> BoundReport:
    """binomial_prime_product_check over every n in [lo, hi], incrementally.

    The central binomial, the prime product over (n, 2n] and 4^n are all
    updated in O(number-length) per step, so scanning [1, 2000] stays fast.
    primes is ascending and holds every prime <= 2 hi + 1.
    """
    if not 1 <= lo <= hi <= 5000:
        raise ValueError(f"scan range must satisfy 1 <= lo <= hi <= 5000, got [{lo}, {hi}]")
    flags = np.zeros(2 * hi + 2, dtype=bool)
    flags[primes[: np.searchsorted(primes, 2 * hi + 1, side="right")]] = True
    is_prime = flags.tolist()

    binom = math.comb(2 * lo, lo)
    window = [p for p in range(lo + 1, 2 * lo + 1) if is_prime[p]]
    prod = math.prod(window)
    delta = len(window)
    power4 = 4**lo

    worst = (math.inf, -1)
    violations = 0
    for n in range(lo, hi + 1):
        npow = n**delta
        margins = (
            math.log(prod) - math.log(npow),
            math.log(binom) - math.log(prod),
            math.log(power4) - math.log(binom),
        )
        violations += int(npow > prod) + int(prod > binom) + int(binom > power4)
        worst = min(worst, (min(margins), n))  # ties keep the lowest n
        # slide (n, 2n] to (n+1, 2n+2]: drop n+1, pick up 2n+1
        if is_prime[n + 1]:
            prod //= n + 1
            delta -= 1
        if is_prime[2 * n + 1]:
            prod *= 2 * n + 1
            delta += 1
        binom = binom * (2 * (2 * n + 1)) // (n + 1)
        power4 *= 4
    scanned = 3 * (hi - lo + 1)
    return BoundReport("binomial_prime_product", lo, hi, scanned, violations, worst[0], worst[1])


def chebyshev_dyadic_check(lo: int, hi: int, primes: np.ndarray) -> BoundReport:
    """Scan the dyadic prime-count bound and its telescoped consequence.

    For integer y in [lo, hi]: pi(y) - pi(y/2) <= 4 (y/ln y - (y/2)/ln(y/2));
    for integer x in the same range: pi(x) - pi(16) <= 4 x / ln x.
    primes is ascending and holds every prime <= hi.  The range is scanned
    in blocks of CHEBYSHEV_BLOCK integers, each counting pi by a binary
    search in primes, so memory beyond primes is flat in hi.
    """
    if lo < 16:
        raise ValueError(f"dyadic bound needs lo >= 16, got {lo}")
    if hi < lo:
        raise ValueError(f"empty scan range [{lo}, {hi}]")
    pi16 = int(np.searchsorted(primes, 16, side="right"))

    def blocks():
        for start in range(lo, hi + 1, CHEBYSHEV_BLOCK):
            ys = np.arange(start, min(start + CHEBYSHEV_BLOCK, hi + 1), dtype=np.int64)
            pi_y = np.searchsorted(primes, ys, side="right")
            pi_half = np.searchsorted(primes, ys // 2, side="right")
            yf = ys.astype(np.float64)
            half = yf * 0.5
            y_over_log = yf / np.log(yf)
            yield ys, 4.0 * (y_over_log - half / np.log(half)) - (pi_y - pi_half)
            yield ys, 4.0 * y_over_log - (pi_y - pi16).astype(np.float64)

    return _combined_report("chebyshev_dyadic", lo, hi, blocks())


def mertens_residual_scan(cols: dict[str, np.ndarray]) -> list[tuple[int, float]]:
    """r(x) = A(x) - ln x at each checkpoint; raises if |r| ever exceeds the cap."""
    xs = cols["x"].tolist()
    if xs[0] < 2:
        raise ValueError(f"residual scan needs points >= 2, got {xs[0]}")
    out = [(x, a - math.log(x)) for x, a in zip(xs, cols["a"].tolist())]
    for x, r in out:
        if abs(r) > RESIDUAL_CAP:
            raise ArithmeticError(f"residual cap {RESIDUAL_CAP} exceeded: r({x}) = {r}")
    return out


def residual_caps_check(cols: dict[str, np.ndarray]) -> list[BoundReport]:
    """Cap checks at precomputed checkpoints: |A - ln x| <= 2, Q < 1.645, L < 2."""
    xs = cols["x"]
    lo, hi = int(xs[0]), int(xs[-1])
    resid = np.abs(cols["a"] - np.log(xs.astype(np.float64)))
    return [
        _combined_report("mertens_residual_cap", lo, hi, [(xs, RESIDUAL_CAP - resid)]),
        _combined_report("q_cap", lo, hi, [(xs, Q_CAP - cols["q"])]),
        _combined_report("l_cap", lo, hi, [(xs, L_CAP - cols["l"])]),
    ]


def euler_lower_bound_check(cols: dict[str, np.ndarray]) -> BoundReport:
    """Scan ln ln n <= S(n) + Q(n) and S(n) >= ln ln n - EULER_SLACK."""
    xs = cols["x"]
    if xs[0] < 2:
        raise ValueError(f"euler lower bound needs points >= 2, got {xs[0]}")
    lnln = np.log(np.log(xs.astype(np.float64)))
    with_q = (cols["s"] + cols["q"]) - lnln
    with_slack = cols["s"] - (lnln - EULER_SLACK)
    return _combined_report(
        "euler_lower_bound", int(xs[0]), int(xs[-1]), [(xs, with_q), (xs, with_slack)]
    )


def rosser_schoenfeld_check(cols: dict[str, np.ndarray]) -> list[BoundReport]:
    """Two-sided envelope ln ln n + B +/- corrections, for n >= 286.

    Returns [symmetric, asymmetric], both variants of the upper correction:
    symmetric uses 1/(2 (ln n)^2) on both sides (the standard form);
    asymmetric keeps the lower correction but tightens the upper one to
    1/((2 ln n)^2) = 1/(4 (ln n)^2).  The asymmetric form is numerically
    false near n = 286, so callers normally gate on the symmetric report.
    """
    xs = cols["x"]
    if xs[0] < RS_MIN_N:
        raise ValueError(f"envelope holds for n >= {RS_MIN_N}, got point {xs[0]}")
    s = cols["s"]
    ln = np.log(xs.astype(np.float64))
    lnln = np.log(ln)
    lower = s - (lnln - 1.0 / (2.0 * ln * ln) + B)
    upper_sym = (lnln + 1.0 / (2.0 * ln * ln) + B) - s
    upper_asym = (lnln + 1.0 / (2.0 * ln) ** 2 + B) - s
    lo, hi = int(xs[0]), int(xs[-1])
    return [
        _combined_report("rs_envelope_symmetric", lo, hi, [(xs, lower), (xs, upper_sym)]),
        _combined_report(
            "rs_envelope_asymmetric_upper", lo, hi, [(xs, lower), (xs, upper_asym)]
        ),
    ]


def envelope_halfwidth(x: float) -> float:
    """Guaranteed |S(x) - ln ln x - B| when the symmetric envelope holds."""
    return 1.0 / (2.0 * math.log(x) ** 2)


def estimate_mertens_B(x: int, s: float) -> float:
    """S(x) - ln ln x, given s = S(x); within envelope_halfwidth(x) of B for x >= 286."""
    if x < RS_MIN_N:
        raise ValueError(f"estimate needs x >= {RS_MIN_N}, got {x}")
    return s - math.log(math.log(x))


_LOG10_FLOOR = 1.0 / math.log(10.0)


def extrapolate_sum(log10_x: float) -> float:
    """ln ln x + B without ever forming x, from log10(x) alone."""
    if not math.isfinite(log10_x) or log10_x <= _LOG10_FLOOR:
        raise ValueError(f"extrapolation needs log10_x > 1/ln(10), got {log10_x}")
    return math.log(log10_x * math.log(10.0)) + B
