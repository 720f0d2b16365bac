import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

import mertens.bounds
from mertens.bounds import (
    B,
    CHEBYSHEV_BLOCK,
    RS_MIN_N,
    binomial_prime_product_check,
    binomial_prime_product_scan,
    chebyshev_dyadic_check,
    envelope_halfwidth,
    estimate_mertens_B,
    euler_lower_bound_check,
    extrapolate_sum,
    log_spaced_integers,
    mertens_residual_scan,
    residual_caps_check,
    rosser_schoenfeld_check,
    pi_table,
)
from mertens.sieve import primes_array
from mertens.sums import accumulate_checkpoints


def cols_at(*points):
    return accumulate_checkpoints(points[-1], points)


PRIMES = primes_array(10**5)  # every prime the binomial and Chebyshev tests read


# --- prime product <= central binomial <= 4^n --------------------------------


def test_binomial_chain_at_one():
    rep = binomial_prime_product_check(1, PRIMES)
    assert rep.violations == 0
    assert rep.worst_margin == 0.0  # product over (1,2] equals C(2,1) = 2


def test_binomial_chain_at_five():
    rep = binomial_prime_product_check(5, PRIMES)
    assert rep.violations == 0
    # tightest link is 5^1 <= 7 (the only prime in (5, 10])
    assert math.isclose(rep.worst_margin, math.log(7) - math.log(5), rel_tol=1e-12)


def test_binomial_chain_at_2000_exact():
    rep = binomial_prime_product_check(2000, PRIMES)
    assert rep.violations == 0
    assert rep.worst_margin > 0.0


def test_binomial_scan_agrees_with_single_point_checks():
    for n in (1, 2, 3, 17, 100, 777, 2000):
        single = binomial_prime_product_check(n, PRIMES)
        scanned = binomial_prime_product_scan(n, n, PRIMES)
        assert scanned.violations == single.violations
        assert math.isclose(scanned.worst_margin, single.worst_margin, rel_tol=1e-12)


def test_binomial_scan_range_is_clean():
    rep = binomial_prime_product_scan(1, 2000, PRIMES)
    assert rep.violations == 0
    assert rep.worst_margin >= 0.0


def test_binomial_range_errors():
    for bad in (0, 5001):
        with pytest.raises(ValueError):
            binomial_prime_product_check(bad, PRIMES)
    with pytest.raises(ValueError):
        binomial_prime_product_scan(0, 10, PRIMES)


# --- dyadic prime-count bound ------------------------------------------------


def test_chebyshev_hand_values_at_16_and_100():
    pi = pi_table(200)
    assert pi[16] - pi[8] == 2
    rhs16 = 4.0 * (16.0 / math.log(16.0) - 8.0 / math.log(8.0))
    assert math.isclose(rhs16, 7.694, rel_tol=1e-3)
    rep16 = chebyshev_dyadic_check(16, 16, PRIMES)
    assert rep16.violations == 0
    assert math.isclose(rep16.worst_margin, rhs16 - 2.0, rel_tol=1e-12)

    assert pi[100] - pi[16] == 19
    assert 4.0 * 100.0 / math.log(100.0) > 86.8


def test_chebyshev_scan_to_1e5_is_clean():
    rep = chebyshev_dyadic_check(16, 10**5, PRIMES)
    assert rep.violations == 0
    assert rep.worst_margin > 0.0


def whole_range_chebyshev(lo, hi, pi):
    """The dyadic scan as one numpy pass over [lo, hi]: (scanned, violations, worst)."""
    ys = np.arange(lo, hi + 1, dtype=np.int64)
    yf = ys.astype(np.float64)
    half = yf * 0.5
    dyadic = 4.0 * (yf / np.log(yf) - half / np.log(half)) - (pi[ys] - pi[ys // 2])
    telescoped = 4.0 * yf / np.log(yf) - (pi[ys] - pi[16]).astype(np.float64)
    margins = np.concatenate([dyadic, telescoped])
    worst = min(zip(margins.tolist(), np.concatenate([ys, ys]).tolist()))
    return len(margins), int(np.count_nonzero(margins < 0.0)), worst


def test_chebyshev_blocks_match_whole_range_scan(monkeypatch):
    hi_max = 3 * CHEBYSHEV_BLOCK + 100
    ranges = [
        (16, CHEBYSHEV_BLOCK + 15),  # exactly one block
        (16, CHEBYSHEV_BLOCK + 16),  # one integer into the second block
        (CHEBYSHEV_BLOCK - 3, 2 * CHEBYSHEV_BLOCK + 40),
        (16, hi_max),
    ]
    # the true pi, and pi(y) = y (every integer >= 1 listed as a prime), which
    # violates the dyadic bound for large y
    for primes, pi in (
        (primes_array(hi_max), pi_table(hi_max)),
        (np.arange(1, hi_max + 1, dtype=np.int64), np.arange(hi_max + 1, dtype=np.int64)),
    ):
        for lo, hi in ranges:
            rep = chebyshev_dyadic_check(lo, hi, primes)
            got = (rep.scanned, rep.violations, (rep.worst_margin, rep.worst_arg))
            assert got == whole_range_chebyshev(lo, hi, pi), (lo, hi)
        # Small blocks: odd and even block starts, and half-ranges that cross block edges.
        for block in (7, 64):
            monkeypatch.setattr(mertens.bounds, "CHEBYSHEV_BLOCK", block)
            for lo, hi in ((16, 5000), (17, 16 + block), (16 + block, 16 + 3 * block)):
                rep = chebyshev_dyadic_check(lo, hi, primes)
                got = (rep.scanned, rep.violations, (rep.worst_margin, rep.worst_arg))
                assert got == whole_range_chebyshev(lo, hi, pi), (block, lo, hi)
            monkeypatch.undo()


def test_chebyshev_memory_is_flat_in_hi():
    primes = primes_array(2**20)
    tracemalloc.start()
    try:
        chebyshev_dyadic_check(16, 2**17, primes)
        _, peak_small = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        chebyshev_dyadic_check(16, 2**20, primes)
        _, peak_large = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_large - peak_small <= 1 << 20, (peak_small, peak_large)


def test_chebyshev_domain_errors():
    with pytest.raises(ValueError):
        chebyshev_dyadic_check(15, 100, PRIMES)
    with pytest.raises(ValueError):
        chebyshev_dyadic_check(20, 19, PRIMES)


# --- A(x) - ln x -------------------------------------------------------------


def test_residual_at_two_hand_value():
    (x, r), = mertens_residual_scan(cols_at(2))
    assert x == 2
    assert math.isclose(r, math.log(2.0) / 2.0 - math.log(2.0), abs_tol=1e-15)


def test_residual_capped_and_settling(shared_scan):
    pairs = mertens_residual_scan(shared_scan.at(shared_scan.cap_points))
    assert all(abs(r) <= 2.0 for _, r in pairs)
    # r settles onto a plateau near -1.33, deeper than anything in [2, 1e3],
    # so "settling" means the min-max band narrows, not that |r| shrinks.
    early = [r for x, r in pairs if x <= 10**3]
    late = [r for x, r in pairs if 10**3 <= x <= 10**7]
    assert max(late) - min(late) < max(early) - min(early)
    assert max(late) - min(late) < 0.1


def test_residual_domain_error():
    with pytest.raises(ValueError):
        mertens_residual_scan(cols_at(1, 10))


def test_caps_reports_on_checkpoints(shared_scan):
    for rep in residual_caps_check(shared_scan.at(shared_scan.cap_points)):
        assert rep.violations == 0, rep


# --- Euler lower bound ---------------------------------------------------------


def test_euler_lower_bound_hand_values():
    rep = euler_lower_bound_check(cols_at(3))
    assert rep.violations == 0
    lnln3 = math.log(math.log(3.0))
    assert math.isclose(lnln3, 0.0940, abs_tol=5e-4)
    # margin of the S+Q form: 0.8333 + 0.3611 - 0.0940
    s3, q3 = 1.0 / 2 + 1.0 / 3, 1.0 / 4 + 1.0 / 9
    assert math.isclose(rep.worst_margin, min(s3 + q3 - lnln3, s3 - lnln3 + 0.48), rel_tol=1e-12)


def test_euler_lower_bound_allows_two():
    rep = euler_lower_bound_check(cols_at(2))
    assert rep.violations == 0  # ln ln 2 < 0 makes both forms easy


def test_euler_lower_bound_on_primes(shared_scan):
    points = shared_scan.euler_points
    rep = euler_lower_bound_check(shared_scan.at(points))
    assert rep.violations == 0
    assert rep.scanned == 2 * len(points)


def test_euler_lower_bound_domain_error():
    with pytest.raises(ValueError):
        euler_lower_bound_check(cols_at(1, 5))


# --- Rosser-Schoenfeld envelope ------------------------------------------------


def test_envelope_at_286_separates_the_two_variants():
    symmetric, asymmetric = rosser_schoenfeld_check(cols_at(286))
    assert symmetric.violations == 0
    assert math.isclose(symmetric.worst_margin, 4.0002e-4, rel_tol=1e-3)
    # the tightened upper variant fails right at the threshold
    assert asymmetric.violations == 1
    assert math.isclose(asymmetric.worst_margin, -7.4149e-3, rel_tol=1e-3)


def test_envelope_scan_census(shared_scan):
    points = shared_scan.rs_points
    symmetric, _ = rosser_schoenfeld_check(shared_scan.at(points))
    assert symmetric.violations == 0
    assert symmetric.worst_margin > 0.0
    # measured once with exact arithmetic and frozen: the tightened variant
    # fails on exactly 467 integers, all in [286, 1675]
    dense = [x for x in points if x <= 10**5]
    _, dense_asymmetric = rosser_schoenfeld_check(shared_scan.at(dense))
    assert dense_asymmetric.violations == 467
    assert dense_asymmetric.worst_arg == 286
    # ... and holds from 1676 on: at every integer to 1e5 and the log-spaced points to 1e8
    _, last_false = rosser_schoenfeld_check(shared_scan.at([1675]))
    assert last_false.violations == 1
    past = [x for x in points if x >= 1676]
    _, past_asymmetric = rosser_schoenfeld_check(shared_scan.at(past))
    assert past[:2] == [1676, 1677] and set(range(1676, 10**5 + 1)) <= set(past)
    assert past_asymmetric.violations == 0
    assert past_asymmetric.worst_arg == 1676 and past_asymmetric.worst_margin > 0.0


def test_envelope_domain_error():
    with pytest.raises(ValueError):
        rosser_schoenfeld_check(cols_at(285, 400))


# --- Mertens constant and extrapolation ----------------------------------------


def test_estimate_b_at_1e6_and_286():
    s285, s286, s6 = cols_at(285, 286, 10**6)["s"].tolist()
    assert abs(estimate_mertens_B(10**6, s6) - B) < 0.003
    assert abs(estimate_mertens_B(286, s286) - B) < 0.0157
    with pytest.raises(ValueError):
        estimate_mertens_B(285, s285)


def test_estimate_b_cauchy_sequence(shared_scan):
    s = shared_scan.at([10**k for k in range(3, 9)])["s"].tolist()
    for k in range(3, 8):
        b_lo = estimate_mertens_B(10**k, s[k - 3])
        b_hi = estimate_mertens_B(10 ** (k + 1), s[k - 2])
        assert abs(b_lo - b_hi) <= 1.0 / (2.0 * (k * math.log(10.0)) ** 2)


def test_extrapolation_values():
    v100 = extrapolate_sum(100.0)
    assert 5.65 <= v100 <= 5.75
    assert math.isclose(v100, 5.70070, abs_tol=5e-5)
    assert f"{extrapolate_sum(9.0):.3f}" == "3.293"


def test_extrapolation_matches_sieved_value_at_1e6():
    s = accumulate_checkpoints(10**6, [10**6])["s"].item()
    assert f"{extrapolate_sum(6.0):.3f}" == f"{s:.3f}"


def test_extrapolation_consistency_with_sieve(shared_scan):
    cols = shared_scan.at(shared_scan.cap_points)
    for x, s in zip(cols["x"].tolist(), cols["s"].tolist()):
        if x < RS_MIN_N:
            continue
        err = abs(s - extrapolate_sum(math.log10(x)))
        assert err <= envelope_halfwidth(x) + 1e-9


def assert_within_ulps(got: float, want: float, ulps: int) -> None:
    assert abs(got - want) <= ulps * math.ulp(want), (got, want)


def test_extrapolation_is_ln_ln_x_plus_b():
    # The largest gap seen over these points was 3 ulps, at x = 5.
    rng = random.Random(0xE7)
    xs = [*range(3, 5001), *(10**k for k in range(4, 13))]
    xs += [rng.randint(3, 2**40) for _ in range(5000)]
    for x in xs:
        assert_within_ulps(extrapolate_sum(math.log10(x)), math.log(math.log(x)) + B, 4)


def test_extrapolation_stays_finite_where_log10_x_times_ln10_overflows():
    for v in (1e308, sys.float_info.max):
        got = extrapolate_sum(v)
        assert math.isfinite(got)
        assert_within_ulps(got, math.log(v) + math.log(math.log(10.0)) + B, 4)


def test_extrapolation_domain_errors():
    for bad in (0.2, 1.0 / math.log(10.0), -3.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            extrapolate_sum(bad)


# --- scan plumbing ---------------------------------------------------------------


def test_log_spaced_integers_shape():
    pts = log_spaced_integers(286, 10**5)
    assert pts[0] == 286 and pts[-1] == 10**5
    assert all(b > a for a, b in zip(pts, pts[1:]))
    per_decade = sum(1 for p in pts if 10**3 <= p < 10**4)
    assert 250 <= per_decade <= 262
