import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens.identities import (
    SequencePair,
    abel_identity_eval,
    euler_product_check,
    factorial_log_identity,
    factorial_log_scan,
    legendre_vp,
    log_one_minus_bound,
    stieltjes_grid,
    stieltjes_identity_check,
    stieltjes_scan,
)
from mertens.sieve import primes_array
from mertens.sums import accumulate_checkpoints, columns_at


# --- -ln(1-x) <= x + x^2 ---------------------------------------------------


def test_log_bound_at_zero_is_equality():
    v = log_one_minus_bound(0.0)
    assert v.lhs == 0.0 and v.rhs == 0.0
    assert v.passed


def test_log_bound_at_half():
    v = log_one_minus_bound(0.5)
    assert math.isclose(v.lhs, math.log(2.0), rel_tol=1e-15)
    assert v.rhs == 0.75
    assert v.passed


def test_log_bound_at_quarter():
    v = log_one_minus_bound(0.25)
    assert math.isclose(v.lhs, 0.2876820724517809, rel_tol=1e-15)
    assert v.rhs == 0.3125
    assert v.passed


def test_log_bound_holds_on_grid():
    assert all(log_one_minus_bound(k / 2048.0).passed for k in range(1025))


def test_log_bound_domain_errors():
    for bad in (-1e-9, 0.5000001, 1.0):
        with pytest.raises(ValueError):
            log_one_minus_bound(bad)


# --- summation by parts ----------------------------------------------------


def test_abel_constant_f_telescopes():
    g = [3.0, -1.0, 4.0, 1.0, -5.0]  # covers indices 1..5 for the window [1, 4]
    seq = SequencePair([2.5] * 5, g, m=1, n=4)
    v = abel_identity_eval(seq)
    assert v.passed
    assert math.isclose(v.lhs, 2.5 * (g[-1] - g[0]), rel_tol=1e-15)


def test_abel_linear_sequences_hand_value():
    # f_i = g_i = i on 1..4: lhs = 1+2+3 = 6, rhs = 16 - 1 - (2+3+4) = 6
    seq = SequencePair([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], m=1, n=3)
    v = abel_identity_eval(seq)
    assert v.lhs == 6.0
    assert v.rhs == 6.0


def test_abel_thousand_random_pairs():
    rng = random.Random(0xA8E1)
    for _ in range(1000):
        span = rng.randint(1, 100)
        m = rng.randint(1, 8)
        f = [rng.uniform(-1.0, 1.0) for _ in range(span + 1)]
        g = [rng.uniform(-1.0, 1.0) for _ in range(span + 1)]
        v = abel_identity_eval(SequencePair(f, g, m, m + span - 1))
        assert v.rel_diff <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
)
def test_abel_property(m, f, g):
    span = min(len(f), len(g)) - 1
    v = abel_identity_eval(SequencePair(f, g, m, m + span - 1))
    assert v.passed


def test_abel_window_validation():
    with pytest.raises(IndexError):
        SequencePair([1.0, 2.0], [1.0, 2.0], m=1, n=2)  # needs 3 entries
    with pytest.raises(ValueError):
        SequencePair([1.0, 2.0], [1.0, 2.0], m=0, n=0)
    with pytest.raises(ValueError):
        SequencePair([1.0, 2.0], [1.0, 2.0], m=3, n=2)


# --- partial integration against the prime-counting step function ----------


def stieltjes_at(x):
    s = accumulate_checkpoints(x, [x])["s"].item()
    return stieltjes_identity_check(x, primes_array(x), s)


def test_stieltjes_at_two_is_exact():
    v = stieltjes_at(2)
    assert v.lhs == 0.5
    assert v.rhs == 0.5
    assert v.passed


def test_stieltjes_at_three_hand_value():
    v = stieltjes_at(3)
    five_sixths = float(Fraction(5, 6))
    assert math.isclose(v.lhs, five_sixths, rel_tol=1e-15)
    assert math.isclose(v.rhs, five_sixths, rel_tol=1e-15)
    assert v.passed


def test_stieltjes_at_1e5():
    v = stieltjes_at(10**5)
    assert v.rel_diff <= 1e-12


def test_stieltjes_small_grid():
    xs = stieltjes_grid(10**4, primes_array(10**3))
    results = stieltjes_scan(accumulate_checkpoints(xs[-1], xs), primes_array(xs[-1]))
    assert all(v.rel_diff <= 1e-12 for _, v in results)


def test_stieltjes_domain_error():
    with pytest.raises(ValueError):
        stieltjes_at(1)
    primes = primes_array(100)
    with pytest.raises(ValueError):
        stieltjes_scan({"x": np.array([10, 5]), "s": np.zeros(2)}, primes)


def stieltjes_rhs_reference(x, primes):
    """pi(x)/x + the jump sum, summed from scratch over every prime <= x."""
    k = int(np.searchsorted(primes, x, side="right"))
    ps = primes[:k].astype(np.float64)
    inv = 1.0 / ps
    nxt = np.empty_like(inv)
    nxt[:-1] = inv[1:]
    nxt[-1] = 1.0 / float(x)
    weights = np.arange(1, k + 1, dtype=np.float64)
    integral = math.fsum((weights * (inv - nxt)).tolist())
    return k / float(x) + integral


def test_stieltjes_scan_is_bitwise_the_per_point_sum():
    primes = primes_array(10**5)
    # verify's grid to 1e5, plus runs of consecutive x where pi(x) repeats;
    # sparse points whose jump runs hold thousands of terms; repeated x
    # (the scan takes non-strictly ascending points)
    grid = sorted(
        {*stieltjes_grid(10**5, primes_array(10**4)), *range(114, 128), *range(99_990, 100_001)}
    )
    for xs in (grid, [2, 10**4, 10**5], [2, 2, 3, 3, 3, 10**4, 10**4, 99_991, 10**5, 10**5]):
        cols = columns_at(accumulate_checkpoints(10**5, sorted(set(xs))), xs)
        results = stieltjes_scan(cols, primes)
        assert [x for x, _ in results] == xs
        got = np.array([v.rhs for _, v in results])
        want = np.array([stieltjes_rhs_reference(x, primes) for x in xs])
        assert got.tobytes() == want.tobytes()
        assert all(v.lhs == s for (_, v), s in zip(results, cols["s"].tolist()))


def test_stieltjes_check_is_the_scan_at_one_point():
    xs = [2, 3, 4, 120, 127, 9973, 10**4]
    primes = primes_array(10**4)
    cols = accumulate_checkpoints(10**4, xs)
    results = stieltjes_scan(cols, primes)
    for (x, v), s in zip(results, cols["s"].tolist()):
        assert stieltjes_identity_check(x, primes, s) == v


# --- Legendre's formula ----------------------------------------------------


def test_legendre_examples():
    assert legendre_vp(4, 2) == 3  # 4! = 2^3 * 3
    assert legendre_vp(10, 5) == 2
    assert legendre_vp(5, 7) == 0


def test_legendre_rejects_composite_p():
    for bad in (1, 4, 9, 15):
        with pytest.raises(ValueError):
            legendre_vp(10, bad)


def test_legendre_reconstructs_factorials():
    for n in range(0, 61):
        recon = 1
        for p in primes_array(n).tolist():
            recon *= p ** legendre_vp(n, p)
        assert recon == math.factorial(n)


# --- ln(n!) two ways ---------------------------------------------------------


def test_factorial_log_trivial_n1():
    check = factorial_log_identity(1, primes_array(1))
    assert check.identity.lhs == 0.0
    assert check.identity.rhs == 0.0
    assert check.stirling_ratio == 0.0
    assert check.identity.passed and check.stirling_ok


def test_factorial_log_n10():
    check = factorial_log_identity(10, primes_array(10))
    assert math.isclose(check.identity.lhs, math.log(3628800.0), rel_tol=1e-14)
    assert check.identity.rel_diff <= 1e-10
    assert check.identity.passed


def test_factorial_log_range_and_large_n():
    primes = primes_array(10**5)  # one shared array; each n takes the primes <= n
    for n in list(range(1, 201)) + [10**5]:
        check = factorial_log_identity(n, primes)
        assert check.identity.passed
        assert check.stirling_ok
    big = factorial_log_identity(10**5, primes)
    assert -1.0 < big.stirling_ratio < 0.0


def test_factorial_log_scan_equals_per_n_fsum_bitwise():
    # Both sides as the per-n loop takes them: fsum of the np.log terms, and
    # fsum of ln(p) * vp(n!) over the primes <= n.
    primes = primes_array(10**5)
    # A run from 1, a repeat, a run after a jump, and lone jumps.
    ns = list(range(1, 400)) + [1000, 1000, 1001, 1002, 1003, 2000, 10**4, 10**5]
    checks = factorial_log_scan(ns, primes)
    assert len(checks) == len(ns)
    for n, check in zip(ns, checks):
        lhs = math.fsum(np.log(np.arange(2, n + 1, dtype=np.float64)).tolist())
        ps = primes[: np.searchsorted(primes, n, side="right")].tolist()
        rhs = math.fsum(math.log(p) * legendre_vp(n, p) for p in ps)
        assert (check.identity.lhs, check.identity.rhs) == (lhs, rhs), n
    for n in (1, 2, 397, 10**5):
        assert factorial_log_identity(n, primes) == checks[ns.index(n)]


def test_factorial_log_scan_needs_ascending_n_from_one():
    primes = primes_array(100)
    for ns in ([], [0, 5], [5, 4], [-3]):
        with pytest.raises(ValueError):
            factorial_log_scan(ns, primes)


def test_factorial_log_domain_error():
    with pytest.raises(ValueError):
        factorial_log_identity(0, primes_array(10))


# --- finite Euler product ----------------------------------------------------


def test_euler_product_powers_of_two():
    chk = euler_product_check(2, 1 << 20, primes_array(2))
    assert chk.product == Fraction(2)
    assert chk.partial_smooth_sum == 2.0 - 2.0**-20
    assert chk.bracket_ok


def test_euler_product_at_seven():
    chk = euler_product_check(7, 10**6, primes_array(7))
    assert chk.product == Fraction(35, 8)
    assert chk.partial_smooth_sum < 4.375
    assert 4.375 - chk.partial_smooth_sum < 0.05
    assert chk.bracket_ok


def test_euler_product_partial_monotone_in_cutoff():
    previous = 0.0
    product = None
    for k in range(3, 17):
        chk = euler_product_check(5, 1 << k, primes_array(5))
        product = float(chk.product)
        assert chk.partial_smooth_sum >= previous
        assert chk.partial_smooth_sum < product
        previous = chk.partial_smooth_sum
    assert product == 3.75  # 2 * 3/2 * 5/4


def test_euler_product_validation():
    with pytest.raises(ValueError):
        euler_product_check(1, 100, primes_array(1))
    with pytest.raises(ValueError):
        euler_product_check(51, 100, primes_array(51))
    with pytest.raises(ValueError):
        euler_product_check(7, 5, primes_array(7))
