import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mertens.identities
from mertens.bounds import log_spaced_integers
from mertens.identities import (
    SequencePair,
    _smooth_values,
    _verdict,
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


# --- the verdict rule --------------------------------------------------------


VERDICT_FIELDS = ("lhs", "rhs", "abs_diff", "rel_diff", "passed")


def verdict_rule(lhs, rhs, tol):
    """abs_diff, rel_diff and passed for one pair of Python floats."""
    abs_diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_diff = abs_diff / scale if scale > 0.0 else 0.0
    return abs_diff, rel_diff, rel_diff <= tol or (abs(lhs) < 1.0 and abs_diff <= tol)


@pytest.mark.filterwarnings("error")
def test_verdict_is_the_scalar_rule_entry_by_entry():
    tol = 2.0**-40
    pairs = [
        (0.0, 0.0),  # both sides 0: rel_diff 0, and no divide-by-zero warning
        (-0.0, 0.0),
        (1e-14, 3e-14),  # |lhs| < 1, abs_diff <= tol, rel_diff > tol: passes
        (1e-14, 0.0),
        (0.0, 1e-14),
        (2.0, 2.0 - 2.0**-39),  # rel_diff exactly tol: passes
        (2.0, 2.0 - 2.0**-38),  # rel_diff 2 tol, |lhs| >= 1: the one failure
        (-3.0, -3.0),
        (1e300, 1e300 * (1.0 + 2.0**-52)),
    ]
    lhs, rhs = (np.array(side) for side in zip(*pairs))
    v = _verdict(lhs, rhs, tol)
    assert v.lhs is lhs and v.rhs is rhs
    assert v.passed.dtype == bool
    for i, (a, b) in enumerate(pairs):
        assert (v.abs_diff[i], v.rel_diff[i], v.passed[i]) == verdict_rule(a, b, tol), (a, b)
    assert v.rel_diff[5] == tol
    assert v.passed.tolist() == [True] * 6 + [False] + [True] * 2


def test_verdict_fails_a_nan_side():
    for lhs, rhs in ((np.nan, 1.0), (1.0, np.nan), (np.nan, 0.0), (0.0, np.nan)):
        assert not _verdict(np.array([lhs]), np.array([rhs]), 1e-12).passed[0], (lhs, rhs)


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
    assert [type(getattr(v, name)) for name in VERDICT_FIELDS] == [float] * 4 + [bool]


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
    assert [type(getattr(v, name)) for name in VERDICT_FIELDS] == [float] * 4 + [bool]


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
    v = stieltjes_scan(accumulate_checkpoints(xs[-1], xs), primes_array(xs[-1]))
    assert len(v.rel_diff) == len(xs)
    assert np.all(v.rel_diff <= 1e-12)


def stieltjes_grid_reference(limit, primes):
    """The grid built one threshold at a time into a set."""
    xs = set(log_spaced_integers(2, limit))
    for p in primes.tolist():
        xs.update(x for x in (p - 1, p, p + 1) if 2 <= x <= limit)
    return sorted(xs)


def test_stieltjes_grid_matches_the_set_construction():
    empty = np.empty(0, dtype=np.int64)
    for limit, primes in (
        (10**5, primes_array(10**4)),  # verify's grid
        (10**3, primes_array(10**4)),  # primes above limit
        (100, empty),
        (2, empty),
        (2, primes_array(10)),
        (3, primes_array(3)),
    ):
        grid = stieltjes_grid(limit, primes)
        assert grid == stieltjes_grid_reference(limit, primes), limit
        assert all(type(x) is int for x in grid)


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
        v = stieltjes_scan(cols, primes)
        assert len(v.rhs) == len(xs)
        want = np.array([stieltjes_rhs_reference(x, primes) for x in xs])
        assert v.rhs.tobytes() == want.tobytes()
        assert v.lhs.tobytes() == cols["s"].tobytes()


def assert_is_entry(one, cols, i):
    """one holds entry i of the column verdict cols, field by field, as Python scalars."""
    for name in VERDICT_FIELDS:
        got, want = getattr(one, name), getattr(cols, name)[i]
        assert type(got) is (bool if name == "passed" else float), name
        assert got == want, (name, i)


def test_stieltjes_check_is_the_scan_at_one_point():
    xs = [2, 3, 4, 120, 127, 9973, 10**4]
    primes = primes_array(10**4)
    cols = accumulate_checkpoints(10**4, xs)
    v = stieltjes_scan(cols, primes)
    for i, (x, s) in enumerate(zip(xs, cols["s"].tolist())):
        assert_is_entry(stieltjes_identity_check(x, primes, s), v, i)


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


def per_n_fsum_sides(n, primes):
    """Both sides as the per-n loop takes them: fsum of the np.log terms, and
    fsum of ln(p) * vp(n!) over the primes <= n."""
    lhs = math.fsum(np.log(np.arange(2, n + 1, dtype=np.float64)).tolist())
    ps = primes[: np.searchsorted(primes, n, side="right")].tolist()
    return lhs, math.fsum(math.log(p) * legendre_vp(n, p) for p in ps)


def test_factorial_log_scan_equals_per_n_fsum_bitwise():
    primes = primes_array(10**5)
    # A run from 1, a repeat, a run after a jump, and lone jumps.
    ns = list(range(1, 400)) + [1000, 1000, 1001, 1002, 1003, 2000, 10**4, 10**5]
    c = factorial_log_scan(ns, primes)
    assert len(c.identity.lhs) == len(c.stirling_ratio) == len(ns)
    for n, lhs, rhs in zip(ns, c.identity.lhs.tolist(), c.identity.rhs.tolist()):
        assert (lhs, rhs) == per_n_fsum_sides(n, primes), n
    for n in (1, 2, 397, 10**5):
        one, i = factorial_log_identity(n, primes), ns.index(n)
        assert_is_entry(one.identity, c.identity, i)
        assert type(one.stirling_ratio) is float and one.stirling_ratio == c.stirling_ratio[i]
        assert type(one.stirling_ok) is bool and one.stirling_ok == c.stirling_ok[i]


@pytest.mark.parametrize("chunk", [1, 64, mertens.identities.FACTORIAL_CHUNK])
def test_factorial_log_scan_is_bitwise_at_every_chunk_size(monkeypatch, chunk):
    # Chunks of 1 and 64 exponents hold one row each from n = 2 and n = 313
    # (pi(n) > 64) on; the default chunk holds many rows.
    monkeypatch.setattr(mertens.identities, "FACTORIAL_CHUNK", chunk)
    primes = primes_array(5 * 10**4)
    ns = [1, 1, 2, 3, 3, 4, 60, 61, 62, 62, 63, 300, 313, 314, 315, 1000, 1000]
    ns += list(range(2980, 3020)) + [7919, 7920, 10**4, 10**4, 5 * 10**4]
    c = factorial_log_scan(ns, primes)
    assert len(c.identity.lhs) == len(ns)
    for n, lhs, rhs in zip(ns, c.identity.lhs.tolist(), c.identity.rhs.tolist()):
        assert (lhs, rhs) == per_n_fsum_sides(n, primes), n
    assert c.identity.passed.all() and c.stirling_ok.all()


def test_factorial_log_scan_memory_is_bounded():
    # verify's rows: the exponent table is built a chunk at a time, never whole
    # (one table of every row would be 2002 x 9592 int64, ~150 MB).
    primes = primes_array(10**5)
    tracemalloc.start()
    try:
        factorial_log_scan(list(range(1, 2001)) + [10**4, 10**5], primes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


def test_factorial_log_scan_needs_ascending_n_from_one():
    primes = primes_array(100)
    for ns in ([], [0, 5], [5, 4], [-3], [2**23 + 1], [2**40], [10**19], [5, 10**30]):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                factorial_log_scan(ns, primes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (ns, peak)  # refused before the ln j terms to n exist


def test_factorial_log_scan_refuses_a_fraction():
    # A fraction is refused before the int64 cast, which would truncate 2.5 to
    # the n = 2 row; an integral float still gives its row.
    primes = primes_array(100)
    for ns, named in (([2.5], "2.5"), ([1, 2, 2.5, 3], "2.5"), (np.array([3.0, 7.25]), "7.25")):
        with pytest.raises(ValueError, match=named):
            factorial_log_scan(ns, primes)
    three = factorial_log_scan([3.0], primes)
    want = factorial_log_scan([3], primes)
    assert three.identity.lhs.tolist() == want.identity.lhs.tolist() == [math.log(6.0)]
    assert three.identity.rhs.tolist() == want.identity.rhs.tolist()
    with pytest.raises(ValueError):
        factorial_log_scan([10**19], primes)


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


def test_smooth_values_match_trial_factoring():
    for n in (2, 3, 5, 7, 13, 31, 47):
        ps = primes_array(n).tolist()
        for cutoff in (1, n, 1 << 10, 1 << 12):
            want = []
            for j in range(1, cutoff + 1):
                rest = j
                for p in ps:
                    while rest % p == 0:
                        rest //= p
                if rest == 1:
                    want.append(j)
            got = _smooth_values(ps, cutoff).tolist()
            assert len(got) == len(set(got)), (n, cutoff)  # no duplicates
            assert sorted(got) == want, (n, cutoff)


def test_euler_partial_sums_are_pinned_bitwise():
    # verify's seven n at its cutoff 2**20; fsum rounds correctly in any order
    # of the smooth values, so these bits depend on no summation order.
    pinned = {
        2: "0x1.fffff00000000p+0",
        3: "0x1.7fff5abee1122p+1",
        5: "0x1.dffc83a0d28c0p+1",
        7: "0x1.17fa123b9a2c0p+2",
        13: "0x1.4d8e859550095p+2",
        31: "0x1.a1e4691fd597dp+2",
        47: "0x1.cb8da2521b776p+2",
    }
    primes = primes_array(50)
    for n, bits in pinned.items():
        chk = euler_product_check(n, 1 << 20, primes)
        assert chk.partial_smooth_sum.hex() == bits, n
        assert chk.bracket_ok


def test_euler_product_validation():
    with pytest.raises(ValueError):
        euler_product_check(1, 100, primes_array(1))
    with pytest.raises(ValueError):
        euler_product_check(51, 100, primes_array(51))
    with pytest.raises(ValueError):
        euler_product_check(7, 5, primes_array(7))
