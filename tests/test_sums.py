import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens.sieve import primes_array
from mertens.sums import (
    EPS,
    L_CAP,
    Q_CAP,
    CompensatedAccumulator,
    accumulate_checkpoints,
    _array_kernel,
    _kahan_neumaier_py,
)

from conftest import decades_up_to


def exact_float_sum(values) -> Fraction:
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
    return total


def test_accumulator_error_bound_random():
    rng = random.Random(4242)
    values = [rng.uniform(-1.0, 1.0) for _ in range(10**4)]
    acc = CompensatedAccumulator()
    partial = Fraction(0)
    max_partial = 0.0
    for v in values:
        acc.add(v)
        partial += Fraction(v)
        max_partial = max(max_partial, abs(float(partial)))
    exact = partial
    err = abs(Fraction(acc.value) - exact)
    assert err <= Fraction(4 * len(values)) * Fraction(EPS) * Fraction(max(max_partial, 1e-300))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), max_size=300))
def test_accumulator_error_bound_property(values):
    acc = CompensatedAccumulator()
    for v in values:
        acc.add(v)
    exact = exact_float_sum(values)
    bound = 4 * max(len(values), 1) * EPS * max(abs(float(exact)), 1.0)
    assert abs(float(Fraction(acc.value) - exact)) <= bound


def test_add_array_matches_scalar_adds_bitwise():
    rng = np.random.default_rng(7)
    arr = rng.uniform(-1.0, 1.0, size=5000)
    one = CompensatedAccumulator()
    for v in arr.tolist():
        one.add(v)
    other = CompensatedAccumulator()
    other.add_array(arr)
    assert one.sum == other.sum
    assert one.compensation == other.compensation


def test_array_kernel_matches_python_reference_bitwise():
    rng = np.random.default_rng(11)
    arr = rng.uniform(-1.0, 1.0, size=20000)
    want = _kahan_neumaier_py(0.125, -3e-18, arr.tolist())
    got = _array_kernel()(0.125, -3e-18, arr)
    assert want == tuple(got)


def test_single_prime_checkpoint():
    row = accumulate_checkpoints(10, [2])[0]
    assert row.pi_x == 1
    assert row.s == 0.5
    assert row.q == 0.25
    assert row.a == row.l  # at x=2 both are ln(2)/2
    assert math.isclose(row.a, math.log(2.0) / 2.0, rel_tol=0.0, abs_tol=1e-15)


def test_table_values_at_ten_and_million():
    rows = accumulate_checkpoints(10**6, [10, 10**6])
    assert abs(rows[0].s - 1.176) <= 5e-4
    assert abs(rows[1].s - 2.887) <= 5e-4


def test_s_at_1e4_matches_exact_rational_sum():
    row = accumulate_checkpoints(10**4, [10**4])[0]
    assert row.pi_x == 1229
    num, den = 0, 1
    for p in primes_array(10**4).tolist():
        num = num * p + den
        den *= p
    err = abs(Fraction(row.s) - Fraction(num, den))
    assert err <= Fraction(1, 10**12)


def test_all_four_sums_within_1e11_of_oracles_at_1e5():
    row = accumulate_checkpoints(10**5, [10**5])[0]
    primes = primes_array(10**5).tolist()
    with mp.workprec(256):
        s = mp.fsum(mp.mpf(1) / p for p in primes)
        a = mp.fsum(mp.log(p) / p for p in primes)
        q = mp.fsum(mp.mpf(1) / (mp.mpf(p) * p) for p in primes)
        l = mp.fsum(mp.log(p) / (mp.mpf(p) * p - p) for p in primes)
        assert abs(row.s - s) < 1e-11
        assert abs(row.a - a) < 1e-11
        assert abs(row.q - q) < 1e-11
        assert abs(row.l - l) < 1e-11


def test_rows_bit_identical_for_any_segmentation_and_workers():
    points = decades_up_to(10**5) + [10**5 + 3]
    points = sorted(set(points))
    reference = accumulate_checkpoints(10**5 + 3, points)
    for segment_size in (1024, 4096, 1 << 18, 1 << 20):
        for workers in (1, 3):
            rows = accumulate_checkpoints(
                10**5 + 3, points, segment_size=segment_size, workers=workers
            )
            assert rows == reference


def test_row_pi_matches_sieve_pi_at():
    points = [10, 97, 1000, 12345]
    rows = accumulate_checkpoints(12345, points)
    primes = primes_array(12345)
    counts = np.searchsorted(primes, points, side="right").tolist()
    assert [r.pi_x for r in rows] == counts


def test_sums_increase_exactly_at_primes():
    points = list(range(2, 60))
    rows = accumulate_checkpoints(60, points)
    flags = {r.x: r for r in rows}
    for x in range(3, 60):
        prev, cur = flags[x - 1], flags[x]
        if cur.pi_x > prev.pi_x:  # x is prime
            assert cur.s > prev.s and cur.a > prev.a
            assert cur.q > prev.q and cur.l > prev.l
        else:
            assert (cur.s, cur.a, cur.q, cur.l) == (prev.s, prev.a, prev.q, prev.l)


def test_q_and_l_caps_hold_on_checkpoints():
    rows = accumulate_checkpoints(10**6, decades_up_to(10**6))
    for row in rows:
        assert row.q < Q_CAP
        assert row.l < L_CAP


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [50, 10])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [10, 200])
