import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mertens import sieve, sums
from mertens.bounds import L_CAP, Q_CAP
from mertens.sieve import primes_array
from mertens.sums import (
    GRID_LIMBS,
    LIMB_BITS,
    RUN_POINTS,
    SUMS,
    CompensatedAccumulator,
    _term_arrays,
    accumulate_checkpoints,
    columns_at,
    prefix_limbs,
    round_limbs,
)

from conftest import decades_up_to, dense_sieve_flags, real_prime_sums


def exact_float_sum(values) -> Fraction:
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
    return total


def parts_reference(parts: list[float], arr: np.ndarray) -> list[float]:
    """The canonical expansion via fsum, written out independently of add_array."""
    work = arr.tolist() + parts
    out = []
    while (r := math.fsum(work)) != 0.0:
        out.append(r)
        work.append(-r)
    return out


def assert_add_array_exact(arr: np.ndarray, start: list[float]) -> None:
    acc = CompensatedAccumulator()
    acc.parts = list(start)
    acc.add_array(arr)
    assert [x.hex() for x in acc.parts] == [x.hex() for x in parts_reference(start, arr)]
    assert acc.value == float(exact_float_sum(start + arr.tolist()))


START_PARTS = parts_reference([], np.array([0.5, 1.0 / 3.0, 0.2]))
# The "long" add_array tests take arrays of at least this many terms.
LONG = 384


def test_accumulator_error_bound_random():
    rng = random.Random(4242)
    values = [rng.uniform(-1.0, 1.0) for _ in range(10**4)]
    acc = CompensatedAccumulator()
    for v in values:
        acc.add_array(np.array([v]))
    assert acc.value == float(exact_float_sum(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), max_size=300))
def test_accumulator_error_bound_property(values):
    acc = CompensatedAccumulator()
    for v in values:
        acc.add_array(np.array([v]))
    assert acc.value == float(exact_float_sum(values))


def test_add_array_matches_scalar_adds_bitwise():
    rng = np.random.default_rng(7)
    arr = rng.uniform(-1.0, 1.0, size=5000)
    one = CompensatedAccumulator()
    for v in arr.tolist():
        one.add_array(np.array([v]))
    other = CompensatedAccumulator()
    other.add_array(arr)
    split = CompensatedAccumulator()
    for chunk in np.split(arr, [1, 2, 17, 400, 401, 3999]):
        split.add_array(chunk)
    assert one.parts == other.parts == split.parts
    assert other.value == float(exact_float_sum(arr.tolist()))


def test_add_array_rejects_a_nan_term():
    acc = CompensatedAccumulator()
    acc.add_array(np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        acc.add_array(np.array([0.125, math.nan]))
    assert acc.value == 0.75
    for bad in (math.nan, math.inf, -math.inf):
        long = np.full(LONG + 5, 0.125)
        long[7] = bad
        with pytest.raises(ValueError):
            acc.add_array(long)
        assert acc.parts == [0.75]


def test_add_array_overflow_raises_overflow_error_on_both_routes():
    acc = CompensatedAccumulator()
    acc.add_array(np.array([0.5]))
    for n in (LONG - 1, 600):
        with pytest.raises(OverflowError):
            acc.add_array(np.full(n, 1.7e308))
        assert acc.parts == [0.5]


def test_long_add_array_with_mixed_signs_and_zeros():
    rng = np.random.default_rng(5)
    n = LONG + 100
    mixed = rng.uniform(-1.0, 1.0, n) * np.ldexp(1.0, rng.integers(-80, 3, n))
    mixed[::5] = 0.0
    mixed[1] = -0.0
    tiny_negative = np.full(n, -(2.0**-60))  # remainders that floor would round to 1
    tiny_negative[0] = 1.0
    for arr in (mixed, np.zeros(n), -mixed, tiny_negative):
        for start in ([], START_PARTS):
            assert_add_array_exact(arr, start)


def test_long_add_array_with_subnormals_and_huge_values():
    rng = np.random.default_rng(6)
    n = LONG + 50
    subnormals = np.ldexp(rng.integers(1, 1 << 40, n).astype(np.float64), -1074)
    near_1e300 = rng.uniform(0.5, 1.0, n) * 1e300
    near_one = rng.uniform(-1.0, 1.0, n)
    for arr in (
        np.concatenate([near_1e300, subnormals]),
        np.concatenate([near_1e300, -subnormals, -near_1e300[:10]]),
        np.concatenate([near_one, subnormals]),
        subnormals,
    ):
        for start in ([], START_PARTS):
            assert_add_array_exact(arr, start)


def test_long_add_array_rounds_exact_halfway_sums_to_even():
    bits = np.full(512, 2.0**-62)  # 512 * 2**-62 = 2**-53, half an ulp of 1
    for head, rounded in ((1.0, 1.0), (1.0 + 2.0**-52, 1.0 + 2.0**-51)):
        arr = np.concatenate([[head], bits])
        for sign in (1.0, -1.0):
            acc = CompensatedAccumulator()
            acc.add_array(sign * arr)
            assert acc.value == sign * rounded
            assert_add_array_exact(sign * arr, [])


def primes_near_the_cap(width):
    """The primes in the last width integers below the 2^40 sieve cap."""
    top = sieve.MAX_SIEVE_BOUND
    return np.concatenate([arr for _, _, arr in sieve.iter_prime_arrays(top - 1, start=top - width)])


def test_long_add_array_on_real_term_arrays():
    # The first 2^18 integers, where 1/p^2 spans 2^-3 to 2^-36, and a window
    # just below the 2^40 sieve cap.
    first = primes_array((1 << 18) - 1)[1:]
    top = primes_near_the_cap(1 << 16)
    assert len(top) >= LONG and len(first) >= LONG
    for primes in (first, top):
        for terms in _term_arrays(primes):
            for start in ([], START_PARTS):
                assert_add_array_exact(terms, start)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(LONG, LONG + 200),
        elements=st.floats(-1e300, 1e300, allow_nan=False),
    )
)
def test_long_add_array_property(arr):
    assert_add_array_exact(arr, [])
    assert_add_array_exact(arr, START_PARTS)


def reference_columns(n_max, points):
    """Checkpoint columns from a dense sieve and exact integer sums, sharing no package code.

    Every term here is an integer multiple of 2**-150, so int(ldexp(t, 150))
    holds it exactly; each point's sum is rounded once by int / int, which
    CPython rounds correctly.
    """
    flags = dense_sieve_flags(max(n_max, 1))  # it clears flags 0 and 1, so it needs both
    primes = np.flatnonzero(np.frombuffer(flags, dtype=np.uint8))
    p = primes.astype(np.float64)
    logs = np.log(p)
    terms = {"s": 1.0 / p, "a": logs / p, "q": 1.0 / (p * p), "l": logs / (p * p - p)}
    pi = np.searchsorted(primes, points, side="right")
    cols = {"x": np.array(points, dtype=np.int64), "pi": pi}
    for key, row in terms.items():
        grid = (int(math.ldexp(t, 150)) for t in row.tolist())
        prefix = list(itertools.accumulate(grid, initial=0))
        cols[key] = np.array([prefix[k] / 2**150 for k in pi.tolist()])
    return cols


def assert_columns_match_reference(n_max, points, workers=1):
    """accumulate_checkpoints, at the window sieve.SEGMENT_SIZE, against reference_columns bit for bit."""
    cols = accumulate_checkpoints(n_max, points, workers=workers)
    reference = reference_columns(n_max, points)
    assert cols.keys() == reference.keys()
    for key, col in cols.items():
        assert col.dtype == reference[key].dtype, key
        assert col.tobytes() == reference[key].tobytes(), key


def assert_prefix_exact(rows, cuts) -> np.ndarray:
    """prefix_limbs and round_limbs at cuts against a Fraction oracle; returns the values."""
    limbs = prefix_limbs([np.array(row, dtype=np.float64) for row in rows], np.array(cuts))
    assert limbs.shape == (GRID_LIMBS, len(rows), len(cuts))
    assert ((limbs[1:] >= 0) & (limbs[1:] < 1 << LIMB_BITS)).all()  # normalized
    values = round_limbs(limbs)
    for i, row in enumerate(rows):
        total, done = Fraction(0), 0
        for k, cut in enumerate(cuts):
            total += exact_float_sum(row[done:cut])
            done = cut
            held = sum(Fraction(int(v), 1 << (LIMB_BITS * j)) for j, v in enumerate(limbs[:, i, k]))
            assert held == total, (i, cut)
            assert values[i, k] == float(total), (i, cut)
    return values


def test_prefix_sums_round_exact_halfway_sums_to_even():
    half = 2.0**-53  # half an ulp of 1
    for head, tie, rounded in (
        (1.0, half, 1.0),
        (1.0 + 2.0**-52, half, 1.0 + 2.0**-51),
        (2.0**-40, 2.0**-93, 2.0**-40),  # the leading limb is limb 2
        (2.0**-40 + 2.0**-92, 2.0**-93, 2.0**-40 + 2.0**-91),
        (3.0, 2.0**-52, 3.0),  # two bits in the leading limb
    ):
        values = assert_prefix_exact([[head, tie]], [0, 1, 2])
        assert values[0].tolist() == [0.0, head, rounded]


def test_prefix_sums_break_a_tie_by_a_bit_far_below_it():
    # Each low bit sits in a different place: below the 62-bit window inside
    # its last limb, in limb 4, and in limb 5, the grid's last.
    half = 2.0**-53
    for low in (2.0**-70, 2.0**-100, 2.0**-130, 2.0**-150):
        values = assert_prefix_exact([[1.0, half, low]], [2, 3])
        assert values[0].tolist() == [1.0, 1.0 + 2.0**-52]
    values = assert_prefix_exact([[2.0**-40, 2.0**-93, 2.0**-150]], [2, 3])
    assert values[0].tolist() == [2.0**-40, 2.0**-40 + 2.0**-92]


def test_prefix_limbs_split_terms_near_the_sieve_cap_exactly():
    # 1/p^2 and ln(p)/(p^2 - p) below 2^40 reach down to 2^-132; the first
    # 2^18 integers span 2^-1 to 2^-36 in one row.
    top = primes_near_the_cap(1 << 14)
    first = primes_array((1 << 18) - 1)[:2000]
    for primes in (top, first):
        n = len(primes)
        rows = [terms.tolist() for terms in _term_arrays(primes)]
        assert_prefix_exact(rows, [0, 1, n // 3, n // 3, n - 1, n])


def test_prefix_limbs_refuse_what_the_grid_cannot_hold():
    for rows in ([[2.0**29]], [[2.0**-151]], [[2.0**-1000]], [[0.5, 2.0**-151]], [[2.0**28] * 4]):
        with pytest.raises(ValueError):
            prefix_limbs([np.array(row) for row in rows], np.array([len(rows[0])]))


def prefix_limbs_until_zero(terms, cuts):
    """prefix_limbs as it was before rows took their pass count up front: every
    row passes until its remainders are all zero.  The tests' oracle for it."""
    starts = np.concatenate(([0], cuts[:-1]))
    nonempty = starts < cuts
    starts = starts[nonempty]
    pieces = np.zeros(len(cuts))
    limbs = np.zeros((GRID_LIMBS, len(terms), len(cuts)), dtype=np.int64)
    for i, row in enumerate(terms):
        if len(row) >= 1 << 23:
            raise ValueError("each row must be shorter than 2**23")
        top = math.frexp(float(row.max(initial=0.0)))[1]
        if not -LIMB_BITS * (GRID_LIMBS - 1) < top < LIMB_BITS:
            raise ValueError("every row's largest term must lie in [2**-150, 2**29)")
        d = top % LIMB_BITS
        j, scale = (d - top) // LIMB_BITS + 1, 2.0 ** (LIMB_BITS - top)
        h = np.empty_like(row)
        while True:
            row *= scale
            np.trunc(row, out=h)
            row -= h
            pieces[nonempty] = np.add.reduceat(h, starts)
            a = pieces.astype(np.int64)
            high, low = a >> (LIMB_BITS - d), (a & ((1 << (LIMB_BITS - d)) - 1)) << d
            if j >= GRID_LIMBS and (low.any() or (j > GRID_LIMBS and high.any())):
                raise ValueError("every bit of every term must be at least 2**-150")
            limbs[min(j - 1, GRID_LIMBS - 1), i] += high
            limbs[min(j, GRID_LIMBS - 1), i] += low
            if not row.any():
                break
            j, scale = j + 1, 2.0**LIMB_BITS
    np.cumsum(limbs, axis=2, out=limbs)
    return sums._normalize(limbs)


def assert_prefix_limbs_match_the_loop(rows, cuts):
    """prefix_limbs and prefix_limbs_until_zero give the same limbs, or the same ValueError."""
    outcomes = []
    for fn in (prefix_limbs, prefix_limbs_until_zero):
        try:
            outcomes.append(fn([np.array(row, dtype=np.float64) for row in rows], np.array(cuts)))
        except ValueError as err:
            outcomes.append(str(err))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


@st.composite
def limb_rows(draw):
    """Rows of one length for prefix_limbs, with ascending cuts ending at it.

    Every term is 0 or below 2**top, with its lowest bit at least 2**(top -
    spread - 53); odd 53-bit significands put a term's lowest bit as low as
    its exponent lets it, and at the spreads 8 + 30 k one pass fewer would
    miss it.  The edges put terms just below 2**29 and the lowest bits at
    2**-150 and 2**-151.  Special terms make exact ties: 2**(top - 1) and
    2**(top - 1) + 2**(top - 53) with half an ulp of either, 2**(top - 54).
    """
    top = draw(st.one_of(st.integers(-152, 29), st.sampled_from([29, -97, -98, -150, -151])))
    edges = [8, 38, 68, 98, max(0, top + 97), max(0, top + 98)]  # the last: 2**-150, 2**-151
    spread = draw(st.one_of(st.integers(0, 120), st.sampled_from(edges)))
    scales = st.integers(top - spread - 53, top - 53)
    odd = st.integers(2**52, 2**53 - 1).map(lambda m: m | 1)
    terms = st.one_of(
        st.builds(math.ldexp, st.integers(1, 2**53 - 1), scales),
        st.builds(math.ldexp, odd, st.sampled_from([top - spread - 53, top - 53]) | scales),
        st.sampled_from([0.0, math.ldexp(1, top - 1), math.ldexp(2**52 + 1, top - 53)]),
        st.just(math.ldexp(1, top - 54)),
    )
    n = draw(st.sampled_from([0, 1, 2, 3]) | st.integers(0, 60))
    rows = draw(st.lists(st.lists(terms, min_size=n, max_size=n), min_size=1, max_size=4))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6))) + [n]
    return rows, cuts


@settings(max_examples=300, deadline=None)
@given(limb_rows())
def test_prefix_limbs_pass_count_matches_the_loop_until_zero(case):
    assert_prefix_limbs_match_the_loop(*case)


def test_prefix_limbs_pass_count_matches_the_loop_on_edge_rows():
    # Empty rows, single terms, zeros (alone or among positive terms), ties,
    # and terms at both ends of the grid.
    just_below = math.nextafter(2.0**29, 0.0)
    for rows, cuts in (
        ([[]], [0]),
        ([[], []], [0, 0]),
        ([[0.0]], [1]),
        ([[0.0, 0.0, 0.0]], [0, 3]),
        ([[2.0**-150]], [1]),
        ([[just_below]], [0, 1]),
        ([[just_below, 2.0**-150]], [1, 2]),
        ([[just_below, 2.0**-151]], [2]),
        ([[1.0, 2.0**-53, 0.0, 2.0**-53]], [1, 2, 4]),
        ([[1.0 + 2.0**-52, 2.0**-53], [0.5, 0.0]], [0, 1, 2]),
        ([[3.0, 2.0**-52, 2.0**-150]], [3]),
        ([[256.0, 1.0 + 2.0**-52]], [1, 2]),  # a pass fewer would miss 2**-52
    ):
        assert_prefix_limbs_match_the_loop(rows, cuts)


def test_prefix_limbs_pass_count_matches_the_loop_on_real_rows():
    # The S, A, Q and L rows of a window just below the 2^40 cap, and of the
    # first primes, at random cuts.
    rng = random.Random(34)
    for primes in (primes_near_the_cap(1 << 14), primes_array(5000)):
        n = len(primes)
        rows = [terms.tolist() for terms in _term_arrays(primes)]
        cuts = sorted(rng.randint(0, n) for _ in range(20)) + [n]
        assert_prefix_limbs_match_the_loop(rows, cuts)
        assert_prefix_limbs_match_the_loop([row[:1] for row in rows], [0, 1])


def test_checkpoints_carry_across_run_edges(monkeypatch):
    # RUN_POINTS - 1, RUN_POINTS and RUN_POINTS + 1 checkpoints at primes, so
    # that no two share a value of pi, and two more: they fill one run to its
    # point limit, or spill 1, 2 or 3 into a second; later runs take the carry.
    primes = primes_array(1 << 16).tolist()
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 32766)
    for count in (RUN_POINTS - 1, RUN_POINTS, RUN_POINTS + 1):
        points = primes[1 : 1 + count] + [3 << 16, (5 << 16) + 7]
        assert_columns_match_reference(points[-1], points)


def test_points_sharing_pi_take_their_columns_from_one_cut(monkeypatch):
    # Runs of points in one prime gap (1328..1360 and 31398..31468 each share
    # one value of pi), one run crossing window edges at the smaller sizes,
    # and 3 * RUN_POINTS consecutive points that take only ~1,300 values of
    # pi, across run edges.
    points = [*range(2, 40), *range(1328, 1361), *range(5000, 5000 + 3 * RUN_POINTS)]
    points += range(31398, 31469)
    for segment_size in (54, 4098, 3 << 20):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
        assert_columns_match_reference(points[-1], points)


def test_checkpoints_in_gaps_repeats_and_below_two(monkeypatch):
    zero = accumulate_checkpoints(1, [0, 1])
    assert zero["pi"].tolist() == [0, 0]
    for key in "saql":
        assert zero[key].tolist() == [0.0, 0.0]
    points = [0, 1, 2, 3, 24, 25, 26, 27, 28, 29, 30]  # 24..28 lie in one prime gap
    for segment_size in (6, 12, 3 << 18):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
        assert_columns_match_reference(30, points)
    assert_prefix_exact([[0.5, 0.25, 0.125, 0.0625]], [0, 0, 2, 2, 4, 4])


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.integers(0, 3000), min_size=1, max_size=80),
    st.sampled_from([6, 66, 498, 4098]),
    st.sampled_from([1, 2]),
)
def test_checkpoint_columns_match_the_per_event_loop(points, segment_size, workers):
    # patch.object, not monkeypatch: a function-scoped fixture would be shared by every example.
    points = sorted(points)
    with patch.object(sieve, "SEGMENT_SIZE", segment_size):
        assert_columns_match_reference(points[-1], points, workers)


def test_tiny_runs_give_the_default_columns(monkeypatch):
    # Runs of one point or of 64 integers: the first four start at 0, 1, 2
    # and 3; some hold no point (between 1000 and 3000), some no prime (those
    # in the gaps 24..28 and 1328..1360), and one neither: 31334 ends a run
    # and starts one of 64 integers, so the next, [31398, 31462), lies in
    # the gap 31398..31468.
    points = [0, 1, 2, 3, 5, *range(24, 30), 1000, *range(1327, 1362), 3000, 31333, 31334]
    points += [31500]
    reference = accumulate_checkpoints(points[-1], points)  # one run
    monkeypatch.setattr(sums, "RUN_POINTS", 1)
    monkeypatch.setattr(sums, "RUN_INTEGERS", 64)
    monkeypatch.setattr(sums, "RUNS_PER_WORKER", 1 << 40)
    runs = list(sums._runs(np.array(points), 64))
    assert [start for start, _, _ in runs[:4]] == [0, 1, 2, 3]
    assert all(len(pts) <= 1 and 0 < stop - start <= 64 for start, stop, pts in runs)
    assert any(len(pts) == 0 for _, _, pts in runs)
    primes = primes_array(points[-1])
    idle = [pts for start, stop, pts in runs if not np.any((primes >= start) & (primes < stop))]
    assert any(len(pts) for pts in idle) and any(len(pts) == 0 for pts in idle)
    for segment_size in (30, 66, 3 << 20):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
        for workers in (1, 2, 3):
            cols = accumulate_checkpoints(points[-1], points, workers=workers)
            for key, col in reference.items():
                assert col.tobytes() == cols[key].tobytes(), (segment_size, workers, key)


def test_sums_selects_columns_and_leaves_them_unchanged():
    points = [2, 10, 1000, 65536, 10**5, 262147, 3 * 10**5]
    full = accumulate_checkpoints(points[-1], points)
    for sums in (("s",), ("a",), ("q",), ("l",), ("s", "a"), ("l", "q"), ("a", "l"), SUMS):
        cols = accumulate_checkpoints(points[-1], points, sums=sums)
        assert set(cols) == {"x", "pi", *sums}, sums
        for key, col in cols.items():
            assert col.tobytes() == full[key].tobytes(), (sums, key)
    for sums in ((), ("s", "b"), ("pi",), ("x",)):
        with pytest.raises(ValueError):
            accumulate_checkpoints(10, [10], sums=sums)


def test_sums_are_correctly_rounded_at_decades():
    points = decades_up_to(10**5)
    cols = accumulate_checkpoints(10**5, points)
    primes = primes_array(10**5)
    terms = dict(zip("saql", _term_arrays(primes)))
    for i, x in enumerate(points):
        k = int(np.searchsorted(primes, x, side="right"))
        for key, col in terms.items():
            assert cols[key][i] == float(exact_float_sum(col[:k].tolist())), (key, x)


def test_s_and_q_within_one_ulp_of_the_real_sums():
    # The columns are the correctly rounded sums of the rounded terms fl(1/p)
    # and fl(1/(p*p)), which can sit 1 ulp from the correctly rounded real sum.
    limit = 3000
    cols = accumulate_checkpoints(limit, range(2, limit + 1), sums=("s", "q"))
    real = dict(zip("sq", real_prime_sums(limit)))
    for key, want in real.items():
        for x, got in zip(cols["x"].tolist(), cols[key].tolist()):
            assert abs(got - want[x]) <= math.ulp(want[x]), (key, x)


def test_single_prime_checkpoint():
    row = accumulate_checkpoints(10, [2])
    assert row["pi"].tolist() == [1]
    assert row["s"].tolist() == [0.5]
    assert row["q"].tolist() == [0.25]
    assert row["a"].tolist() == row["l"].tolist()  # at x=2 both are ln(2)/2
    assert math.isclose(row["a"].item(), math.log(2.0) / 2.0, rel_tol=0.0, abs_tol=1e-15)


def test_table_values_at_ten_and_million():
    s10, s6 = accumulate_checkpoints(10**6, [10, 10**6])["s"].tolist()
    assert abs(s10 - 1.176) <= 5e-4
    assert abs(s6 - 2.887) <= 5e-4


def test_s_at_1e4_matches_exact_rational_sum():
    row = accumulate_checkpoints(10**4, [10**4])
    assert row["pi"].item() == 1229
    num, den = 0, 1
    for p in primes_array(10**4).tolist():
        num = num * p + den
        den *= p
    err = abs(Fraction(row["s"].item()) - Fraction(num, den))
    assert err <= Fraction(1, 10**12)


def test_all_four_sums_within_1e11_of_oracles_at_1e5():
    row = {k: v.item() for k, v in accumulate_checkpoints(10**5, [10**5]).items()}
    primes = primes_array(10**5).tolist()
    with mp.workprec(256):
        s = mp.fsum(mp.mpf(1) / p for p in primes)
        a = mp.fsum(mp.log(p) / p for p in primes)
        q = mp.fsum(mp.mpf(1) / (mp.mpf(p) * p) for p in primes)
        l = mp.fsum(mp.log(p) / (mp.mpf(p) * p - p) for p in primes)
        assert abs(row["s"] - s) < 1e-11
        assert abs(row["a"] - a) < 1e-11
        assert abs(row["q"] - q) < 1e-11
        assert abs(row["l"] - l) < 1e-11


def test_rows_bit_identical_for_any_segmentation_and_workers(monkeypatch):
    points = decades_up_to(10**5) + [10**5 + 3]
    points = sorted(set(points))
    reference = accumulate_checkpoints(10**5 + 3, points)
    monkeypatch.setattr(sums, "RUN_INTEGERS", 1 << 14)  # several runs, so the pool starts
    for segment_size in (1026, 4098, 3 << 18, 3 << 20):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
        for workers in (1, 3):
            cols = accumulate_checkpoints(10**5 + 3, points, workers=workers)
            assert cols.keys() == reference.keys()
            for key, col in cols.items():
                assert col.tobytes() == reference[key].tobytes(), key


def test_s_and_q_bytes_are_pinned_at_decades(shared_scan):
    # S and Q use only correctly rounded operations, so these bytes hold on
    # every IEEE binary64 platform (A and L go through np.log and do not).
    cols = shared_scan.at(decades_up_to(10**7))
    assert [repr(v) for v in cols["s"].tolist()] == [
        "1.1761904761904762",
        "1.802817201048871",
        "2.1980801271750874",
        "2.483059947233561",
        "2.705272179047264",
        "2.887328099567673",
        "3.0414493812797105",
    ]
    assert [repr(v) for v in cols["q"].tolist()] == [
        "0.42151927437641723",
        "0.45042878826375243",
        "0.4521204302493046",
        "0.4522376043399503",
        "0.4522466177920539",
        "0.4522473522653741",
        "0.45224741418100906",
    ]


def test_columns_at_selects_points_and_raises_on_a_missing_one():
    cols = accumulate_checkpoints(100, [10, 50, 100])
    picked = columns_at(cols, [100, 10])
    assert picked["x"].tolist() == [100, 10]
    assert picked["pi"].tolist() == [25, 4]
    assert picked["s"].tolist() == [cols["s"][2], cols["s"][0]]
    assert columns_at(cols, [50.0])["x"].tolist() == [50]  # an integral float selects by value
    # Below, between and above the checkpoints; a fraction; a point past int64.
    for missing in (5, 11, 101, 10.5, 2**70):
        with pytest.raises(KeyError, match=str(missing)):
            columns_at(cols, [10, missing])


def test_row_pi_matches_sieve_pi_at():
    points = [10, 97, 1000, 12345]
    cols = accumulate_checkpoints(12345, points)
    primes = primes_array(12345)
    counts = np.searchsorted(primes, points, side="right").tolist()
    assert cols["pi"].tolist() == counts


def test_sums_increase_exactly_at_primes():
    points = list(range(2, 60))
    cols = accumulate_checkpoints(60, points)
    for x in range(3, 60):
        prev, cur = (columns_at(cols, [y]) for y in (x - 1, x))
        if cur["pi"] > prev["pi"]:  # x is prime
            assert cur["s"] > prev["s"] and cur["a"] > prev["a"]
            assert cur["q"] > prev["q"] and cur["l"] > prev["l"]
        else:
            assert all(cur[k] == prev[k] for k in "saql")


def test_q_and_l_caps_hold_on_checkpoints():
    cols = accumulate_checkpoints(10**6, decades_up_to(10**6))
    for q, l in zip(cols["q"].tolist(), cols["l"].tolist()):
        assert q < Q_CAP
        assert l < L_CAP


@pytest.mark.filterwarnings("error")  # numpy's cast warnings fail the test
def test_checkpoint_validation():
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [50, 10])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [10, 200])
    for fractional, named in (([10.5], "10.5"), ([10.9, 20.2], "10.9"), ([2, 7.25, 9], "7.25")):
        with pytest.raises(ValueError, match=named):
            accumulate_checkpoints(100, fractional)
    with pytest.raises(ValueError, match="7.5"):
        accumulate_checkpoints(100, np.array([3.0, 7.5]))
    assert accumulate_checkpoints(100, [10.0, 20])["x"].tolist() == [10, 20]  # integral floats pass
    unsigned = np.array([10, 20], dtype=np.uint64)
    assert accumulate_checkpoints(100, unsigned)["x"].tolist() == [10, 20]
    # Past the int64 range, or not finite, a float is refused before the int64
    # cast, which would warn and wrap.
    # So is an unsigned integer: numpy reads a lone int in [2**63, 2**64) as uint64.
    for beyond in (
        [2**70],
        [5, 10**30],
        np.array([5.0, 1e30]),
        [5.0, 1e30],
        [-1e30],
        [2**63],
        np.array([5, 2**63], dtype=np.uint64),
    ):
        with pytest.raises(sieve.SieveLimitError, match="sieve maximum"):
            accumulate_checkpoints(100, beyond)
    for non_finite, named in (
        ([5, math.nan], "nan"),
        (np.array([5.0, np.nan]), "nan"),
        ([5, math.inf], "inf"),
        (np.array([5.0, -np.inf]), "-inf"),
    ):
        with pytest.raises(ValueError, match=f"must be finite, got {named}"):
            accumulate_checkpoints(100, non_finite)
