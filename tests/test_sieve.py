import multiprocessing
import random

import numpy as np
import pytest

from mertens import sieve, sums
from mertens.sieve import (
    MAX_SIEVE_BOUND,
    SieveLimitError,
    _check_request,
    iter_prime_arrays,
    primes_array,
)
from mertens.sums import accumulate_checkpoints

from conftest import TRIAL_LIMIT, dense_sieve_flags, trial_is_prime


def test_no_primes_below_two():
    assert primes_array(0).tolist() == []
    assert primes_array(1).tolist() == []
    assert primes_array(2).tolist() == [2]


def test_primes_up_to_ten():
    assert primes_array(10).tolist() == [2, 3, 5, 7]


def test_primes_up_to_hundred_against_trial_division():
    got = primes_array(100).tolist()
    want = [n for n in range(2, 101) if trial_is_prime(n)]
    assert got == want
    assert len(got) == 25
    assert got[-1] == 97


def test_stream_is_ascending_and_starts_at_two():
    ps = primes_array(10**4)
    assert ps[0] == 2
    assert np.all(np.diff(ps) > 0)


def test_counts_match_trial_division_at_every_n(trial_flags_100k):
    points = list(range(1, TRIAL_LIMIT + 1))
    cols = accumulate_checkpoints(TRIAL_LIMIT, points)
    want = np.cumsum(trial_flags_100k)
    got = cols["pi"]
    assert np.array_equal(got, want[1:])


def test_consecutive_pi_deltas_are_zero_or_one():
    counts = accumulate_checkpoints(2999, list(range(1, 3000)))["pi"]
    deltas = np.diff(counts)
    assert set(np.unique(deltas)) <= {0, 1}


def test_segment_size_independence(monkeypatch):
    rng = random.Random(1905)
    for n in [rng.randint(10**6, 10**7) for _ in range(2)] + [10**7]:
        streams = []
        for size in (1026, 65538, 3 << 20):
            monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
            streams.append(primes_array(n))
        assert np.array_equal(streams[0], streams[1])
        assert np.array_equal(streams[0], streams[2])


def test_monotone_prefix_property():
    rng = random.Random(77)
    for _ in range(3):
        n = rng.randint(10, 10**6)
        m = rng.randint(n, 10**6)
        small = primes_array(n)
        big = primes_array(m)
        assert np.array_equal(small, big[: len(small)])


def pi_pairs(points):
    cols = accumulate_checkpoints(points[-1], points)
    return list(zip(cols["x"].tolist(), cols["pi"].tolist()))


def test_pi_at_examples():
    assert pi_pairs([1]) == [(1, 0)]
    assert pi_pairs([10, 100]) == [(10, 4), (100, 25)]


def test_pi_at_million_against_independent_sieve():
    flags = dense_sieve_flags(10**6)
    assert pi_pairs([10**6]) == [(10**6, sum(flags))]
    assert pi_pairs([10**6])[0][1] == 78498


def test_segment_boundaries_against_trial_division():
    # Integers straddling the first few window and piece boundaries against
    # trial division; every integer up to the last against a dense sieve.
    sizes = (sieve.SEGMENT_SIZE, sieve.PIECE)
    boundaries = [6 + size * k for size in sizes for k in (1, 2, 3)]
    hi = max(boundaries) + 40
    primes = primes_array(hi)
    flags = np.zeros(hi + 1, dtype=bool)
    flags[primes] = True
    assert flags.tolist() == list(dense_sieve_flags(hi))
    for b in boundaries:
        for n in range(b - 40, b + 41):
            assert flags[n] == trial_is_prime(n), n


def test_worker_count_does_not_change_stream(monkeypatch):
    # Runs stream on from where the last one ended, whatever their length, so
    # together they give the one stream; the columns, for any worker count.
    n = 3 * 10**5
    starts = [0, 1, 2, 3, 4, 1000, 65537, n + 1]
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 65538)  # forked pool workers inherit it
    arrays = [
        piece
        for start, stop in zip(starts, starts[1:])
        for piece in iter_prime_arrays(stop - 1, start=start)
    ]
    assert [lo for lo, _, _ in arrays] == [0, *(hi for _, hi, _ in arrays[:-1])]
    assert arrays[-1][1] == n + 1
    assert np.array_equal(np.concatenate([arr for _, _, arr in arrays]), primes_array(n))
    monkeypatch.setattr(sums, "RUN_INTEGERS", 1 << 16)  # several runs, so the pool starts
    points = [2, 1000, 65536, 65537, 10**5, n]
    serial = accumulate_checkpoints(n, points, workers=1)
    for key, col in accumulate_checkpoints(n, points, workers=3).items():
        assert col.tobytes() == serial[key].tobytes(), key


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_each_start_method_gives_the_serial_stream(monkeypatch, method):
    # Workers that start from a fresh interpreter get everything from their
    # tasks, and the runs must still be added in order.  They import the
    # package afresh, so the patched window reaches the serial pass alone:
    # the pool sieves in windows of 3 * 2**20, and the columns must still agree.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    monkeypatch.setattr(sums, "RUN_INTEGERS", 1 << 16)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 16386)
    points = [10, 4097, 65536, 65537, 150_001, 200_000]
    serial, pooled = (accumulate_checkpoints(200_000, points, workers=w) for w in (1, 2))
    for key, col in serial.items():
        assert col.tobytes() == pooled[key].tobytes(), key


def test_pool_window_smaller_than_task_count(monkeypatch):
    # 25 runs of 4096 integers, at most 4 in flight: the window slides.
    monkeypatch.setattr(sums, "RUN_INTEGERS", 4096)
    monkeypatch.setattr(sums, "RUNS_PER_WORKER", 1 << 40)
    points = [10, 997, 4096, 4097, 65536, 10**5]
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 4098)
    assert len(list(sums._runs(np.array(points), 4096))) == 25
    serial = accumulate_checkpoints(10**5, points, workers=1)
    pooled = accumulate_checkpoints(10**5, points, workers=2)
    for key, col in serial.items():
        assert col.tobytes() == pooled[key].tobytes()
    assert list(sums._pooled(pow, [(k, 2) for k in range(25)], 2)) == [k * k for k in range(25)]


def test_windows_come_in_bounded_pieces(monkeypatch):
    # Windows below, at and above PIECE, one not a multiple of PIECE (its last
    # piece is short), and one covering all of n; and a stream that starts off
    # the wheel, past 6.
    n = 3 * 10**6
    sizes = (4098, 3 << 18, 3 << 19, (3 << 19) + 6, 3 << 21)

    def window(size):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)

    streams = {}
    for size in sizes:
        window(size)
        streams[(size, 0)] = list(iter_prime_arrays(n))
    window(3 << 19)
    streams[(3 << 19, 1000)] = list(iter_prime_arrays(n, start=1000))
    edges = set()
    for (segment_size, start), arrays in streams.items():
        assert arrays[0][0] == start and arrays[-1][1] == n + 1
        assert [hi for _, hi, _ in arrays[:-1]] == [lo for lo, _, _ in arrays[1:]]
        assert all(0 < hi - lo <= sieve.PIECE for lo, hi, _ in arrays)
        assert all(lo <= arr.min(initial=lo) <= arr.max(initial=lo) < hi for lo, hi, arr in arrays)
        first = max(start - start % 6, 6)
        windows = {max(start, first + segment_size * k) for k in range((n - first) // segment_size + 1)}
        assert windows <= {lo for lo, _, _ in arrays}  # a window edge is a piece edge
        edges |= {lo for lo, _, _ in arrays}
    window(4098)
    want = primes_array(n)
    for (_, start), arrays in streams.items():
        got = np.concatenate([arr for _, _, arr in arrays])
        assert np.array_equal(got, want[np.searchsorted(want, start) :])
    points = sorted({x + d for x in edges for d in (-1, 0, 1)} & set(range(n + 1)))
    ref = accumulate_checkpoints(n, points, workers=1)
    configs = [(size, workers) for workers in (1, 2) for size in sizes]
    for segment_size, workers in configs[1:]:
        window(segment_size)
        cols = accumulate_checkpoints(n, points, workers=workers)
        for key, col in ref.items():
            assert col.tobytes() == cols[key].tobytes(), (segment_size, workers, key)


def test_pi_at_input_validation():
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [100, 10])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [5, 5])


def test_stream_parameter_validation(monkeypatch):
    with pytest.raises(ValueError):
        primes_array(-1)
    with pytest.raises(ValueError):
        next(iter_prime_arrays(-1))
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [10], workers=0)
    for size in (0, -6, 8, 1 << 20):  # a zero window is refused, never looped on, and so
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)  # is one off the 6k±1 wheel
        with pytest.raises(ValueError):
            primes_array(100)


def test_stale_positional_calls_fail_loudly():
    # A window passed where these once took one must raise, not run with 8
    # workers or start the stream at 65,536.
    with pytest.raises(TypeError):
        accumulate_checkpoints(100, [10], 8)
    with pytest.raises(TypeError):
        iter_prime_arrays(100, 1 << 16)
    with pytest.raises(TypeError):
        primes_array(100, segment_size=1 << 16)


def test_sieve_cap_is_enforced():
    # Both are refused before anything is allocated.
    with pytest.raises(SieveLimitError):
        primes_array(MAX_SIEVE_BOUND + 1)
    with pytest.raises(SieveLimitError):
        accumulate_checkpoints(MAX_SIEVE_BOUND + 1, [MAX_SIEVE_BOUND + 1])
    assert _check_request(MAX_SIEVE_BOUND, 1) is None  # cap itself allowed


def test_prime_stream_carries_configuration(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 6)
    for start in (0, 1, 2, 3, 20):
        arrays = list(iter_prime_arrays(50, start=start))
        assert (arrays[0][0], arrays[-1][1]) == (start, 51)  # coverage [start, bound + 1)
        assert np.concatenate([arr for _, _, arr in arrays]).tolist() == [
            n for n in range(max(start, 2), 51) if trial_is_prime(n)
        ]
        assert all(hi - lo <= 6 for lo, hi, _ in arrays[1:])
    assert [(lo, hi, arr.tolist()) for lo, hi, arr in iter_prime_arrays(1)] == [(0, 2, [])]


@pytest.mark.parametrize("size", [12, sieve.SEGMENT_SIZE])
def test_stream_matches_trial_division_at_every_start(monkeypatch, size):
    # Every start on and off the wheel, inside and just past the head piece
    # [start, 6), in windows of 12 and of the default size.
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
    for n in range(201):
        want = [m for m in range(n + 1) if trial_is_prime(m)]
        for start in range(n + 2):
            arrays = list(iter_prime_arrays(n, start=start))
            edges = [start, *(hi for _, hi, _ in arrays)]  # contiguous coverage [start, n + 1)
            assert [lo for lo, _, _ in arrays] == edges[:-1] and edges[-1] == n + 1, (n, start)
            assert all(lo < hi for lo, hi in zip(edges, edges[1:])), (n, start)
            got = [p for _, _, arr in arrays for p in arr.tolist()]
            assert got == [p for p in want if p >= start], (n, start)
            assert all(lo <= p < hi for lo, hi, arr in arrays for p in arr.tolist())


def wheel_mask_reference(lo, hi, base_primes):
    """One prime at a time: its first two multiples prime to 6 found by stepping, then every 6p."""
    mask = np.ones(len(range(lo + 1, hi, 6)) + len(range(lo + 5, hi, 6)), dtype=bool)
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        if p < 5:
            continue
        m = max(p * p, -(-lo // p) * p)
        firsts = []
        while len(firsts) < 2:
            if m % 6 in (1, 5):
                firsts.append(m)
            m += p
        for m in firsts:
            if m < hi:
                mask[(m - lo) // 3 :: 2 * p] = False
    return mask


def test_wheel_mask_matches_per_prime_reference():
    base = sieve.base_odd_primes(1 << 20)
    rng = random.Random(1940)
    windows = [(6, 6), (0, 1), (0, 2), (0, 5), (0, 6), (0, 100), (996, 1003)]
    for p in base[:40].tolist():
        sq = p * p
        # lo below p^2 and at the first multiple of 6 past it; hi = p^2, p^2 + 1 and past them
        edges = [(sq - 2 * p, sq), (sq - 2 * p, sq + 1), (sq, sq + 1), (sq + 1, sq + 3)]
        for lo, hi in edges + [(sq + 6, sq + 12)]:
            windows.append((lo - lo % 6, hi))
    for _ in range(150):
        lo = rng.randint(3, 10**7)
        windows.append((lo - lo % 6, lo + rng.randint(0, 3 * 10**4)))
    top = sieve.MAX_SIEVE_BOUND
    for _ in range(6):
        hi = top - rng.randint(0, 100)
        lo = hi - rng.randint(1, 2 * 10**5)
        windows.append((lo - lo % 6, hi))
    for lo, hi in windows:
        got = sieve._wheel_mask(lo, hi, base)
        want = wheel_mask_reference(lo, hi, base)
        assert got.shape == want.shape and np.array_equal(got, want), (lo, hi)
