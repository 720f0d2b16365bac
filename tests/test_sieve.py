import multiprocessing
import random

import numpy as np
import pytest

from mertens import sieve
from mertens.sieve import (
    DEFAULT_SEGMENT_SIZE,
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


def test_segment_size_independence():
    rng = random.Random(1905)
    for n in [rng.randint(10**6, 10**7) for _ in range(2)] + [10**7]:
        streams = [primes_array(n, segment_size=size) for size in (1024, 65536, 1 << 20)]
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
    # Integers straddling the first few default window and piece boundaries
    # against trial division; every integer up to the last against a dense sieve.
    sizes = (DEFAULT_SEGMENT_SIZE, sieve.PIECE)
    boundaries = [3 + size * k for size in sizes for k in (1, 2, 3)]
    hi = max(boundaries) + 40
    primes = primes_array(hi)
    flags = np.zeros(hi + 1, dtype=bool)
    flags[primes] = True
    assert flags.tolist() == list(dense_sieve_flags(hi))
    for b in boundaries:
        for n in range(b - 40, b + 41):
            assert flags[n] == trial_is_prime(n), n


def test_worker_count_does_not_change_stream():
    serial = primes_array(3 * 10**5)
    parallel = np.concatenate(
        [arr for _, _, arr in iter_prime_arrays(3 * 10**5, 1 << 16, workers=3)]
    )
    assert np.array_equal(serial, parallel)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_each_start_method_gives_the_serial_stream(monkeypatch, method):
    # Workers that start from a fresh interpreter get the base primes from the
    # pool initializer alone, and windows must still arrive ascending.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    serial, pooled = (
        [(lo, hi, arr.tolist()) for lo, hi, arr in iter_prime_arrays(200_000, 1 << 14, w)]
        for w in (1, 2)
    )
    assert pooled == serial


def test_pool_window_smaller_than_task_count(monkeypatch):
    # 25 windows in tasks of 2, at most 4 tasks in flight: the window slides.
    monkeypatch.setattr(sieve, "POOL_INTEGERS_IN_FLIGHT", 8 * 4096)
    points = [10, 997, 4096, 4097, 65536, 10**5]
    serial = accumulate_checkpoints(10**5, points, segment_size=4096, workers=1)
    pooled = accumulate_checkpoints(10**5, points, segment_size=4096, workers=2)
    for key, col in serial.items():
        assert col.tobytes() == pooled[key].tobytes()
    arrays = list(iter_prime_arrays(10**5, 4096, workers=2))
    assert [hi for _, hi, _ in arrays[:-1]] == [lo for lo, _, _ in arrays[1:]]
    assert np.array_equal(np.concatenate([arr for _, _, arr in arrays]), primes_array(10**5))


def test_windows_come_in_bounded_pieces():
    # Windows below, at and above PIECE, one odd-sized (its pieces start on
    # even integers), and one covering all of n.
    n = 3 * 10**6
    sizes = (4096, 1 << 18, 1 << 20, (1 << 20) + 7, 1 << 22)
    configs = [(size, workers) for workers in (1, 2) for size in sizes]
    streams = {c: list(iter_prime_arrays(n, *c)) for c in configs}
    edges = set()
    for (segment_size, _), arrays in streams.items():
        assert arrays[0][0] == 0 and arrays[-1][1] == n + 1
        assert [hi for _, hi, _ in arrays[:-1]] == [lo for lo, _, _ in arrays[1:]]
        assert all(0 < hi - lo <= sieve.PIECE for lo, hi, _ in arrays)
        assert all(lo <= arr.min(initial=lo) <= arr.max(initial=lo) < hi for lo, hi, arr in arrays)
        windows = {3 + segment_size * k for k in range((n - 3) // segment_size + 1)}
        assert windows <= {lo for lo, _, _ in arrays}  # a window edge is a piece edge
        edges |= {lo for lo, _, _ in arrays}
    want = primes_array(n, segment_size=4096)
    for arrays in streams.values():
        assert np.array_equal(np.concatenate([arr for _, _, arr in arrays]), want)
    points = sorted({x + d for x in edges for d in (-1, 0, 1)} & set(range(n + 1)))
    ref = accumulate_checkpoints(n, points, 4096, 1)
    for segment_size, workers in configs[1:]:
        cols = accumulate_checkpoints(n, points, segment_size, workers)
        for key, col in ref.items():
            assert col.tobytes() == cols[key].tobytes(), (segment_size, workers, key)


def test_pi_at_input_validation():
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [100, 10])
    with pytest.raises(ValueError):
        accumulate_checkpoints(100, [5, 5])


def test_stream_parameter_validation():
    with pytest.raises(ValueError):
        primes_array(-1)
    with pytest.raises(ValueError):
        primes_array(100, segment_size=0)
    with pytest.raises(ValueError):
        next(iter_prime_arrays(100, workers=0))


def test_sieve_cap_is_enforced():
    # Both are refused before anything is allocated.
    with pytest.raises(SieveLimitError):
        primes_array(MAX_SIEVE_BOUND + 1)
    with pytest.raises(SieveLimitError):
        accumulate_checkpoints(MAX_SIEVE_BOUND + 1, [MAX_SIEVE_BOUND + 1])
    assert _check_request(MAX_SIEVE_BOUND, 1, 1) is None  # cap itself allowed


def test_prime_stream_carries_configuration():
    arrays = list(iter_prime_arrays(50, segment_size=8, workers=1))
    assert arrays[-1][1] == 51  # coverage ends just past the bound
    assert np.concatenate([arr for _, _, arr in arrays]).tolist() == [
        n for n in range(2, 51) if trial_is_prime(n)
    ]


def odd_mask_reference(lo, hi, base_primes):
    """One prime at a time: the start offset worked out in Python, with fix-ups."""
    first = lo | 1
    count = (hi - first + 1) // 2
    mask = np.ones(max(count, 0), dtype=bool)
    if count <= 0:
        return mask
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        start = p * p
        if start < first:
            start = ((first + p - 1) // p) * p
            if start % 2 == 0:
                start += p
        if start < hi:
            mask[(start - first) // 2 :: p] = False
    return mask


def test_odd_mask_matches_per_prime_reference():
    base = sieve.base_odd_primes(1 << 20)
    rng = random.Random(1940)
    windows = [(3, 3), (3, 2), (3, 4), (3, 5), (4, 6), (3, 100), (1000, 1003)]
    for p in base[:40].tolist():
        sq = p * p
        # lo below, at and above p^2; hi = p^2 and p^2 + 1
        windows += [(sq - 2 * p, sq), (sq - 2 * p, sq + 1), (sq, sq + 1), (sq + 1, sq + 3)]
    for _ in range(150):
        lo = rng.randint(3, 10**7)
        windows.append((lo, lo + rng.randint(0, 3 * 10**4)))
    top = sieve.MAX_SIEVE_BOUND
    for _ in range(6):
        hi = top - rng.randint(0, 100)
        windows.append((hi - rng.randint(1, 2 * 10**5), hi))
    for lo, hi in windows:
        got = sieve._odd_mask(lo, hi, base)
        want = odd_mask_reference(lo, hi, base)
        assert got.shape == want.shape and np.array_equal(got, want), (lo, hi)
