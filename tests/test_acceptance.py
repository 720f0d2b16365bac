"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criterion 2 drives the full 1e9 run and is opt-in: set
MERTENS_ACCEPTANCE_LARGE=1 to enable it (required for release testing).

Criterion 5 checks both variants of the envelope's upper correction.  The
tightened variant (1/((2 ln n)^2)) is numerically false: with exact rational
arithmetic, S(286) = 2.00944243921609705... exceeds
ln ln 286 + 1/((2 ln 286)^2) + B = 2.00202757628369159..., and 467 integers
in [286, 1675] violate it.  That sub-criterion is asserted as written and
fails honestly; the standard symmetric envelope passes everywhere.
"""

import math
import multiprocessing
import os
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from mertens import sieve
from mertens.bounds import (
    B,
    binomial_prime_product_scan,
    chebyshev_dyadic_check,
    estimate_mertens_B,
    euler_lower_bound_check,
    extrapolate_sum,
    rosser_schoenfeld_check,
)
from mertens.cli import main
from mertens.identities import (
    SequencePair,
    abel_identity_eval,
    factorial_log_identity,
    legendre_vp,
    log_one_minus_bound,
    stieltjes_grid,
    stieltjes_scan,
)
from mertens.sieve import primes_array
from mertens.sums import accumulate_checkpoints

from conftest import decades_up_to

LARGE_SCALE = os.environ.get("MERTENS_ACCEPTANCE_LARGE") == "1"


def report(criterion: str, failures: list[str], detail: str) -> None:
    ok = not failures
    text = detail if ok else "; ".join(failures)
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {text}")
    assert ok, f"{criterion}: " + "; ".join(failures)


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    s10, s6 = accumulate_checkpoints(10**6, [10, 10**6])["s"].tolist()
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(s10 - 1.176) > 5e-4:
        failures.append(f"S(10)={s10!r}")
    if abs(s6 - 2.887) > 5e-4:
        failures.append(f"S(1e6)={s6!r}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report(
        "criterion 1 (table reproduction)",
        failures,
        f"S(10)={s10:.4f} S(1e6)={s6:.4f} runtime={elapsed:.3f}s",
    )


@pytest.mark.skipif(
    not LARGE_SCALE, reason="opt-in: set MERTENS_ACCEPTANCE_LARGE=1 for the 1e9 run"
)
def test_criterion_02_large_scale_table():
    t0 = time.perf_counter()
    cols = accumulate_checkpoints(10**9, decades_up_to(10**9))
    single = time.perf_counter() - t0
    s9 = cols["s"][-1].item()
    failures = []
    if abs(s9 - 3.293) > 5e-4:
        failures.append(f"S(1e9)={s9!r}")
    if single >= 180.0:
        failures.append(f"single-threaded runtime {single:.1f}s >= 180s")
    t0 = time.perf_counter()
    cols8 = accumulate_checkpoints(10**9, decades_up_to(10**9), workers=8)
    eight = time.perf_counter() - t0
    if any(cols8[k].tobytes() != cols[k].tobytes() for k in cols):
        failures.append("8-worker rows differ from single-threaded rows")
    if multiprocessing.cpu_count() >= 8 and eight >= 60.0:
        failures.append(f"8-worker runtime {eight:.1f}s >= 60s")
    report(
        "criterion 2 (large-scale table)",
        failures,
        f"S(1e9)={s9:.6f} single={single:.1f}s workers8={eight:.1f}s "
        f"(cores={multiprocessing.cpu_count()})",
    )


def test_criterion_03_extrapolation():
    failures = []
    v100 = extrapolate_sum(100.0)
    if not 5.65 <= v100 <= 5.75:
        failures.append(f"extrapolate(100)={v100!r}")
    s6 = accumulate_checkpoints(10**6, [10**6])["s"].item()
    if f"{extrapolate_sum(6.0):.3f}" != f"{s6:.3f}":
        failures.append(f"extrapolate(6)={extrapolate_sum(6.0)!r} vs S(1e6)={s6!r}")
    v9 = extrapolate_sum(9.0)
    if f"{v9:.3f}" != "3.293":
        failures.append(f"extrapolate(9)={v9!r} does not round to 3.293")
    if LARGE_SCALE:
        s9 = accumulate_checkpoints(10**9, [10**9])["s"].item()
        if f"{v9:.3f}" != f"{s9:.3f}":
            failures.append(f"extrapolate(9) vs sieved S(1e9)={s9!r}")
    report(
        "criterion 3 (extrapolation)",
        failures,
        f"extrapolate(100)={v100:.4f} extrapolate(6)={extrapolate_sum(6.0):.4f} "
        f"extrapolate(9)={v9:.4f}",
    )


def test_criterion_04_mertens_constant(shared_scan):
    failures = []
    s6, s8 = shared_scan.at([10**6, 10**8])["s"].tolist()
    b8 = estimate_mertens_B(10**8, s8)
    b6 = estimate_mertens_B(10**6, s6)
    if abs(b8 - B) > 1.6e-3:
        failures.append(f"B(1e8)={b8!r} off by {abs(b8 - B):.2e}")
    if abs(b6 - B) > 2.7e-3:
        failures.append(f"B(1e6)={b6!r} off by {abs(b6 - B):.2e}")
    report(
        "criterion 4 (Mertens constant)",
        failures,
        f"B(1e8) err={abs(b8 - B):.2e} B(1e6) err={abs(b6 - B):.2e}",
    )


def _rs_check(shared_scan):
    return rosser_schoenfeld_check(shared_scan.at(shared_scan.rs_points))


def test_criterion_05_envelope_symmetric_variant(shared_scan):
    check, _ = _rs_check(shared_scan)
    failures = []
    if check.violations:
        failures.append(
            f"{check.violations} violations, worst {check.worst_margin:.3e} @ {check.worst_arg}"
        )
    report(
        "criterion 5 (envelope, symmetric variant)",
        failures,
        f"scanned={check.scanned} violations=0 worst_margin={check.worst_margin:.3e}",
    )


def test_criterion_05_envelope_asymmetric_upper_variant(shared_scan):
    _, check = _rs_check(shared_scan)
    failures = []
    if check.violations:
        failures.append(
            f"{check.violations} violations, worst {check.worst_margin:.3e} @ "
            f"x={check.worst_arg}; the tightened upper correction 1/((2 ln n)^2) is "
            f"provably exceeded at n=286 (S(286)=2.009442... > 2.002028...); "
            f"see notes in the repository README"
        )
    report(
        "criterion 5 (envelope, tightened upper variant, as specified)",
        failures,
        f"scanned={check.scanned} violations=0",
    )


def test_criterion_06_exact_identities():
    failures = []

    rng = random.Random(0xA8E1)
    worst = 0.0
    for _ in range(1000):
        span = rng.randint(1, 100)
        m = rng.randint(1, 8)
        f = [rng.uniform(-1.0, 1.0) for _ in range(span + 1)]
        g = [rng.uniform(-1.0, 1.0) for _ in range(span + 1)]
        worst = max(worst, abel_identity_eval(SequencePair(f, g, m, m + span - 1)).rel_diff)
    if worst > 1e-12:
        failures.append(f"abel worst rel_diff {worst:.3e}")

    primes = primes_array(10**5)
    grid = stieltjes_grid(10**5, primes_array(10**4))
    stj = stieltjes_scan(accumulate_checkpoints(grid[-1], grid), primes)
    worst_stj = stj.rel_diff.max()
    if worst_stj > 1e-12:
        failures.append(f"stieltjes worst rel_diff {worst_stj:.3e}")

    worst_fact = 0.0
    for n in list(range(1, 2001)) + [10**4, 10**5]:
        check = factorial_log_identity(n, primes)
        worst_fact = max(worst_fact, check.identity.rel_diff)
        if not check.stirling_ok:
            failures.append(f"stirling ratio out of range at n={n}")
    if worst_fact > 1e-10:
        failures.append(f"factorial worst rel_diff {worst_fact:.3e}")

    for n in range(0, 201):
        recon = 1
        for p in primes_array(n).tolist():
            recon *= p ** legendre_vp(n, p)
        if recon != math.factorial(n):
            failures.append(f"legendre reconstruction failed at n={n}")
            break

    report(
        "criterion 6 (exact identities)",
        failures,
        f"abel={worst:.2e} stieltjes[{len(stj.rel_diff)} pts]={worst_stj:.2e} "
        f"factorial={worst_fact:.2e} legendre<=200 exact",
    )


def test_criterion_07_exact_inequality_chain(shared_scan):
    failures = []
    primes = primes_array(10**6)
    binom = binomial_prime_product_scan(1, 2000, primes)
    if binom.violations:
        failures.append(f"binomial chain: {binom.violations} violations")
    cheb = chebyshev_dyadic_check(16, 10**6, primes)
    if cheb.violations:
        failures.append(f"chebyshev: {cheb.violations} violations @ {cheb.worst_arg}")
    if not all(log_one_minus_bound(k / 2048.0).passed for k in range(1025)):
        failures.append("log bound grid")
    points = shared_scan.euler_points
    euler = euler_lower_bound_check(shared_scan.at(points))
    if euler.violations:
        failures.append(f"euler lower bound: {euler.violations} violations")
    report(
        "criterion 7 (exact inequality chain)",
        failures,
        f"binomial[1,2000] ok; chebyshev[16,1e6] worst={cheb.worst_margin:.3e}; "
        f"log grid 1025 pts ok; euler on {len(points)} primes worst={euler.worst_margin:.3e}",
    )


def test_criterion_08_residual_caps(shared_scan):
    failures = []
    worst_r, worst_q, worst_l = 0.0, 0.0, 0.0
    cols = shared_scan.at(shared_scan.cap_points)
    for x, a, q, l in zip(*(cols[k].tolist() for k in ("x", "a", "q", "l"))):
        r = abs(a - math.log(x))
        worst_r = max(worst_r, r)
        worst_q = max(worst_q, q)
        worst_l = max(worst_l, l)
        if r > 2.0:
            failures.append(f"|A - ln x| = {r!r} at x={x}")
        if q >= 1.645:
            failures.append(f"Q = {q!r} at x={x}")
        if l >= 2.0:
            failures.append(f"L = {l!r} at x={x}")
    report(
        "criterion 8 (residual caps to 1e7)",
        failures,
        f"max|A-lnx|={worst_r:.4f} maxQ={worst_q:.4f} maxL={worst_l:.4f} "
        f"at {len(shared_scan.cap_points)} checkpoints",
    )


def test_criterion_09_byte_identical_json(monkeypatch, tmp_path):
    blobs = set()
    runs = 0
    for workers in ("1", "4", "16"):
        for segment_size in (1 << 14, 1 << 18, 1 << 20):
            # Forked pool workers inherit the patched window; spawned ones sieve
            # in 2**20 windows, and the bytes must agree all the same.
            monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
            path = tmp_path / f"t_{workers}_{segment_size}.json"
            code = main(
                [
                    "table",
                    "--n-max",
                    "1e7",
                    "--format",
                    "json",
                    "--workers",
                    workers,
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
            blobs.add(path.read_bytes())
            runs += 1
    failures = [] if len(blobs) == 1 else [f"{len(blobs)} distinct outputs from {runs} runs"]
    report(
        "criterion 9 (determinism)",
        failures,
        f"{runs} runs over workers x segment sizes produced 1 unique byte stream",
    )


def test_criterion_10_oracle_accuracy_at_1e4():
    row = {k: v.item() for k, v in accumulate_checkpoints(10**4, [10**4]).items()}
    primes = primes_array(10**4).tolist()
    failures = []

    num, den = 0, 1
    for p in primes:
        num = num * p + den
        den *= p
    s_err = abs(Fraction(row["s"]) - Fraction(num, den))
    if s_err > Fraction(1, 10**11):
        failures.append(f"S err {float(s_err):.2e}")

    num, den = 0, 1
    for p in primes:
        num = num * p * p + den
        den *= p * p
    q_err = abs(Fraction(row["q"]) - Fraction(num, den))
    if q_err > Fraction(1, 10**11):
        failures.append(f"Q err {float(q_err):.2e}")

    with mp.workprec(256):
        a = mp.fsum(mp.log(p) / p for p in primes)
        l = mp.fsum(mp.log(p) / (mp.mpf(p) * p - p) for p in primes)
        if abs(row["a"] - a) > 1e-11:
            failures.append(f"A err {float(abs(row['a'] - a)):.2e}")
        if abs(row["l"] - l) > 1e-11:
            failures.append(f"L err {float(abs(row['l'] - l)):.2e}")

    report(
        "criterion 10 (oracle accuracy at 1e4)",
        failures,
        f"S err={float(s_err):.2e} Q err={float(q_err):.2e} (exact rational); "
        f"A and L within 1e-11 of 256-bit evaluation",
    )
