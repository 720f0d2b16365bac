"""Command-line front end: table, verify, estimate-b, extrapolate.

argparse converts every flag value and picks the command.  Each command returns
its exit code and text (table, estimate-b and extrapolate in --format text, csv
or json); main is the one writer for all four, into stdout or the --out file.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource exhaustion (sieve cap exceeded, out of memory, unwritable output).
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import math
import os
import random
import sys
from dataclasses import dataclass

# Nothing here calls BLAS, so numpy's OpenBLAS need not start nproc - 1 idle
# threads; this runs before numpy loads, and a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, bounds, identities
from .sieve import SieveLimitError, _check_request, primes_array
from .sums import accumulate_checkpoints, columns_at

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

DEFAULT_TABLE_N_MAX = 10**6
DEFAULT_VERIFY_N_MAX = 10**5
ABEL_RANDOM_CASES = 1000


def _count(text: str) -> int:
    """Integer flag value, read exactly; scientific notation like 1e9 is accepted.

    More than 4,300 digits (int()'s limit on digit strings) is refused unbuilt.
    """
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if not value.is_finite() or value.adjusted() >= 4300 or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"expects an exact integer below 1e4300, got {text!r}")
    return int(value)


def _checkpoints(text: str) -> list[int]:
    pts = [_count(tok) for tok in text.split(",") if tok]
    if pts and pts[0] < 2:
        raise argparse.ArgumentTypeError("table checkpoints must be >= 2 (ln ln x must exist)")
    return pts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertens",
        description="Prime harmonic sums at scale, with identity and bound verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sieve(sp: argparse.ArgumentParser, n_default: int) -> None:
        sp.add_argument("--n-max", type=_count, default=n_default, metavar="N")
        sp.add_argument("--workers", type=_count, default=1, metavar="W")

    def add_output(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format",
            dest="output_format",
            choices=("text", "csv", "json"),
            default="text",
        )
        sp.add_argument("--out", dest="output_path", default=None, metavar="PATH")

    table = sub.add_parser("table", help="sums and prime counts at checkpoints")
    table.set_defaults(run=_run_table)
    add_sieve(table, DEFAULT_TABLE_N_MAX)
    add_output(table)
    table.add_argument("--checkpoints", type=_checkpoints, default=None, metavar="a,b,c")

    # verify writes only its text report to stdout, so it takes no output flags.
    verify = sub.add_parser("verify", help="run every identity and bound check")
    verify.set_defaults(run=_run_verify)
    add_sieve(verify, DEFAULT_VERIFY_N_MAX)

    est = sub.add_parser("estimate-b", help="S(x) - ln ln x at x = --n-max")
    est.set_defaults(run=_run_estimate_b)
    add_sieve(est, DEFAULT_TABLE_N_MAX)
    add_output(est)

    extra = sub.add_parser("extrapolate", help="ln ln x + B from log10(x) alone")
    extra.set_defaults(run=_run_extrapolate)
    extra.add_argument("--log10-x", type=float, required=True, metavar="V")
    add_output(extra)
    return parser


def _decade_checkpoints(n_max: int) -> list[int]:
    # 10**k <= n_max exactly when n_max has more than k digits.
    return [10**k for k in range(1, len(str(max(n_max, 0))))]


def _render(
    args: argparse.Namespace, text: str, fields: tuple, rows: list[tuple], payload: dict
) -> str:
    """The --format form of one result: the text, csv of fields and rows, or json of payload."""
    if args.output_format == "json":
        return json.dumps(payload, separators=(",", ":")) + "\n"
    if args.output_format == "csv":
        lines = [",".join(fields), *(",".join(map(repr, row)) for row in rows)]
        return "\n".join(lines) + "\n"
    return text


_TABLE_FIELDS = ("x", "pi", "s", "a", "s_minus_lnln", "extrapolated")


def _run_table(args: argparse.Namespace) -> tuple[int, str]:
    pts = args.checkpoints
    if pts is None:
        pts = _decade_checkpoints(args.n_max)
        if not pts:
            raise ValueError(
                f"--n-max {args.n_max} leaves the decades preset empty; pass --checkpoints"
            )
    cols = accumulate_checkpoints(args.n_max, pts, workers=args.workers, sums=("s", "a"))
    rows = []
    for x, pi, s, a in zip(*(cols[k].tolist() for k in ("x", "pi", "s", "a"))):
        lnln = math.log(math.log(float(x)))
        rows.append((x, pi, s, a, s - lnln, lnln + bounds.B))
    cells = [[str(x), str(pi), *(f"{v:.3f}" for v in rest)] for x, pi, *rest in rows]
    widths = [max(map(len, col)) for col in zip(_TABLE_FIELDS, *cells)]
    text = "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + "\n"
        for line in [_TABLE_FIELDS, *cells]
    )
    payload = {
        "meta": {"n_max": args.n_max, "version": __version__},
        "rows": [dict(zip(_TABLE_FIELDS, row)) for row in rows],
    }
    return EXIT_OK, _render(args, text, _TABLE_FIELDS, rows, payload)


def _run_estimate_b(args: argparse.Namespace) -> tuple[int, str]:
    n_max = args.n_max
    cols = accumulate_checkpoints(n_max, [n_max], workers=args.workers, sums=("s",))
    b_hat = bounds.estimate_mertens_B(n_max, cols["s"].item())
    width = bounds.envelope_halfwidth(n_max)
    text = f"b_estimate({n_max}) = {b_hat:.15f} (within {width:.3e} of B)\n"
    fields = ("x", "b_estimate", "halfwidth")
    row = (n_max, b_hat, width)
    return EXIT_OK, _render(args, text, fields, [row], dict(zip(fields, row)))


def _run_extrapolate(args: argparse.Namespace) -> tuple[int, str]:
    value = bounds.extrapolate_sum(args.log10_x)
    fields = ("log10_x", "extrapolated")
    row = (args.log10_x, value)
    return EXIT_OK, _render(args, f"{value:.2f}\n", fields, [row], dict(zip(fields, row)))


# ---------------------------------------------------------------------------
# verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    gating: bool = True  # a non-gating check prints NOTE and never fails the run


def _from_report(report: bounds.BoundReport, gating: bool = True) -> CheckResult:
    detail = (
        f"range=[{report.lo},{report.hi}] scanned={report.scanned} "
        f"violations={report.violations} worst_margin={report.worst_margin:.3e} "
        f"@ x={report.worst_arg}"
    )
    return CheckResult(report.name, report.violations == 0, detail, gating)


def _check_log_bound_grid() -> CheckResult:
    verdicts = [identities.log_one_minus_bound(k / 2048.0) for k in range(1025)]
    worst = min(v.rhs - v.lhs for v in verdicts)
    ok = all(v.passed for v in verdicts)
    return CheckResult("log_one_minus_bound", ok, f"points=1025 worst_margin={worst:.3e}")


def _check_abel_random(cases: int) -> CheckResult:
    rng = random.Random(0xA8E1)
    worst = 0.0
    ok = True
    for _ in range(cases):
        span = rng.randint(1, 100)
        rng.randint(1, 8)  # the unread start label m, drawn so every later draw stays the same
        # -1.0 + 2.0 * random() is what rng.uniform(-1.0, 1.0) computes, draw for draw
        vals = lambda: [-1.0 + 2.0 * rng.random() for _ in range(span + 1)]
        v = identities.abel_identity_eval(vals(), vals())
        worst = max(worst, v.rel_diff)
        ok = ok and v.passed
    return CheckResult(
        "abel_summation_by_parts", ok, f"cases={cases} worst_rel_diff={worst:.3e}"
    )


def _check_stieltjes(cols, primes) -> CheckResult:
    v = identities.stieltjes_scan(cols, primes)
    return CheckResult(
        "stieltjes_partial_integration",
        bool(v.passed.all()),
        f"points={len(cols['x'])} max_x={cols['x'][-1]} worst_rel_diff={v.rel_diff.max():.3e}",
    )


def _check_factorial(n_max: int, primes) -> CheckResult:
    ns = list(range(1, min(2000, n_max) + 1))
    ns += [x for x in (10**4, 10**5) if x <= n_max]
    c = identities.factorial_log_scan(ns, primes)
    return CheckResult(
        "factorial_log_identity",
        bool((c.identity.passed & c.stirling_ok).all()),
        f"cases={len(ns)} worst_rel_diff={c.identity.rel_diff.max():.3e}",
    )


def _check_legendre_reconstruction(limit: int, primes) -> CheckResult:
    small = primes[: primes.searchsorted(limit, side="right")].tolist()
    ok = all(
        math.prod(p ** identities.legendre_vp(n, p) for p in small if p <= n)
        == math.factorial(n)
        for n in range(limit + 1)
    )
    return CheckResult(
        "legendre_factorial_reconstruction", ok, f"n<={limit} exact big-integer"
    )


def _check_euler_products(primes) -> CheckResult:
    ns = (2, 3, 5, 7, 13, 31, 47)
    checks = [identities.euler_product_check(n, 1 << 20, primes) for n in ns]
    gaps = [float(c.product) - c.partial_smooth_sum for c in checks]
    ok = all(c.bracket_ok and gap > 0.0 for c, gap in zip(checks, gaps))
    return CheckResult(
        "euler_product_bracketing", ok, f"n in {ns} cutoff=2^20 worst_gap={max(0.0, *gaps):.3e}"
    )


def _check_envelope(cols, env_pts: list[int]) -> CheckResult:
    s_at = columns_at(cols, env_pts)["s"].tolist()
    errs = [abs(s - bounds.extrapolate_sum(math.log10(x))) for x, s in zip(env_pts, s_at)]
    worst, worst_x = min(
        (bounds.envelope_halfwidth(x) + 1e-9 - err, x) for x, err in zip(env_pts, errs)
    )
    return CheckResult(
        "envelope_extrapolation_consistency",
        worst >= 0.0,
        f"points={len(env_pts)} worst_margin={worst:.3e} @ x={worst_x}",
    )


def _check_b_cauchy(n_max: int, cols) -> list[CheckResult]:
    """B estimates at consecutive decades agree within the envelope; [] below 1e4."""
    ks = [k for k in range(3, 8) if 10 ** (k + 1) <= n_max]
    if not ks:
        return []
    xs = [10**k for k in ks + [ks[-1] + 1]]
    s_at = columns_at(cols, xs)["s"].tolist()
    b_at = [bounds.estimate_mertens_B(x, s) for x, s in zip(xs, s_at)]
    worst, worst_k = min(
        (bounds.envelope_halfwidth(10**k) - abs(b_lo - b_hi), k)
        for k, b_lo, b_hi in zip(ks, b_at, b_at[1:])
    )
    return [
        CheckResult(
            "mertens_b_cauchy",
            worst >= 0.0,
            f"k={ks[0]}..{ks[-1]} worst_margin={worst:.3e} @ k={worst_k}",
        )
    ]


def _check_rs_envelope(cols) -> list[CheckResult]:
    rs_sym, rs_asym = bounds.rosser_schoenfeld_check(cols)
    asym = _from_report(rs_asym, gating=False)
    asym.detail += " (tightened upper variant is false near n=286; informational)"
    return [_from_report(rs_sym), asym]


def _note_b_estimate(n_max: int, cols) -> CheckResult:
    b_hat = bounds.estimate_mertens_B(n_max, columns_at(cols, [n_max])["s"].item())
    return CheckResult(
        "mertens_b_estimate",
        True,
        f"b_estimate({n_max})={b_hat:.12f} halfwidth={bounds.envelope_halfwidth(n_max):.3e}",
        gating=False,
    )


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    n_max = args.n_max
    if n_max < bounds.RS_MIN_N:
        raise ValueError(
            f"verify needs --n-max >= {bounds.RS_MIN_N} (Rosser-Schoenfeld scan), got {n_max}"
        )
    # One prime array and one accumulate pass serve every check; the checks
    # only read them. The binomial scan to 2000 reads the primes <= 4001.
    primes = primes_array(max(min(10**6, n_max), 4001))
    below = lambda x: primes[: primes.searchsorted(x, side="right")]
    stieltjes_pts = identities.stieltjes_grid(min(10**5, n_max), below(min(10**4, n_max)))
    rs_ints = np.arange(bounds.RS_MIN_N, min(10**5, n_max) + 1)
    rs_logs = bounds.log_spaced_integers(bounds.RS_MIN_N, n_max) if n_max > 10**5 else []
    rs_pts = bounds.sorted_union(rs_ints, rs_logs)
    euler_pts = below(n_max)
    cap_pts = bounds.log_spaced_integers(2, min(10**7, n_max))
    cols = accumulate_checkpoints(
        n_max,
        bounds.sorted_union(
            [n_max], rs_pts, euler_pts, cap_pts, stieltjes_pts, _decade_checkpoints(n_max)
        ),
        workers=args.workers,
    )
    results = [
        _check_log_bound_grid(),
        _check_abel_random(ABEL_RANDOM_CASES),
        _check_stieltjes(columns_at(cols, stieltjes_pts), primes),
        _check_factorial(n_max, primes),
        _check_legendre_reconstruction(200, primes),
        _check_euler_products(primes),
        _from_report(bounds.binomial_prime_product_scan(1, 2000, primes)),
        _from_report(bounds.chebyshev_dyadic_check(16, min(10**6, n_max), primes)),
        _from_report(bounds.euler_lower_bound_check(columns_at(cols, euler_pts))),
        *_check_rs_envelope(columns_at(cols, rs_pts)),
        *map(_from_report, bounds.residual_caps_check(columns_at(cols, cap_pts))),
        _check_envelope(cols, [x for x in cap_pts if x >= bounds.RS_MIN_N]),
        *_check_b_cauchy(n_max, cols),
        _note_b_estimate(n_max, cols),
    ]
    failures = sum(1 for c in results if c.gating and not c.passed)
    code = EXIT_VERIFY_FAILED if failures else EXIT_OK
    status = lambda c: ("PASS" if c.passed else "FAIL") if c.gating else "NOTE"
    lines = [f"{status(c):<4} {c.name:<38} {c.detail}" for c in results]
    lines.append(f"verify: n_max={n_max} checks={len(results)} failures={failures} -> exit {code}")
    return code, "\n".join(lines) + "\n"


def _open_out(args: argparse.Namespace) -> contextlib.AbstractContextManager:
    """The --out file, opened before any work so an unwritable path fails first; else stdout."""
    path = getattr(args, "output_path", None)
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    text = None
    try:
        args = build_parser().parse_args(argv)
        with _open_out(args) as out:
            if args.command != "extrapolate":  # refuse what the sieve would, before any work
                _check_request(args.n_max, args.workers)
            code, text = args.run(args)
            out.write(text)
            out.flush()
        return code
    except OSError as exc:
        if text is None:  # the command had not run: the error is not the output's
            raise
        if out is sys.stdout:  # it keeps the unwritten bytes: send the flush at exit to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_RESOURCE
    except SieveLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # argparse --help or usage errors
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
