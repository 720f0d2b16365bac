"""Command-line front end: table, verify, estimate-b, extrapolate.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource exhaustion (sieve cap exceeded, or out of memory).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass

from . import __version__, bounds, identities
from .bounds import CONSTANTS
from .sieve import DEFAULT_SEGMENT_SIZE, SieveLimitError, _check_request, primes_array
from .sums import accumulate_checkpoints, columns_at

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

DEFAULT_TABLE_N_MAX = 10**6
DEFAULT_VERIFY_N_MAX = 10**5
ABEL_RANDOM_CASES = 1000


class ConfigError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _parse_count(text: str, name: str) -> int:
    """Integer flag value; scientific notation like 1e9 is accepted."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--{name} expects an integer, got {text!r}") from None
    if not value.is_integer() or abs(value) > 2**53:
        raise ConfigError(f"--{name} expects an exact integer, got {text!r}")
    return int(value)


@dataclass
class RunConfig:
    command: str
    n_max: int = DEFAULT_TABLE_N_MAX
    checkpoints: list[int] | None = None  # None = decades preset
    segment_size: int = DEFAULT_SEGMENT_SIZE
    workers: int = 1
    output_format: str = "text"
    output_path: str | None = None
    log10_x: float | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertens",
        description="Prime harmonic sums at scale, with identity and bound verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sieve(sp: argparse.ArgumentParser, n_default: int) -> None:
        sp.add_argument("--n-max", default=str(n_default), metavar="N")
        sp.add_argument("--segment-size", default=str(DEFAULT_SEGMENT_SIZE), metavar="K")
        sp.add_argument("--workers", default="1", metavar="W")

    def add_output(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format",
            dest="output_format",
            choices=("text", "csv", "json"),
            default="text",
        )
        sp.add_argument("--out", dest="output_path", default=None, metavar="PATH")

    table = sub.add_parser("table", help="sums and prime counts at checkpoints")
    add_sieve(table, DEFAULT_TABLE_N_MAX)
    add_output(table)
    table.add_argument("--checkpoints", default=None, metavar="a,b,c")

    # verify writes only its text report to stdout, so it takes no output flags.
    verify = sub.add_parser("verify", help="run every identity and bound check")
    add_sieve(verify, DEFAULT_VERIFY_N_MAX)

    est = sub.add_parser("estimate-b", help="S(x) - ln ln x at x = --n-max")
    add_sieve(est, DEFAULT_TABLE_N_MAX)
    add_output(est)

    extra = sub.add_parser("extrapolate", help="ln ln x + B from log10(x) alone")
    extra.add_argument("--log10-x", required=True, metavar="V")
    add_output(extra)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if "output_format" in args:
        cfg.output_format = args.output_format
        cfg.output_path = args.output_path
    if args.command == "extrapolate":
        try:
            cfg.log10_x = float(args.log10_x)
        except ValueError:
            raise ConfigError(f"--log10-x expects a number, got {args.log10_x!r}") from None
        return cfg
    cfg.n_max = _parse_count(args.n_max, "n-max")
    cfg.segment_size = _parse_count(args.segment_size, "segment-size")
    cfg.workers = _parse_count(args.workers, "workers")
    if args.command == "table" and args.checkpoints is not None:
        pts = [_parse_count(tok, "checkpoints") for tok in args.checkpoints.split(",") if tok]
        if pts and pts[0] < 2:
            raise ConfigError("table checkpoints must be >= 2 (ln ln x must exist)")
        cfg.checkpoints = pts
    return cfg


def _decade_checkpoints(n_max: int) -> list[int]:
    pts = []
    x = 10
    while x <= n_max:
        pts.append(x)
        x *= 10
    return pts


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_cells(cols) -> list[dict]:
    cells = []
    for x, pi, s, a in zip(*(cols[k].tolist() for k in ("x", "pi", "s", "a"))):
        lnln = math.log(math.log(float(x)))
        cells.append(
            {
                "x": x,
                "pi": pi,
                "s": s,
                "a": a,
                "s_minus_lnln": s - lnln,
                "extrapolated": lnln + CONSTANTS.B,
            }
        )
    return cells


_TABLE_FIELDS = ("x", "pi", "s", "a", "s_minus_lnln", "extrapolated")


def _render_table(cells: list[dict], output_format: str, n_max: int) -> str:
    if output_format == "json":
        payload = {
            "meta": {"n_max": n_max, "version": __version__},
            "rows": cells,
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
    if output_format == "csv":
        lines = [",".join(_TABLE_FIELDS)]
        for c in cells:
            lines.append(
                ",".join(
                    str(c[k]) if k in ("x", "pi") else repr(c[k]) for k in _TABLE_FIELDS
                )
            )
        return "\n".join(lines) + "\n"
    body = [
        [
            str(c["x"]),
            str(c["pi"]),
            f"{c['s']:.3f}",
            f"{c['a']:.3f}",
            f"{c['s_minus_lnln']:.3f}",
            f"{c['extrapolated']:.3f}",
        ]
        for c in cells
    ]
    widths = [
        max(len(_TABLE_FIELDS[i]), *(len(row[i]) for row in body))
        for i in range(len(_TABLE_FIELDS))
    ]
    header = "  ".join(name.rjust(widths[i]) for i, name in enumerate(_TABLE_FIELDS))
    lines = [header]
    for row in body:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _run_table(cfg: RunConfig) -> int:
    pts = cfg.checkpoints
    if pts is None:
        pts = _decade_checkpoints(cfg.n_max)
        if not pts:
            raise ConfigError(
                f"--n-max {cfg.n_max} leaves the decades preset empty; pass --checkpoints"
            )
    cols = accumulate_checkpoints(cfg.n_max, pts, cfg.segment_size, cfg.workers)
    _emit(cfg, _render_table(_table_cells(cols), cfg.output_format, cfg.n_max))
    return EXIT_OK


def _run_estimate_b(cfg: RunConfig) -> int:
    cols = accumulate_checkpoints(cfg.n_max, [cfg.n_max], cfg.segment_size, cfg.workers)
    b_hat = bounds.estimate_mertens_B(cfg.n_max, cols["s"].item())
    width = bounds.envelope_halfwidth(cfg.n_max)
    if cfg.output_format == "json":
        text = (
            json.dumps(
                {"x": cfg.n_max, "b_estimate": b_hat, "halfwidth": width},
                separators=(",", ":"),
            )
            + "\n"
        )
    elif cfg.output_format == "csv":
        text = f"x,b_estimate,halfwidth\n{cfg.n_max},{b_hat!r},{width!r}\n"
    else:
        text = f"b_estimate({cfg.n_max}) = {b_hat:.15f} (within {width:.3e} of B)\n"
    _emit(cfg, text)
    return EXIT_OK


def _run_extrapolate(cfg: RunConfig) -> int:
    value = bounds.extrapolate_sum(cfg.log10_x)
    if cfg.output_format == "json":
        text = (
            json.dumps(
                {"log10_x": cfg.log10_x, "extrapolated": value}, separators=(",", ":")
            )
            + "\n"
        )
    elif cfg.output_format == "csv":
        text = f"log10_x,extrapolated\n{cfg.log10_x!r},{value!r}\n"
    else:
        text = f"{value:.2f}\n"
    _emit(cfg, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    gating: bool = True

    @property
    def status(self) -> str:
        if not self.gating:
            return "NOTE"
        return "PASS" if self.passed else "FAIL"


def _from_report(report: bounds.BoundReport, gating: bool = True) -> CheckResult:
    detail = (
        f"range=[{report.lo},{report.hi}] scanned={report.scanned} "
        f"violations={report.violations} worst_margin={report.worst_margin:.3e} "
        f"@ x={report.worst_arg}"
    )
    return CheckResult(report.name, report.violations == 0, detail, gating)


def _check_log_bound_grid() -> CheckResult:
    worst = math.inf
    ok = True
    for k in range(0, 1025):
        v = identities.log_one_minus_bound(k / 2048.0)
        worst = min(worst, v.rhs - v.lhs)
        ok = ok and v.passed
    return CheckResult("log_one_minus_bound", ok, f"points=1025 worst_margin={worst:.3e}")


def _check_abel_random(cases: int) -> CheckResult:
    rng = random.Random(0xA8E1)
    worst = 0.0
    ok = True
    for _ in range(cases):
        span = rng.randint(1, 100)
        m = rng.randint(1, 8)
        vals = lambda: [rng.uniform(-1.0, 1.0) for _ in range(span + 1)]
        v = identities.abel_identity_eval(
            identities.SequencePair(vals(), vals(), m, m + span - 1)
        )
        worst = max(worst, v.rel_diff)
        ok = ok and v.passed
    return CheckResult(
        "abel_summation_by_parts", ok, f"cases={cases} worst_rel_diff={worst:.3e}"
    )


def _check_stieltjes(cols, primes) -> CheckResult:
    results = identities.stieltjes_scan(cols, primes)
    worst = max(v.rel_diff for _, v in results)
    ok = all(v.passed for _, v in results)
    return CheckResult(
        "stieltjes_partial_integration",
        ok,
        f"points={len(results)} max_x={results[-1][0]} worst_rel_diff={worst:.3e}",
    )


def _check_factorial(n_max: int, primes) -> CheckResult:
    ns = list(range(1, min(2000, n_max) + 1))
    ns += [x for x in (10**4, 10**5) if x <= n_max]
    worst = 0.0
    ok = True
    for n in ns:
        check = identities.factorial_log_identity(n, primes)
        worst = max(worst, check.identity.rel_diff)
        ok = ok and check.identity.passed and check.stirling_ok
    return CheckResult(
        "factorial_log_identity", ok, f"cases={len(ns)} worst_rel_diff={worst:.3e}"
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


def _check_euler_products() -> CheckResult:
    ok = True
    worst_gap = 0.0
    ns = (2, 3, 5, 7, 13, 31, 47)
    for n in ns:
        chk = identities.euler_product_check(n, 1 << 20)
        gap = float(chk.product) - chk.partial_smooth_sum
        worst_gap = max(worst_gap, gap)
        ok = ok and chk.bracket_ok and gap > 0.0
    return CheckResult(
        "euler_product_bracketing",
        ok,
        f"n in {ns} cutoff=2^20 worst_gap={worst_gap:.3e}",
    )


def _check_checkpoint_bounds(
    n_max: int, cols: dict, rs_pts: list[int], euler_pts: list[int], cap_pts: list[int]
) -> list[CheckResult]:
    out = [_from_report(bounds.euler_lower_bound_check(columns_at(cols, euler_pts)))]

    rs = bounds.rosser_schoenfeld_check(columns_at(cols, rs_pts))
    out.append(_from_report(rs.symmetric))
    asym = _from_report(rs.asymmetric, gating=False)
    asym.detail += " (tightened upper variant is false near n=286; informational)"
    out.append(asym)

    out.extend(
        _from_report(rep) for rep in bounds.residual_caps_check(columns_at(cols, cap_pts))
    )

    env_pts = [x for x in cap_pts if x >= CONSTANTS.rs_min_n]
    worst = math.inf
    worst_x = env_pts[0]
    for x, s in zip(env_pts, columns_at(cols, env_pts)["s"].tolist()):
        err = abs(s - bounds.extrapolate_sum(math.log10(x)))
        margin = bounds.envelope_halfwidth(x) + 1e-9 - err
        if margin < worst:
            worst, worst_x = margin, x
    out.append(
        CheckResult(
            "envelope_extrapolation_consistency",
            worst >= 0.0,
            f"points={len(env_pts)} worst_margin={worst:.3e} @ x={worst_x}",
        )
    )

    ks = [k for k in range(3, 8) if 10 ** (k + 1) <= n_max]
    if ks:
        worst = math.inf
        worst_k = ks[0]
        decade_s = columns_at(cols, [10**k for k in ks + [ks[-1] + 1]])["s"].tolist()
        for k, s_lo, s_hi in zip(ks, decade_s, decade_s[1:]):
            b_lo = bounds.estimate_mertens_B(10**k, s_lo)
            b_hi = bounds.estimate_mertens_B(10 ** (k + 1), s_hi)
            allowance = 1.0 / (2.0 * (k * math.log(10.0)) ** 2)
            margin = allowance - abs(b_lo - b_hi)
            if margin < worst:
                worst, worst_k = margin, k
        out.append(
            CheckResult(
                "mertens_b_cauchy",
                worst >= 0.0,
                f"k={ks[0]}..{ks[-1]} worst_margin={worst:.3e} @ k={worst_k}",
            )
        )

    b_hat = bounds.estimate_mertens_B(n_max, columns_at(cols, [n_max])["s"].item())
    out.append(
        CheckResult(
            "mertens_b_estimate",
            True,
            f"b_estimate({n_max})={b_hat:.12f} halfwidth={bounds.envelope_halfwidth(n_max):.3e}",
            gating=False,
        )
    )
    return out


def _run_verify(cfg: RunConfig) -> int:
    n_max = cfg.n_max
    if n_max < CONSTANTS.rs_min_n:
        raise ConfigError(
            f"verify needs --n-max >= {CONSTANTS.rs_min_n} "
            f"(Rosser-Schoenfeld scan), got {n_max}"
        )
    # Some checks run before the accumulate pass, so refuse what the pass
    # would refuse (sieve cap, worker and segment ceilings) before any runs.
    _check_request(n_max, cfg.segment_size, cfg.workers)
    # One prime array and one accumulate pass serve every check; the checks
    # only read them.
    primes = primes_array(min(10**6, n_max))
    results = [
        _check_log_bound_grid(),
        _check_abel_random(ABEL_RANDOM_CASES),
        _check_factorial(n_max, primes),
        _check_legendre_reconstruction(200, primes),
        _check_euler_products(),
        _from_report(bounds.binomial_prime_product_scan(1, 2000)),
        _from_report(bounds.chebyshev_dyadic_check(16, min(10**6, n_max))),
    ]

    stieltjes_pts = identities.stieltjes_grid(min(10**5, n_max), prime_limit=min(10**4, n_max))
    rs_ints = list(range(CONSTANTS.rs_min_n, min(10**5, n_max) + 1))
    rs_logs = (
        bounds.log_spaced_integers(CONSTANTS.rs_min_n, n_max) if n_max > 10**5 else []
    )
    rs_pts = sorted(set(rs_ints) | set(rs_logs))
    euler_pts = primes.tolist()
    cap_pts = bounds.log_spaced_integers(2, min(10**7, n_max))
    union = sorted(
        set(rs_pts)
        | set(euler_pts)
        | set(cap_pts)
        | set(stieltjes_pts)
        | set(_decade_checkpoints(n_max))
        | {n_max}
    )
    cols = accumulate_checkpoints(n_max, union, cfg.segment_size, cfg.workers)
    # Reported third, after the abel check.
    results.insert(2, _check_stieltjes(columns_at(cols, stieltjes_pts), primes))
    results.extend(_check_checkpoint_bounds(n_max, cols, rs_pts, euler_pts, cap_pts))
    failures = sum(1 for c in results if c.gating and not c.passed)
    for c in results:
        print(f"{c.status:<4} {c.name:<38} {c.detail}")
    print(
        f"verify: n_max={cfg.n_max} checks={len(results)} "
        f"failures={failures} -> exit {EXIT_VERIFY_FAILED if failures else EXIT_OK}"
    )
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "table":
            return _run_table(cfg)
        if cfg.command == "verify":
            return _run_verify(cfg)
        if cfg.command == "estimate-b":
            return _run_estimate_b(cfg)
        return _run_extrapolate(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
