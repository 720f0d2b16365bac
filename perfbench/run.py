"""Outside-in benchmark of the mertens pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload table-1e8 --seed 1 --seconds 50 --trace 0

Runs the `mertens` CLI from this checkout's `src/` as a child process,
again and again for --seconds, checks every output against the oracles in
perfbench/oracle.py, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 untraced and traced runs alternate
(perfbench/traced.py) and the metrics are the per-layer ones.  The lines
before it give the machine facts and every metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import traced

STARTED = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(traced.__file__).resolve()

SETUP_REPEATS = 7  # timed interpreter starts; the median is setup_s
SEEDED_POINTS = 300  # log-uniform checkpoints added to the decades
# Every child is killed once this much time has passed since the benchmark
# started, so that a hung run still ends the benchmark within 180 s.
RUN_DEADLINE_S = 170
# |s - oracle| and |a - oracle| in units of the oracle's ulp.  Kahan-Neumaier
# and exact accumulation both land within 1 ulp of the correctly rounded sum;
# numpy's log may differ from the C library's by 1 ulp on a few terms of a.
SUM_TOL_ULPS = 4
TABLE_HEADER = "x,pi,s,a,s_minus_lnln,extrapolated"
VERIFY_CHECKS = 17
VERIFY_SUMMARY = "verify: n_max={n} checks={checks} failures=0 -> exit 0"
# The tightened envelope is false near n = 286 (README, known-red); the
# verify NOTE line must keep reporting exactly this.
KNOWN_RED = ("rs_envelope_asymmetric_upper", "violations=467", "worst_margin=-7.415e-03 @ x=286")


END_TO_END_UNITS = {
    "wall_s": "s",
    "primes_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _drain(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF; kill the child after `timeout` seconds."""
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for stream in chunks:
        stream.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(args: list[str]) -> Sample:
    """One child process, timed from spawn to reaping.

    cpu_s and peak_rss_mb come from this child's own rusage (wait4), which
    covers the pool workers it reaped; the peak is that of its largest
    process.  RUSAGE_CHILDREN would instead keep a maximum over every child
    this benchmark ever reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out, err = _drain(proc, STARTED + RUN_DEADLINE_S - time.monotonic())
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stdout=out,
        stderr=err,
    )


def measure_setup(repeats: int) -> float | None:
    """Median time to start the interpreter and import mertens.cli.

    A first, untimed start checks that mertens comes from this checkout and
    fills the bytecode cache.
    """
    probe = ["-c", "import mertens.cli, sys; sys.stdout.write(mertens.cli.__file__)"]
    first = run_child(probe)
    where = first.stdout.decode(errors="replace")
    if first.returncode != 0 or not Path(where).resolve().is_relative_to(SRC):
        raise SystemExit(f"mertens.cli did not import from {SRC}: {first.stderr.decode()!r}")
    if not repeats:
        return None
    return statistics.median(run_child(probe).wall_s for _ in range(repeats))


# ---------------------------------------------------------------------------
# workloads and their output checks


def table_points(n_max: int, seed: int) -> list[int]:
    """Decades up to n_max plus SEEDED_POINTS log-uniform integers in [2, n_max]."""
    rng = random.Random(seed)
    hi = math.log10(n_max)
    pts = {10**k for k in range(1, int(hi) + 1)}
    while len(pts) < SEEDED_POINTS + int(hi):
        pts.add(min(n_max, max(2, round(10 ** rng.uniform(math.log10(2), hi)))))
    return sorted(pts)


class TableCheck:
    """Expected table rows from the oracles, built once, untimed."""

    def __init__(self, n_max_flag: str, seed: int) -> None:
        n_max = int(float(n_max_flag))
        self.points = table_points(n_max, seed)
        primes = oracle.dense_primes(n_max)
        self.pi = oracle.pi_at(primes, self.points)
        self.s = oracle.exact_prefix_sums(primes, oracle.s_terms, self.pi)
        self.a = oracle.exact_prefix_sums(primes, oracle.a_terms, self.pi)
        self.pi_n_max = len(primes)
        self.reference: bytes | None = None  # set by the first run that passes
        self.args = ["table", "--n-max", n_max_flag, "--format", "csv"]
        self.args += ["--checkpoints", ",".join(map(str, self.points))]
        # The determinism contract: the bytes must not depend on the worker
        # count.  One untimed run with the sieve pool sets the reference
        # that every timed single-process run must then print.
        self.setup_problems = self.problems(
            run_child(["-m", "mertens.cli", *self.args, "--workers", "2"])
        )

    def problems(self, sample: Sample) -> list[str]:
        if sample.returncode != 0:
            return [f"exit {sample.returncode}: {sample.stderr[-300:]!r}"]
        if self.reference is not None:
            if sample.stdout != self.reference:
                return ["csv bytes differ from the reference run"]
            return []
        lines = sample.stdout.decode().splitlines()
        if not lines or lines[0] != TABLE_HEADER:
            return [f"header {lines[:1]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(self.points):
            return [f"{len(rows)} rows for {len(self.points)} checkpoints"]
        out = []
        for row, x, pi, s, a in zip(rows, self.points, self.pi, self.s, self.a):
            if int(row[0]) != x or int(row[1]) != pi:
                out.append(f"x={row[0]} pi={row[1]}, oracle x={x} pi={pi}")
            if x in oracle.KNOWN_PI_DECADES and int(row[1]) != oracle.KNOWN_PI_DECADES[x]:
                out.append(f"pi({x})={row[1]}, known {oracle.KNOWN_PI_DECADES[x]}")
            for name, got, want in (("s", float(row[2]), s), ("a", float(row[3]), a)):
                if abs(got - want) > SUM_TOL_ULPS * math.ulp(want):
                    out.append(f"{name}({x})={got!r}, oracle {want!r}")
        if not out:
            self.reference = sample.stdout
        return out


class VerifyCheck:
    def __init__(self, n_max_flag: str, seed: int) -> None:
        del seed  # verify takes no input beyond n_max
        n_max = int(float(n_max_flag))
        self.args = ["verify", "--n-max", n_max_flag]
        self.summary = VERIFY_SUMMARY.format(n=n_max, checks=VERIFY_CHECKS)
        self.pi_n_max = len(oracle.dense_primes(n_max))
        self.setup_problems: list[str] = []

    def problems(self, sample: Sample) -> list[str]:
        if sample.returncode != 0:
            return [f"exit {sample.returncode}: {sample.stderr[-300:]!r}"]
        lines = sample.stdout.decode().splitlines()
        out = []
        if not lines or lines[-1] != self.summary:
            out.append(f"summary {lines[-1:]!r}")
        checks = lines[:-1]
        if len(checks) != VERIFY_CHECKS:
            out.append(f"{len(checks)} check lines")
        out += [f"not PASS: {c}" for c in checks if c.split(" ", 1)[0] not in ("PASS", "NOTE")]
        if not any(c.startswith("NOTE") and all(k in c for k in KNOWN_RED) for c in checks):
            out.append("known-red NOTE line changed")
        return out


WORKLOADS = {  # name -> (output check, --n-max); README.md says why each
    "table-1e8": (TableCheck, "1e8"),
    "verify-1e7": (VerifyCheck, "1e7"),
}


# ---------------------------------------------------------------------------
# machine facts and reporting


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    models = re.findall(r"^model name\s*:\s*(.+)$", _read(Path("/proc/cpuinfo")), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}{kind[0].lower()}"] = size
    simd = None
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):  # 2.x, 1.x
        try:
            features = importlib.import_module(name).__cpu_features__
        except (ImportError, AttributeError):
            continue
        simd = sorted(k for k, on in features.items() if on)
        break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": simd,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "MERTENS_NO_NUMBA": os.environ.get("MERTENS_NO_NUMBA"),
    }


def quartiles(values: list[float]) -> tuple[float, ...]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(0 if trace else SETUP_REPEATS)
    check_class, n_max_flag = WORKLOADS[workload]
    check = check_class(n_max_flag, seed)
    cli = ["-m", "mertens.cli", *check.args]
    attempted = failed = traced_attempts = 0
    if check.setup_problems:  # the reference run failed; it counts as a failed run
        attempted = failed = 1
        print(f"FAILED reference run: {'; '.join(check.setup_problems[:3])}", file=sys.stderr)
    untraced: list[Sample] = []
    traced_runs: list[tuple[Sample, dict]] = []
    every_wall: list[float] = []
    start = time.perf_counter()
    # Start another run only if a typical one still ends within --seconds.
    while (
        not untraced
        or (trace and not traced_attempts)
        or time.perf_counter() - start + statistics.median(every_wall) <= seconds
    ):
        with_trace = trace and traced_attempts < len(untraced)
        traced_attempts += with_trace
        sample = run_child([str(TRACED), *check.args] if with_trace else cli)
        attempted += 1
        every_wall.append(sample.wall_s)
        problems = check.problems(sample)
        if with_trace:
            lines = sample.stderr.decode(errors="replace").splitlines()
            records = [line for line in lines if line.startswith(traced.TRACE_PREFIX)]
            if records:
                traced_runs.append((sample, json.loads(records[-1][len(traced.TRACE_PREFIX):])))
            else:
                problems.append("traced run printed no trace record")
        else:
            untraced.append(sample)
        if problems:
            failed += 1
            print(f"FAILED run {attempted}: {'; '.join(problems[:3])}", file=sys.stderr)

    wall = quartiles([s.wall_s for s in untraced])
    print(f"workload={workload} seed={seed} untraced_runs={len(untraced)} "
          f"wall_s q1={wall[0]:.4f} median={wall[1]:.4f} q3={wall[2]:.4f} "
          f"fail_rate={failed / attempted:.4f} ({failed}/{attempted})")
    if trace:
        metrics = per_layer(traced_runs, wall[1])
    else:
        metrics = {
            "wall_s": wall[1],
            "primes_per_s": check.pi_n_max / wall[1],
            "cpu_s": statistics.median(s.cpu_s for s in untraced),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in untraced),
            "setup_s": setup_s,
        }
    unit = traced.unit if trace else END_TO_END_UNITS.get
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def per_layer(traced_runs: list[tuple[Sample, dict]], untraced_wall: float) -> dict:
    """Medians of the traced runs' times; counts repeat exactly, so the last."""
    if not traced_runs:
        return {}
    last = traced_runs[-1][1]
    if last["absent"]:
        print(f"absent entry points (their metrics are left out): {', '.join(last['absent'])}")
    layer = {}
    for name, value in last["metrics"].items():
        if traced.unit(name) in ("s", "ns"):
            value = statistics.median(
                rec["metrics"][name] for _, rec in traced_runs if name in rec["metrics"]
            )
        layer[name] = value
    layer["trace.wall_s"] = statistics.median(s.wall_s for s, _ in traced_runs)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mertens" / "cli.py").is_file():
        print(f"error: no mertens sources under {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts()))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
