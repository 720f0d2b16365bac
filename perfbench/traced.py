"""Run the mertens CLI in this process, with spans around each layer's entry points.

    python3 perfbench/traced.py <mertens cli arguments...>

The entry points of `mertens.sieve`, `mertens.sums`, `mertens.bounds`,
`mertens.identities` and `mertens.cli` listed below are replaced, in every
`mertens` module that holds a reference to them, by wrappers that open and
close spans.  A span's self time is its duration minus the time its child
spans cover.  The CLI writes its output to stdout unchanged; afterwards one
line, TRACE_PREFIX followed by JSON, goes to stderr with the per-layer
metrics and the names of entry points that no longer exist.  Metrics that
need a missing entry point are left out rather than reported as zero.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACE_PREFIX = "PERFBENCH_TRACE "

BOUNDS_CHECKS = (
    "binomial_prime_product_check",
    "binomial_prime_product_scan",
    "chebyshev_dyadic_check",
    "euler_lower_bound_check",
    "rosser_schoenfeld_check",
    "residual_caps_check",
    "mertens_residual_scan",
    "estimate_mertens_B",
)
IDENTITY_CHECKS = (
    "abel_identity_eval",
    "log_one_minus_bound",
    "stieltjes_grid",
    "stieltjes_scan",
    "stieltjes_identity_check",
    "factorial_log_identity",
    "euler_product_check",
    "legendre_vp",
)
PRIME_ARRAYS = "mertens.sieve.iter_prime_arrays"
EVENTS = "mertens.sieve.iter_checkpoint_events"
PRIMES_ARRAY = "mertens.sieve.primes_array"
PI_TABLE = "mertens.bounds.pi_table"
ADD_ARRAY = "mertens.sums.CompensatedAccumulator.add_array"
ACCUMULATE = "mertens.sums.accumulate_checkpoints"
MAIN = "mertens.cli.main"


class Tracer:
    """Open spans on a stack; totals per span name, and counters."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, seconds covered by children]
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.resieve_depth = 0
        self.resieve_s = 0.0

    def open(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> float:
        name, start, children = self.stack.pop()
        duration = time.perf_counter() - start
        self.inclusive[name] += duration
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration


def _arguments(signature: inspect.Signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _scanned(result) -> int:
    """Sum of BoundReport.scanned over every report inside a check's result."""
    if isinstance(result, (list, tuple)):
        return sum(_scanned(r) for r in result)
    if isinstance(getattr(result, "scanned", None), int):
        return result.scanned
    fields = getattr(result, "__dataclass_fields__", None)
    if fields:
        return sum(_scanned(getattr(result, f)) for f in fields)
    return 0


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(args, result)
        return result

    return traced


def _resieve(tracer: Tracer, name: str, fn):
    """primes_array / pi_table: an outermost call is one re-sieve of [0, n]."""
    signature = inspect.signature(fn)
    limit_param = next(iter(signature.parameters))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = tracer.resieve_depth == 0
        if outer:
            tracer.counts["resieve_calls"] += 1
            tracer.counts["resieve_integers"] += int(
                _arguments(signature, args, kwargs)[limit_param]
            )
        tracer.resieve_depth += 1
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = tracer.close()
            tracer.resieve_depth -= 1
            if outer:
                tracer.resieve_s += duration

    return traced


def _timed_next(tracer: Tracer, name: str, gen):
    """Yield from gen, timing each next() as a span."""
    try:
        while True:
            tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close()
            yield item
    finally:
        gen.close()


def _prime_arrays(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if tracer.resieve_depth:
            return gen  # its time belongs to the enclosing re-sieve span
        workers = int(_arguments(signature, args, kwargs).get("workers", 1))
        return _counted_segments(tracer, _timed_next(tracer, "sieve.next", gen), workers)

    return traced


def _counted_segments(tracer: Tracer, gen, workers: int):
    odd_segments = 0
    packed_bytes = 0
    for lo, hi, arr in gen:
        tracer.counts["segments"] += 1
        tracer.counts["primes"] += len(arr)
        if lo >= 3:  # odd-only windows; the pool ships each as a packed bitmap
            odd_segments += 1
            packed_bytes += ((hi - (lo | 1) + 1) // 2 + 7) // 8
        yield lo, hi, arr
    if workers > 1 and odd_segments > 1:  # the sieve's condition for using its pool
        tracer.counts["ipc_bytes"] += packed_bytes


def _events(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        for kind, payload in _timed_next(tracer, "sieve.events", fn(*args, **kwargs)):
            tracer.counts["events." + kind] += 1
            yield kind, payload

    return traced


def _wrappers(tracer: Tracer) -> dict:
    """Dotted target -> function that builds its wrapper from the original."""

    def count_terms(args, _result):
        tracer.counts["terms"] += len(args[1])

    def count_scanned(_args, result):
        tracer.counts["points_scanned"] += _scanned(result)

    table = {
        PRIME_ARRAYS: lambda fn: _prime_arrays(tracer, fn),
        EVENTS: lambda fn: _events(tracer, fn),
        PRIMES_ARRAY: lambda fn: _resieve(tracer, "sieve.primes_array", fn),
        PI_TABLE: lambda fn: _resieve(tracer, "bounds.pi_table", fn),
        ADD_ARRAY: lambda fn: _span(tracer, "sums.add_array", fn, count_terms),
        ACCUMULATE: lambda fn: _span(tracer, "sums.accumulate_checkpoints", fn),
        MAIN: lambda fn: _span(tracer, "cli.main", fn),
    }
    for name in BOUNDS_CHECKS:
        table[f"mertens.bounds.{name}"] = (
            lambda fn, name=name: _span(tracer, f"bounds.{name}", fn, count_scanned)
        )
    for name in IDENTITY_CHECKS:
        table[f"mertens.identities.{name}"] = (
            lambda fn, name=name: _span(tracer, f"identities.{name}", fn)
        )
    return table


def install(tracer: Tracer) -> set[str]:
    """Wrap every target that exists; return the dotted names that do not."""
    import mertens.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "mertens" or n.startswith("mertens.")]
    absent = set()
    for target, make in _wrappers(tracer).items():
        module_name, _, attr = target.rpartition(".")
        owner = sys.modules.get(module_name)
        if owner is None:  # Class.method: the owner is a class in the module
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(sys.modules.get(module_name), cls, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            absent.add(target)
            continue
        wrapper = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:  # every `from .x import f` binding too
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return absent


def layer_metrics(tracer: Tracer, absent: set[str], output_bytes: int) -> dict[str, float]:
    """Per-layer metric values, leaving out those whose entry point is gone."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_s, tracer.calls, tracer.counts
    terms = counts["terms"]
    specs = [
        ("sieve.next_s", {PRIME_ARRAYS}, inc["sieve.next"]),
        ("sieve.segments", {PRIME_ARRAYS}, counts["segments"]),
        ("sieve.primes", {PRIME_ARRAYS}, counts["primes"]),
        ("sieve.ipc_bytes", {PRIME_ARRAYS}, counts["ipc_bytes"]),
        ("sieve.events_self_s", {EVENTS}, own["sieve.events"]),
        ("sieve.events.checkpoints", {EVENTS}, counts["events.checkpoint"]),
        ("sieve.events.terms", {EVENTS}, counts["events.terms"]),
        ("sieve.resieve_calls", {PRIMES_ARRAY, PI_TABLE}, counts["resieve_calls"]),
        ("sieve.resieve_integers", {PRIMES_ARRAY, PI_TABLE}, counts["resieve_integers"]),
        ("sieve.resieve_s", {PRIMES_ARRAY, PI_TABLE}, tracer.resieve_s),
        ("sums.add_array_s", {ADD_ARRAY}, inc["sums.add_array"]),
        ("sums.add_array_calls", {ADD_ARRAY}, calls["sums.add_array"]),
        ("sums.terms", {ADD_ARRAY}, terms),
        ("sums.ns_per_term", {ADD_ARRAY}, 1e9 * inc["sums.add_array"] / terms if terms else 0.0),
        ("sums.self_s", {ACCUMULATE}, own["sums.accumulate_checkpoints"]),
        ("sums.passes", {ACCUMULATE}, calls["sums.accumulate_checkpoints"]),
        ("bounds.pi_table_s", {PI_TABLE}, inc["bounds.pi_table"]),
        ("bounds.points_scanned", set(), counts["points_scanned"]),
        ("cli.self_s", {MAIN}, own["cli.main"]),
        ("cli.output_bytes", set(), output_bytes),
        ("trace.spans", set(), sum(calls.values())),
    ]
    specs += [
        (f"bounds.{n}_s", {f"mertens.bounds.{n}"}, inc[f"bounds.{n}"]) for n in BOUNDS_CHECKS
    ]
    specs += [
        (f"identities.{n}_s", {f"mertens.identities.{n}"}, inc[f"identities.{n}"])
        for n in IDENTITY_CHECKS
    ]
    # A metric fed by several entry points survives while any one of them exists.
    return {name: value for name, needs, value in specs if not needs or needs - absent}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, by its name."""
    if metric.endswith("_s"):
        return "s"
    return {
        "sums.ns_per_term": "ns",
        "sieve.ipc_bytes": "bytes.computed",
        "cli.output_bytes": "bytes",
    }.get(metric, "count")


class _CountingStream:
    """Forwards writes to a text stream and counts the bytes written."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    absent = install(tracer)
    import mertens.cli

    out = _CountingStream(sys.stdout)
    sys.stdout = out
    try:
        code = mertens.cli.main(argv)
    finally:
        sys.stdout = out.stream
        sys.stdout.flush()
    record = {"metrics": layer_metrics(tracer, absent, out.bytes), "absent": sorted(absent)}
    sys.stderr.write(TRACE_PREFIX + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
