"""Prime-statistics engine for S(x) = sum of 1/p and its companion sums.

Streams primes through a segmented sieve, accumulates the prime harmonic
sums exactly (each checkpoint value correctly rounded), and verifies the
identities, inequality envelopes and constants that govern
S(x) = ln ln x + O(1).

The top level holds the pipeline: primes_array, accumulate_checkpoints,
estimate_mertens_B and extrapolate_sum.  The checks, their report types and
the constants B and RS_MIN_N live in mertens.bounds and mertens.identities.
Each top-level name is imported on first use, so `import mertens` loads no
numpy: mertens.cli must run before numpy loads to set its thread count.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {  # top-level name -> the submodule that defines it
    "SieveLimitError": "sieve",
    "accumulate_checkpoints": "sums",
    "estimate_mertens_B": "bounds",
    "extrapolate_sum": "bounds",
    "primes_array": "sieve",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
