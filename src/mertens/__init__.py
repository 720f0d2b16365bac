"""Prime-statistics engine for S(x) = sum of 1/p and its companion sums.

Streams primes through a segmented sieve, accumulates the prime harmonic
sums exactly (each checkpoint value correctly rounded), and verifies the
identities, inequality envelopes and constants that govern
S(x) = ln ln x + O(1).

The top level holds the pipeline: primes_array, accumulate_checkpoints,
estimate_mertens_B and extrapolate_sum.  The checks, their report types and
the constants B and RS_MIN_N live in mertens.bounds and mertens.identities.
"""

__version__ = "0.1.0"

from .bounds import estimate_mertens_B, extrapolate_sum
from .sieve import SieveLimitError, primes_array
from .sums import accumulate_checkpoints

__all__ = [
    "__version__",
    "SieveLimitError",
    "accumulate_checkpoints",
    "estimate_mertens_B",
    "extrapolate_sum",
    "primes_array",
]
