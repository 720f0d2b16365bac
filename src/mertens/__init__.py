"""Prime-statistics engine for S(x) = sum of 1/p and its companion sums.

Streams primes through a segmented sieve, accumulates the prime harmonic
sums exactly (each checkpoint value correctly rounded), and verifies the
identities, inequality envelopes and constants that govern
S(x) = ln ln x + O(1).

Each name has one home: mertens.sieve (primes_array, SieveLimitError),
mertens.sums (accumulate_checkpoints), mertens.bounds (estimate_mertens_B,
extrapolate_sum and the bound checks) and mertens.identities.  This module
imports none of them, so `import mertens` loads no numpy: mertens.cli sets
numpy's thread count before it loads numpy.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
