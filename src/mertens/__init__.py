"""Prime-statistics engine for S(x) = sum of 1/p and its companion sums.

Streams primes through a segmented sieve, accumulates the prime harmonic
sums exactly (each checkpoint value correctly rounded), and verifies the
identities, inequality envelopes and constants that govern
S(x) = ln ln x + O(1).
"""

__version__ = "0.1.0"

from .bounds import (
    CONSTANTS,
    BoundReport,
    MertensConstants,
    RosserSchoenfeldCheck,
    binomial_prime_product_check,
    chebyshev_dyadic_check,
    estimate_mertens_B,
    euler_lower_bound_check,
    extrapolate_sum,
    mertens_residual_scan,
    rosser_schoenfeld_check,
)
from .identities import (
    EulerProductCheck,
    FactorialLogCheck,
    IdentityVerdict,
    SequencePair,
    abel_identity_eval,
    euler_product_check,
    factorial_log_identity,
    legendre_vp,
    log_one_minus_bound,
    stieltjes_identity_check,
)
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    SieveLimitError,
    primes_array,
)
from .sums import CompensatedAccumulator, accumulate_checkpoints

__all__ = [
    "__version__",
    "CONSTANTS",
    "BoundReport",
    "CompensatedAccumulator",
    "DEFAULT_SEGMENT_SIZE",
    "EulerProductCheck",
    "FactorialLogCheck",
    "IdentityVerdict",
    "MertensConstants",
    "RosserSchoenfeldCheck",
    "SequencePair",
    "SieveLimitError",
    "abel_identity_eval",
    "accumulate_checkpoints",
    "binomial_prime_product_check",
    "chebyshev_dyadic_check",
    "estimate_mertens_B",
    "euler_lower_bound_check",
    "euler_product_check",
    "extrapolate_sum",
    "factorial_log_identity",
    "legendre_vp",
    "log_one_minus_bound",
    "mertens_residual_scan",
    "primes_array",
    "rosser_schoenfeld_check",
    "stieltjes_identity_check",
]
