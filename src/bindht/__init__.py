"""Error exponents for distributed binary hypothesis testing.

Two terminals observe the marginals of a doubly symmetric binary source
and one of them communicates at a limited rate.  The package computes
achievable error-exponent pairs for threshold tests built on linear-code
compression (quantize-and-bin on one side, or syndrome exchange on both),
checks the formulas against exact finite-blocklength probabilities, and
simulates the actual coded schemes at small blocklengths.

All rates and exponents are in bits (logs base 2).
"""

from .binmath import (
    binary_convolution,
    binary_divergence,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy,
)
from .errors import (
    LengthMismatchError,
    ParameterError,
    ResourceLimitError,
    SamplingFailureError,
)
from .exponents import (
    ball_noise_ball_exponent,
    best_channel_exponent,
    expurgated_exponent,
    mixed_weight_exponent,
    random_coding_exponent,
    type_noise_ball_exponent,
    weight_difference_exponent,
)
from .gf2 import (
    BitMatrix,
    CodeDiagnostics,
    LinearCode,
    NestedCode,
    build_nested,
    diagnostics,
    improve_covering,
    sample_random_linear_code,
)
from .oracle import (
    enumerate_mixed_noise_pmf,
    exact_mixed_noise_pmf,
    np_exact_errors,
)
from .regions import (
    ExponentPair,
    HypothesisPair,
    SchemeParams,
    TradeoffCurve,
    curve_value_at,
    one_sided_pair,
    stein_columns,
    stein_sweep,
    symmetric_pair,
    tradeoff_curve,
    unconstrained_pair,
)
from .simkit import (
    ErrorEstimate,
    SimConfig,
    TrialRecords,
    decoded_weights,
    estimate_errors,
    gen_dsbs,
    run_korner_marton,
    run_one_sided,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "CodeDiagnostics",
    "ErrorEstimate",
    "ExponentPair",
    "HypothesisPair",
    "LengthMismatchError",
    "LinearCode",
    "NestedCode",
    "ParameterError",
    "ResourceLimitError",
    "SamplingFailureError",
    "SchemeParams",
    "SimConfig",
    "TradeoffCurve",
    "TrialRecords",
    "ball_noise_ball_exponent",
    "best_channel_exponent",
    "binary_convolution",
    "binary_divergence",
    "binary_entropy",
    "build_nested",
    "curve_value_at",
    "decoded_weights",
    "diagnostics",
    "enumerate_mixed_noise_pmf",
    "estimate_errors",
    "exact_mixed_noise_pmf",
    "expurgated_exponent",
    "gen_dsbs",
    "gv_distance",
    "improve_covering",
    "inverse_binary_entropy",
    "mixed_weight_exponent",
    "np_exact_errors",
    "one_sided_pair",
    "random_coding_exponent",
    "run_korner_marton",
    "run_one_sided",
    "sample_random_linear_code",
    "stein_columns",
    "stein_sweep",
    "symmetric_pair",
    "tradeoff_curve",
    "type_noise_ball_exponent",
    "unconstrained_pair",
    "weight_difference_exponent",
]
