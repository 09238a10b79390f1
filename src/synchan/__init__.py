"""Capacity lower bounds for binary channels with synchronization errors.  The simulators
(``synchan.channels``) and oracles (``synchan.oracle``) load only when imported by name."""

from .bounds import (
    BoundResult,
    ChannelParams,
    capacity_expansion_constant,
    deletion_awgn_bound,
    deletion_bound,
    deletion_bound_small_p,
    deletion_substitution_bound,
    evaluate_bound,
    gallager_bound,
    optimize_block_length,
    random_insertion_bound,
    random_insertion_bound_small_p,
)
from .combinatorics import (
    expected_run_count,
    mean_pattern_log_weight,
    single_insertion_log_weight,
    single_insertion_log_weight_exact,
)
from .numerics import (
    awgn_expectation,
    binary_entropy,
    block_entropy,
)

__version__ = "0.1.0"
