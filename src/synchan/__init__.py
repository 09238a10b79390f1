"""Capacity lower bounds, simulators, and exact oracles for binary channels
with synchronization errors (deletions, substitutions, AWGN, random insertions)."""

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
from .channels import (
    RngState,
    simulate_bsc,
    simulate_deletion,
    simulate_deletion_awgn,
    simulate_deletion_substitution,
    simulate_gallager_insertion,
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
from .oracle import (
    EntropyReport,
    ExactDistribution,
    exact_deletion_law,
    exact_deletion_substitution_entropies,
    exact_insertion_entropies,
    mc_awgn_entropy_check,
)

__version__ = "0.1.0"
