"""Fixed-length descriptions of randomly drawn tasks: constructions,
moment bounds, and the mismatch penalty."""

from .errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    CapExceededError,
    DescriptionCountTooSmallError,
    GroundSetMismatchError,
    InvalidOrderError,
    RateTooSmallError,
    SupportViolationError,
    TaskCodesError,
)
from .probability import (
    DEFAULT_TUPLE_CAP,
    MarkovSource,
    Pmf,
    iid_joint,
    kl_divergence,
    log2sumexp,
    markov_joint,
    markov_renyi_sum,
    markov_renyi_sums,
    read_markov_text,
    read_pmf_text,
    renyi_entropy,
    renyi_rho,
)
from .partitions import (
    LambdaBudget,
    Partition,
    build_partition,
    kraft_sum,
    subset_count_bound,
    subset_count_bound_detail,
    verify_budget,
)
from .coding import (
    MomentReport,
    TaskEncoder,
    block_experiment,
    brute_force_optimum,
    build_encoder,
    floor_pow2,
    lower_bound,
    m_tilde,
    moment,
    lambda_from_law,
    upper_bound,
)
from .mismatch import (
    DivergenceLimits,
    DivergenceValue,
    divergence_limits,
    mismatched_bound,
    product_additivity_check,
    renyi_divergence,
    sundaresan_divergence,
)

__version__ = "0.1.0"
