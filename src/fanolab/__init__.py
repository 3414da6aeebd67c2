"""Fano-type lower bounds for statistical estimation.

Exact information quantities on finite alphabets, distance-based and
volume-based Fano inequalities, minimax risk pipelines for four Gaussian
estimation problems, and a seeded Monte Carlo lab that audits every
computed bound against exhaustive oracles and simulated estimators.
"""

__version__ = "0.1.0"

from .continuum import (
    ContinuumSpace,
    EstimationError,
    GridPartition,
    VolumeRatioEstimate,
    ball_volume_ratio_analytic,
    box_space,
    continuum_fano_bound,
    grid_partition_counts,
    l2_ball_space,
    mc_volume_ratio,
    surface_volume_bounds,
)
from .discrete import (
    DiscreteSpace,
    NeighborhoodProfile,
    chain_tail,
    fano_conditional_form,
    fano_inequality_sides,
    fano_tail_lower_bound,
    neighborhood_sizes,
    sparse_sign_cardinality,
    sparse_sign_neighborhood_exact,
    sparse_sign_neighborhood_upper,
    sparse_sign_space,
)
from .info import (
    DomainError,
    EnumerationLimitError,
    MarkovChainSpec,
    ProbVector,
    binary_entropy,
    conditional_entropy,
    entropy,
    kl_discrete,
    kl_gaussian_shared_cov,
    mi_pairwise_kl_bound,
    mi_pairwise_kl_bound_discrete,
    mutual_information_exact,
    mutual_information_v_vhat,
)
from .lab import (
    BoundAudit,
    ExperimentConfig,
    MatchedBound,
    RiskReport,
    TailEstimate,
    check_bounds,
    enumerate_decoders_min_tail,
    hard_threshold,
    random_chain,
    random_symmetric_space,
    simulate_risk,
)
from .minimax import (
    ParamFamily,
    ReductionCheck,
    compressed_sensing_bound,
    generalized_fano_minimax,
    hinge_integral,
    linear_regression_bound,
    normal_mean_bound,
    normal_mean_tail_integral,
    normal_mean_tail_integral_floor,
    reduce_estimator_to_test,
    separation_delta,
    sparse_location_bound,
    square_loss,
)
from .results import BoundResult, MinimaxBound
from .streams import stream
