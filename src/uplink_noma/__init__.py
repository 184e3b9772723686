"""Optimal power allocation and user pairing for uplink NOMA.

Closed-form sum-rate optimal power splits for two-user and M-user groups
sharing one power budget, near-far user pairing with an exhaustive
matching oracle, and seeded Monte Carlo sweeps over unit-mean Rayleigh
fading that compare NOMA against orthogonal access.
"""

from .model import (
    ChannelGains,
    DimensionError,
    PowerAllocation,
    RateReport,
    TransmitSnr,
    ValidationError,
    log2_1p,
    noma_rates,
    noma_sum_rate,
    oma_rates,
)
from .allocation import (
    FeasibleInterval,
    InfeasibleIntervalError,
    m_user_shares,
    optimal_m_user,
    optimal_two_user,
    protected_m_user,
    strong_share_bounds,
)
from .pairing import (
    CaseGapReport,
    FourUserCases,
    PairingPolicy,
    case_gap_monotonicity,
    enumerate_matchings,
    four_user_cases,
    matching_array,
    matching_sums,
    near_far_policy,
    pair_indices,
    pair_rates,
    pairing_sum_rate,
)
from .channel import sample_gain_rows, sample_rayleigh_gains
from .sim import SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ChannelGains",
    "DimensionError",
    "PowerAllocation",
    "RateReport",
    "TransmitSnr",
    "ValidationError",
    "log2_1p",
    "noma_rates",
    "noma_sum_rate",
    "oma_rates",
    "FeasibleInterval",
    "InfeasibleIntervalError",
    "m_user_shares",
    "optimal_m_user",
    "optimal_two_user",
    "protected_m_user",
    "strong_share_bounds",
    "CaseGapReport",
    "FourUserCases",
    "PairingPolicy",
    "case_gap_monotonicity",
    "enumerate_matchings",
    "four_user_cases",
    "matching_array",
    "matching_sums",
    "near_far_policy",
    "pair_indices",
    "pair_rates",
    "pairing_sum_rate",
    "sample_gain_rows",
    "sample_rayleigh_gains",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
]
