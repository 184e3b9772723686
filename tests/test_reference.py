"""Sweep means against exact ergodic expectations computed from the paper's
formulas alone: no kernel of the package enters a reference value.

With g ~ Exp(lam), E[log2(1 + rho*g)] = e^(lam/rho) E1(lam/rho) / ln 2.
- The OMA sum of M users is the 1/M average of M such terms of unit-mean
  gains, whatever M: sorting does not change the average.
- The weaker of two users has g1 ~ Exp(2). At the optimal split its NOMA
  rate equals its OMA rate, half of log2(1 + rho*g1).
- The two-user NOMA sum is log2(1 + rho*a1*g1 + rho*a2*g2), where
  1 + rho*a1*g1 = sqrt(1 + rho*g1). By memorylessness g2 = g1 + d with
  d ~ Exp(1) independent of g1, so the sum is a 2-D integral against the
  density 2 e^(-2 g1) e^(-d). The stronger user's rates are sum - R1.

Each mean must lie within BOUND of its standard errors of the reference, at
the seeds below on the default grid; seeds and bound were fixed before the
first run. A failure is a finding about the sampler or a kernel: record it
with its seed and point rather than choosing another seed.
"""

import math
from functools import cache

import pytest
from scipy.integrate import dblquad
from scipy.special import exp1

from uplink_noma import SweepConfig, run_sweep
from uplink_noma.sim import DEFAULT_SNR_DB

BOUND = 5.0
SEEDS = (42, 7)


def _mean_log2_1p(rho, lam):
    """E[log2(1 + rho*g)] for g ~ Exp(lam)."""
    x = lam / rho
    return math.exp(x) * float(exp1(x)) / math.log(2.0)


@cache
def _two_user_noma_sum(snr_db):
    rho = 10.0 ** (snr_db / 10.0)

    def integrand(d, g1):
        root = math.sqrt(1.0 + rho * g1)  # 1 + rho*a1*g1, so a2 = root / (root + 1)
        noma_sum = math.log2(root + rho * root / (root + 1.0) * (g1 + d))
        return noma_sum * 2.0 * math.exp(-2.0 * g1 - d)

    value, _ = dblquad(integrand, 0.0, math.inf, 0.0, math.inf, epsabs=1e-9, epsrel=1e-9)
    return value


def _references(snr_db):
    """Series name -> exact mean at one SNR, for every series with one."""
    rho = 10.0 ** (snr_db / 10.0)
    oma_sum = _mean_log2_1p(rho, 1.0)
    r1 = 0.5 * _mean_log2_1p(rho, 2.0)
    noma_sum = _two_user_noma_sum(snr_db)
    return {
        "two-user-rates": {
            "R1_noma": r1, "R2_noma": noma_sum - r1, "R1_oma": r1, "R2_oma": oma_sum - r1,
        },
        "two-user-sum": {"sum_noma": noma_sum, "sum_oma": oma_sum},
        "m-user-group": {"sum_oma": oma_sum},
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode, users", [
    ("two-user-rates", 2), ("two-user-sum", 2), ("m-user-group", 12),
])
def test_means_lie_within_bound_of_exact_expectations(mode, users, seed):
    result = run_sweep(SweepConfig(mode=mode, users=users, seed=seed))
    for point, snr_db in enumerate(DEFAULT_SNR_DB):
        for name, exact in _references(snr_db)[mode].items():
            z = (result.series[name][point] - exact) / result.stderr[name][point]
            assert abs(z) <= BOUND, (name, snr_db, seed, z)

