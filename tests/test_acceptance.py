"""Acceptance gate: one test per release criterion, each printing a verdict.

Run under pytest (add -s to see the verdict lines as they pass) or as a
plain script: python tests/test_acceptance.py
"""

import sys

import numpy as np

from uplink_noma import (
    ChannelGains,
    SweepConfig,
    TransmitSnr,
    case_gap_monotonicity,
    enumerate_matchings,
    four_user_cases,
    log2_1p,
    m_user_shares,
    near_far_policy,
    noma_rates,
    oma_rates,
    optimal_two_user,
    pairing_sum_rate,
    protected_m_user,
    run_sweep,
)
from uplink_noma.cli import main as cli_main

RHO_GRID = np.geomspace(1e-2, 1e4, 20)
G1_GRID = np.geomspace(1e-3, 1e2, 20)
GAINS4 = ChannelGains(np.array([0.3, 0.8, 2.0, 5.0]))


def _verdict(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}{suffix}")
    assert ok, f"{tag}{suffix}"


def _pair_sums(rho, g_weak, g_strong):
    w = m_user_shares(rho * g_weak, 2)[..., 0]
    return log2_1p(rho * (w * g_weak + (1.0 - w) * g_strong))


def test_c01_closed_form_anchors():
    worst = 0.0
    for g1, expected in ((0.3, (1.0 / 3.0, 2.0 / 3.0)), (0.8, (0.25, 0.75))):
        alphas = optimal_two_user(TransmitSnr(10.0), g1).alphas
        worst = max(worst, abs(alphas[0] - expected[0]), abs(alphas[1] - expected[1]))
    _verdict("C1 closed-form anchors", worst <= 1e-12, f"worst abs error {worst:.3e}")


def test_c02_weak_user_rate_equality():
    worst = 0.0
    for rho in RHO_GRID:
        snr = TransmitSnr(float(rho))
        for g1 in G1_GRID:
            gains = ChannelGains(np.array([g1, 2.0 * g1]))
            alloc = optimal_two_user(snr, float(g1))
            r1 = noma_rates(gains, alloc, snr)[0]
            o1 = oma_rates(gains, snr)[0]
            worst = max(worst, abs(r1 - o1) / o1)
    _verdict("C2 weak-user rate equality", worst <= 1e-9, f"worst rel gap {worst:.3e}")


def test_c03_strong_user_rate_floor():
    worst = -np.inf
    for rho in RHO_GRID:
        snr = TransmitSnr(float(rho))
        for g1 in G1_GRID:
            for factor in (1.0, 2.0, 10.0):
                gains = ChannelGains(np.array([g1, factor * g1]))
                alloc = optimal_two_user(snr, float(g1))
                r2 = noma_rates(gains, alloc, snr)[1]
                o2 = oma_rates(gains, snr)[1]
                worst = max(worst, o2 - r2)
    _verdict("C3 strong-user rate floor", worst <= 1e-9, f"worst shortfall {worst:.3e}")


def _best_feasible_by_scan(rho, g1, g2, points=10_000):
    o1 = 0.5 * np.log2(1.0 + rho * g1)
    o2 = 0.5 * np.log2(1.0 + rho * g2)

    def best_on(a2):
        a1 = 1.0 - a2
        r1 = np.log2(1.0 + rho * a1 * g1)
        r2 = np.log2(1.0 + rho * a2 * g2 / (1.0 + rho * a1 * g1))
        feasible = (r1 >= o1) & (r2 >= o2)
        if not feasible.any():
            return None, None
        sums = np.log2(1.0 + rho * (a1 * g1 + a2 * g2))
        sums[~feasible] = -np.inf
        idx = int(np.argmax(sums))
        return float(sums[idx]), float(a2[idx])

    coarse = np.linspace(0.0, 1.0, points + 2)[1:-1]
    best, at = best_on(coarse)
    if best is None:
        return -np.inf
    step = coarse[1] - coarse[0]
    fine = np.linspace(max(at - step, 0.0), min(at + step, 1.0), points + 2)[1:-1]
    refined, _ = best_on(fine)
    return best if refined is None else max(best, refined)


def test_c04_two_user_optimality_oracle():
    rng = np.random.default_rng(41)
    worst_excess = -np.inf
    for _ in range(1000):
        rho = 10.0 ** rng.uniform(-2, 4)
        g1 = 10.0 ** rng.uniform(-3, 2)
        g2 = g1 * 10.0 ** rng.uniform(0, 2)
        alphas = optimal_two_user(TransmitSnr(rho), g1).alphas
        closed = float(np.log2(1.0 + rho * (alphas[0] * g1 + alphas[1] * g2)))
        worst_excess = max(worst_excess, _best_feasible_by_scan(rho, g1, g2) - closed)
    _verdict(
        "C4 scan oracle never beats the closed form",
        worst_excess <= 1e-7,
        f"worst oracle excess {worst_excess:.3e}",
    )


def test_c05_m_user_recursion():
    rng = np.random.default_rng(43)
    worst_sum = 0.0
    worst_a1 = 0.0
    worst_weak = 0.0
    worst_floor = -np.inf
    floor_breaks = 0
    draws = 0
    for m in (3, 4, 8, 12, 32):
        for _ in range(100):
            rho = 10.0 ** rng.uniform(-1, 3)
            snr = TransmitSnr(rho)
            gains = ChannelGains(np.sort(rng.standard_exponential(m)))
            g1 = float(gains.gains[0])
            alloc = protected_m_user(snr, gains)
            worst_sum = max(worst_sum, abs(float(alloc.alphas.sum()) - 1.0))
            x = rho * g1
            closed_a1 = float(np.expm1(np.log1p(x) / m) / x)
            worst_a1 = max(worst_a1, abs(alloc.alphas[0] - closed_a1) / closed_a1)
            rates = noma_rates(gains, alloc, snr)
            floors = oma_rates(gains, snr)
            worst_weak = max(worst_weak, abs(rates[0] - floors[0]) / floors[0])
            shortfall = float(np.max(floors - rates))
            worst_floor = max(worst_floor, shortfall)
            floor_breaks += int(shortfall > 1e-9)
            draws += 1
    ok = (
        worst_sum <= 1e-12
        and worst_a1 <= 1e-12
        and worst_weak <= 1e-9
        and worst_floor <= 1e-9
    )
    _verdict(
        "C5 m-user recursion",
        ok,
        f"|sum-1| {worst_sum:.2e}, a1 rel {worst_a1:.2e}, weak rel "
        f"{worst_weak:.2e}, per-user floor broken on {floor_breaks}/{draws} "
        f"draws, worst shortfall {worst_floor:.2e} bits",
    )


def test_c06_near_far_matching_oracle():
    rng = np.random.default_rng(47)
    violations = 0
    spot_gap = 0.0
    for k in (2, 3, 4):
        n = 2 * k
        matchings = [policy.pairs for policy in enumerate_matchings(n)]
        near_far = near_far_policy(k).pairs
        assert near_far in matchings
        for rho in (1.0, 10.0, 100.0):
            draws = np.sort(rng.standard_exponential((1000, n)), axis=1)
            table = {
                (i, j): _pair_sums(rho, draws[:, i - 1], draws[:, j - 1])
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            }
            sums = np.stack([sum(table[p] for p in pairs) for pairs in matchings])
            near_far_sums = sums[matchings.index(near_far)]
            violations += int(np.sum(near_far_sums < sums.max(axis=0) - 1e-9))
            # tie the vectorized evaluation back to the library path
            snr = TransmitSnr(rho)
            for row in (0, 500):
                direct = pairing_sum_rate(
                    ChannelGains(draws[row]), near_far_policy(k), snr
                ).noma_sum
                spot_gap = max(spot_gap, abs(direct - near_far_sums[row]) / direct)
    ok = violations == 0 and spot_gap <= 1e-12
    _verdict(
        "C6 near-far beats every matching",
        ok,
        f"violations {violations}, library spot gap {spot_gap:.2e}",
    )


def test_c07_case_ordering():
    rng = np.random.default_rng(53)
    violations = 0
    spot_gap = 0.0
    for rho in (1.0, 10.0, 100.0):
        draws = np.sort(rng.standard_exponential((10_000, 4)), axis=1)
        g1, g2, g3, g4 = (draws[:, i] for i in range(4))
        case1 = _pair_sums(rho, g1, g2) + _pair_sums(rho, g3, g4)
        case2 = _pair_sums(rho, g1, g3) + _pair_sums(rho, g2, g4)
        case3 = _pair_sums(rho, g1, g4) + _pair_sums(rho, g2, g3)
        violations += int(np.sum(case1 > case2 + 1e-9))
        violations += int(np.sum(case2 > case3 + 1e-9))
        snr = TransmitSnr(rho)
        for row in (0, 2500, 9999):
            cases = four_user_cases(ChannelGains(draws[row]), snr)
            spot_gap = max(
                spot_gap,
                abs(cases.case1 - case1[row]),
                abs(cases.case2 - case2[row]),
                abs(cases.case3 - case3[row]),
            )
    ok = violations == 0 and spot_gap <= 1e-9
    _verdict(
        "C7 four-user case ordering",
        ok,
        f"violations {violations} of 30000 draws, library spot gap {spot_gap:.2e}",
    )


def test_c08_case_gap_limits():
    report = case_gap_monotonicity(GAINS4, np.geomspace(1e-6, 1e6, 50))
    low_gap = float(report.gaps[0])
    high_rel = abs(report.gaps[-1] - report.high_snr_limit) / report.high_snr_limit
    ok = low_gap < 1e-5 and high_rel <= 0.01 and report.nondecreasing
    _verdict(
        "C8 case-gap limits and monotonicity",
        ok,
        f"gap at rho=1e-6 {low_gap:.3e}, rel gap to log2(2.5) at rho=1e6 "
        f"{high_rel:.3e}, nondecreasing {report.nondecreasing}",
    )


def test_c09_default_sweep_orderings():
    rates = run_sweep(SweepConfig(mode="two-user-rates", users=2))
    weak_ok = np.all(
        np.abs(rates.series["R1_noma"] - rates.series["R1_oma"])
        <= 3.0 * (rates.stderr["R1_noma"] + rates.stderr["R1_oma"])
    )
    strong_ok = np.all(rates.series["R2_noma"] >= rates.series["R2_oma"] - 1e-9)

    pair_sum = run_sweep(SweepConfig(mode="two-user-sum", users=2))
    pair_ok = np.all(pair_sum.series["sum_noma"] >= pair_sum.series["sum_oma"] - 1e-9)

    cases = run_sweep(SweepConfig(mode="four-user-cases", users=4))
    order_ok = np.all(cases.series["case1"] <= cases.series["case2"] + 1e-9) and np.all(
        cases.series["case2"] <= cases.series["case3"] + 1e-9
    )
    spread = cases.series["case3"] - cases.series["case1"]
    spread_ok = np.all(np.diff(spread) > 0.0)

    group = run_sweep(SweepConfig(mode="m-user-group", users=12))
    group_ok = np.all(group.series["sum_noma"] >= group.series["sum_oma"] - 1e-9)

    ok = bool(weak_ok and strong_ok and pair_ok and order_ok and spread_ok and group_ok)
    _verdict(
        "C9 default sweeps",
        ok,
        f"weak equality {bool(weak_ok)}, strong floor {bool(strong_ok)}, "
        f"pair gain {bool(pair_ok)}, case order {bool(order_ok)}, "
        f"case spread grows {bool(spread_ok)}, group gain {bool(group_ok)}",
    )


def test_c10_seeded_outputs_are_byte_identical(tmp_path):
    files = {}
    for fmt, mode in (("csv", "four-user-cases"), ("json", "two-user-sum")):
        pair = []
        for tag in ("first", "second"):
            path = tmp_path / f"{mode}-{tag}.{fmt}"
            code = cli_main(
                ["sweep", "--mode", mode, "--seed", "42", "--format", fmt,
                 "--output", str(path)]
            )
            assert code == 0
            pair.append(path.read_bytes())
        files[fmt] = pair[0] == pair[1]
    ok = all(files.values())
    _verdict(
        "C10 byte-identical seeded reruns",
        ok,
        f"csv identical {files['csv']}, json identical {files['json']}",
    )


CRITERIA = (
    test_c01_closed_form_anchors,
    test_c02_weak_user_rate_equality,
    test_c03_strong_user_rate_floor,
    test_c04_two_user_optimality_oracle,
    test_c05_m_user_recursion,
    test_c06_near_far_matching_oracle,
    test_c07_case_ordering,
    test_c08_case_gap_limits,
    test_c09_default_sweep_orderings,
)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    failures = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    try:
        with tempfile.TemporaryDirectory() as scratch:
            test_c10_seeded_outputs_are_byte_identical(Path(scratch))
    except AssertionError:
        failures += 1
    sys.exit(1 if failures else 0)
