"""The benchmark's workloads: the argv each operation sends to the CLI, and
the checks its output must pass.

Every operation gets its own inputs, derived from the workload seed and the
operation's index, so no two operations of a run repeat a computation. The
checks hold for any random stream: they compare against closed forms, exact
identities and an independent recomputation, never against stored digests.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import subprocess
import sys

import numpy as np

# |z| a sweep mean may reach against its exact value; the largest |z| over
# the 161-point fine grid is about 3.5, and 6 has a false-alarm rate near 1e-9
# per point, yet a mean shifted by 10 standard errors still fails.
Z_MAX = 6.0

# the CLI's default sweep grid and trial count, as the README documents them
DEFAULT_GRID = (-10.0, 30.0, 5.0)
DEFAULT_TRIALS = 10_000

PAIR_USERS = 12
PAIR_SNR_DB = 10.0

_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


def op_seed(seed: int, op: int) -> int:
    """Sweep seed of operation `op` in a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    return start + step * np.arange(round((stop - start) / step) + 1)


def exact_oma_means(snr_db) -> list:
    """E[log2(1 + rho*g)] for unit-mean exponential g, at each grid SNR.

    The closed form is e^(1/rho) * E1(1/rho) / ln 2. It runs in a child
    process so that scipy's memory does not count in the benchmark's peak RSS.
    """
    code = (
        "import json, sys, numpy as np\n"
        "from scipy.special import exp1\n"
        "rho = 10.0 ** (np.array(json.loads(sys.argv[1])) / 10.0)\n"
        "print(json.dumps((np.exp(1 / rho) * exp1(1 / rho) / np.log(2)).tolist()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps([float(v) for v in snr_db])],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def _parse_table(text: str, fmt: str) -> tuple:
    """(meta, columns, rows) of a CSV or JSON output; rows are lists of strings or floats."""
    if fmt == "json":
        payload = json.loads(text)
        columns = payload.pop("columns")
        rows = [[row[c] for c in columns] for row in payload.pop("rows")]
        return payload, columns, rows
    table = list(csv.reader(io.StringIO(text)))
    return {}, table[0], table[1:]


def _off_by_9_digits(printed: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Where `printed` is not `exact` rounded to 9 significant digits."""
    half_unit = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(exact))) - 8)
    return np.abs(printed - exact) > half_unit + 1e-12 * np.abs(exact)


class SweepWorkload:
    """`uplink-noma sweep` in one mode; grid and trials are CLI defaults when None."""

    work_unit = "trials"

    def __init__(self, name, mode, users, fmt="csv", grid=None, trials=None):
        self.name = name
        self.mode, self.users, self.fmt = mode, users, fmt
        self.grid_flags, self.trials_flag = grid, trials
        self.snr_db = grid_points(*(grid or DEFAULT_GRID))
        self.trials = trials or DEFAULT_TRIALS
        self.work_per_op = self.snr_db.size * self.trials

    def argv(self, seed: int, op: int, output: str) -> list:
        argv = ["sweep", "--mode", self.mode, "--users", str(self.users)]
        if self.grid_flags:
            start, stop, step = self.grid_flags
            argv += ["--snr-start", repr(start), "--snr-stop", repr(stop), "--snr-step", repr(step)]
        if self.trials_flag:
            argv += ["--trials", str(self.trials_flag)]
        argv += ["--seed", str(op_seed(seed, op))]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        return argv + ["--output", output]

    def reference(self):
        return np.array(exact_oma_means(self.snr_db))

    def check(self, text: str, seed: int, op: int, reference) -> list:
        """Problems found in one output; empty when it is correct."""
        meta, columns, rows = _parse_table(text, self.fmt)
        problems = []
        if self.fmt == "json":
            want = {"mode": self.mode, "users": self.users, "trials": self.trials,
                    "seed": op_seed(seed, op)}
            if meta != want:
                problems.append(f"metadata {meta} != {want}")
        names = {"two-user-rates": ["R1_noma", "R2_noma", "R1_oma", "R2_oma"],
                 "m-user-group": ["sum_noma", "sum_oma"]}[self.mode]
        if columns != ["snr_db"] + names + [n + "_stderr" for n in names]:
            return problems + [f"columns {columns}"]
        if len(rows) != self.snr_db.size:
            return problems + [f"{len(rows)} rows for {self.snr_db.size} grid points"]
        col = dict(zip(columns, np.array(rows, dtype=float).T))
        if not np.allclose(col["snr_db"], self.snr_db, rtol=0.0, atol=1e-9):
            problems.append("snr_db column differs from the requested grid")
        stderrs = np.array([col[n + "_stderr"] for n in names])
        if not (np.all(np.isfinite(stderrs)) and np.all(stderrs > 0.0)):
            problems.append("a standard error is not positive and finite")
        if self.mode == "two-user-rates":
            oma = col["R1_oma"] + col["R2_oma"]
            # the stderr of a sum is at most the sum of stderrs, whatever the correlation
            oma_se = col["R1_oma_stderr"] + col["R2_oma_stderr"]
            if not np.allclose(col["R1_noma"], col["R1_oma"], rtol=1e-8, atol=0.0):
                problems.append("mean R1_noma differs from mean R1_oma")
            if not np.all(col["R2_noma"] > col["R2_oma"]):
                problems.append("R2_noma does not exceed R2_oma at every point")
        else:
            # each trial's sum_oma is the mean of M iid rates, so its mean is one user's
            oma, oma_se = col["sum_oma"], col["sum_oma_stderr"]
            if not np.all(col["sum_noma"] >= col["sum_oma"]):
                problems.append("sum_noma falls below sum_oma")
        z = np.abs(oma - reference) / oma_se
        if not np.all(z <= Z_MAX):
            problems.append(f"OMA mean is {np.max(z):.1f} stderr from its exact value")
        return problems


class PairOracleWorkload:
    """`uplink-noma pair --oracle` on fresh unit-mean exponential gains."""

    work_unit = "matchings"
    fmt = "csv"

    def __init__(self, name, users=PAIR_USERS):
        self.name, self.users = name, users
        self.work_per_op = math.prod(range(users - 1, 0, -2))

    def gains(self, seed: int, op: int) -> np.ndarray:
        return np.random.default_rng([seed, op]).standard_exponential(self.users)

    def argv(self, seed: int, op: int, output: str) -> list:
        gains = [repr(float(g)) for g in self.gains(seed, op)]
        return ["pair", "--gains", *gains, "--snr-db", repr(PAIR_SNR_DB), "--oracle",
                "--output", output]

    def reference(self):
        return None

    def check(self, text: str, seed: int, op: int, reference) -> list:
        """Problems found in one output; empty when it is correct."""
        _, columns, rows = _parse_table(text, "csv")
        if columns != ["policy", "sum_noma"]:
            return [f"columns {columns}"]
        if len(rows) != self.work_per_op:
            return [f"{len(rows)} rows, expected {self.work_per_op} matchings"]
        policies = [row[0] for row in rows]
        values = np.array([row[1] for row in rows], dtype=float)
        pairs = np.array([_PAIR_RE.findall(p) for p in policies], dtype=int) - 1
        problems = []
        users = np.sort(pairs.reshape(len(rows), -1), axis=1)
        if len(set(policies)) != len(rows) or not np.all(users == np.arange(self.users)):
            problems.append("rows are not the distinct perfect matchings")
        if np.any(np.diff(values) > 0.0):
            problems.append("rows are not sorted by descending sum_noma")
        near_far = ",".join(f"({i},{self.users + 1 - i})" for i in range(1, self.users // 2 + 1))
        if policies[0] != near_far:
            problems.append(f"first row is {policies[0]}, not the near-far policy")
        # every pair's optimally loaded NOMA sum rate, recomputed in numpy
        g = np.sort(self.gains(seed, op))
        rho = 10.0 ** (PAIR_SNR_DB / 10.0)
        x = rho * g[:, None]
        w = np.expm1(0.5 * np.log1p(x)) / x
        table = np.log1p(rho * (w * g[:, None] + (1.0 - w) * g[None, :])) / math.log(2.0)
        exact = table[pairs[:, :, 0], pairs[:, :, 1]].sum(axis=1)
        wrong = np.flatnonzero(_off_by_9_digits(values, exact))
        if wrong.size:
            problems.append(f"{wrong.size} sums differ from the recomputation, "
                            f"first in row {wrong[0] + 2}")
        return problems


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-default", "two-user-rates", 2),
        SweepWorkload("sweep-fine-group", "m-user-group", 32, fmt="json",
                      grid=(-10.0, 30.0, 0.25), trials=500),
        PairOracleWorkload("pair-oracle"),
    )
}
