"""Command line front end: alloc, pair, and sweep subcommands.

All SNR flags take dB values and are converted internally via
rho = 10^(dB/10). Every numeric output is rendered with 9 significant
digits, identically in CSV and JSON. File output is written to a
temporary file in the target directory and renamed into place.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .model import ChannelGains, TransmitSnr, ValidationError, log2_1p
from .allocation import InfeasibleIntervalError, optimal_m_user
from .pairing import enumerate_matchings, near_far_policy, pairing_sum_rate
from .sim import (
    DEFAULT_GROUP_SIZE,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    MODES,
    SERIES_BY_MODE,
    SweepConfig,
    run_sweep,
)

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNWRITABLE = 4

SEED_ENV_VAR = "UPLINK_NOMA_SEED"

# every key a config file may supply, with its parser
_CONFIG_PARSERS = {
    "snr_db": float,
    "g1": float,
    "m": int,
    "gains": lambda text: [float(v) for v in text.replace(",", " ").split()],
    "oracle": lambda text: _parse_bool(text, "oracle"),
    "oma_baseline": str,
    "mode": str,
    "users": int,
    "snr_start": float,
    "snr_stop": float,
    "snr_step": float,
    "trials": int,
    "seed": int,
    "format": str,
    "output": str,
}


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"config key {key!r} must be a boolean, got {text!r}")


def _read_config(path: str) -> dict:
    """Parse a key = value config file; '#' starts a comment."""
    options = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_PARSERS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            options[key] = _CONFIG_PARSERS[key](value.strip())
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return options


def _fmt(value) -> str:
    """Render one real with 9 significant digits."""
    return format(float(value), ".9g")


def _round9(value) -> float:
    """The float a 9-significant-digit rendering parses back to."""
    return float(_fmt(value))


def _resolve(args, config: dict, dest: str, default=None, env_var: str | None = None):
    """Flag beats environment beats config file beats built-in default."""
    value = getattr(args, dest)
    if value is not None:
        return value
    if env_var is not None and os.environ.get(env_var):
        try:
            return int(os.environ[env_var])
        except ValueError as exc:
            raise ValidationError(f"{env_var} must be an integer") from exc
    if dest in config:
        return config[dest]
    return default


def _require(args, config: dict, dest: str, flag: str):
    value = _resolve(args, config, dest)
    if value is None:
        raise ValidationError(f"missing required option {flag} (flag or config file)")
    return value


def _render_csv(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    return buffer.getvalue()


def _render_json(columns, rows, meta: dict | None = None) -> str:
    payload = dict(meta or {})
    payload["columns"] = list(columns)
    payload["rows"] = [
        {
            name: (cell if isinstance(cell, str) else _round9(cell))
            for name, cell in zip(columns, row)
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    """Print to stdout, or atomically replace `path`."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".partial-", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise OSError(f"cannot write output file {path!r}: {exc.strerror}") from exc


def _write_table(args, config: dict, columns, rows, meta: dict | None = None) -> int:
    """Render the table in the requested format and emit it; exit code 0."""
    fmt = _resolve(args, config, "format", "csv")
    text = _render_csv(columns, rows) if fmt == "csv" else _render_json(columns, rows, meta)
    _emit(text, _resolve(args, config, "output"))
    return 0


def cmd_alloc(args, config: dict) -> int:
    snr_db = float(_require(args, config, "snr_db", "--snr-db"))
    g1 = float(_require(args, config, "g1", "--g1"))
    m = int(_resolve(args, config, "m", 2))
    snr = TransmitSnr.from_db(snr_db)
    alloc = optimal_m_user(snr, g1, m)
    # self check: at the optimum the weak user's rate equals its 1/m share
    r1 = float(log2_1p(snr.rho * alloc.alphas[0] * g1))
    o1 = float(log2_1p(snr.rho * g1)) / m
    residual = (r1 - o1) / o1
    columns = [f"alpha_{i}" for i in range(1, m + 1)] + ["weak_rate_check"]
    rows = [list(alloc.alphas) + [residual]]
    return _write_table(args, config, columns, rows)


def cmd_pair(args, config: dict) -> int:
    raw_gains = _require(args, config, "gains", "--gains")
    snr_db = float(_require(args, config, "snr_db", "--snr-db"))
    oracle = bool(_resolve(args, config, "oracle", False))
    baseline = _resolve(args, config, "oma_baseline", "pair")
    values = np.sort(np.asarray([float(v) for v in raw_gains], dtype=float))
    if values.size % 2:
        raise ValidationError(f"--gains needs an even number of values, got {values.size}")
    gains = ChannelGains(values)
    snr = TransmitSnr.from_db(snr_db)
    near_far = near_far_policy(gains.m // 2)
    columns = ["policy", "sum_noma"]
    if oracle:
        scored = [
            (pairing_sum_rate(gains, policy, snr, baseline).noma_sum, policy)
            for policy in enumerate_matchings(gains.m)
        ]
        # descending sum rate; the near-far policy wins exact ties
        scored.sort(key=lambda item: (-item[0], item[1] != near_far, str(item[1])))
        rows = [[str(policy), value] for value, policy in scored]
    else:
        report = pairing_sum_rate(gains, near_far, snr, baseline)
        rows = [[str(near_far), report.noma_sum]]
    return _write_table(args, config, columns, rows)


def _snr_grid(start: float, stop: float, step: float) -> tuple:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"SNR grid values must be finite, got {start!r}, {stop!r}, {step!r}")
    if step <= 0.0:
        raise ValidationError(f"--snr-step must be positive, got {step!r}")
    if stop < start:
        raise ValidationError("--snr-stop must be >= --snr-start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + step * i for i in range(count))


def cmd_sweep(args, config: dict) -> int:
    mode = _require(args, config, "mode", "--mode")
    if mode not in MODES:
        raise ValidationError(f"--mode must be one of {MODES}, got {mode!r}")
    default_users = {"four-user-cases": 4, "m-user-group": DEFAULT_GROUP_SIZE}.get(mode, 2)
    sweep = SweepConfig(
        mode=mode,
        users=int(_resolve(args, config, "users", default_users)),
        snr_db=_snr_grid(
            float(_resolve(args, config, "snr_start", -10.0)),
            float(_resolve(args, config, "snr_stop", 30.0)),
            float(_resolve(args, config, "snr_step", 5.0)),
        ),
        trials=int(_resolve(args, config, "trials", DEFAULT_TRIALS)),
        seed=int(_resolve(args, config, "seed", DEFAULT_SEED, env_var=SEED_ENV_VAR)),
    )
    result = run_sweep(sweep)
    names = SERIES_BY_MODE[mode]
    columns = ["snr_db"] + list(names) + [f"{name}_stderr" for name in names]
    rows = [
        [db] + [result.series[n][i] for n in names] + [result.stderr[n][i] for n in names]
        for i, db in enumerate(result.snr_db)
    ]
    meta = {"mode": mode, "users": sweep.users, "trials": sweep.trials, "seed": sweep.seed}
    return _write_table(args, config, columns, rows, meta)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplink-noma",
        description="Optimal uplink NOMA power allocation, pairing, and fading sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alloc = sub.add_parser("alloc", help="closed-form power fractions for one group")
    alloc.add_argument("--snr-db", dest="snr_db", type=float, help="transmit SNR in dB")
    alloc.add_argument("--g1", type=float, help="weakest user's channel gain |h1|^2")
    alloc.add_argument("--m", type=int, help="group size (default 2)")
    alloc.set_defaults(handler=cmd_alloc)

    pair = sub.add_parser("pair", help="near-far pairing of sorted gains")
    pair.add_argument("--gains", type=float, nargs="+", help="channel gains, even count")
    pair.add_argument("--snr-db", dest="snr_db", type=float, help="transmit SNR in dB")
    pair.add_argument(
        "--oracle",
        action="store_true",
        default=None,
        help="rank every perfect matching (up to 12 users)",
    )
    pair.add_argument(
        "--oma-baseline",
        dest="oma_baseline",
        choices=["pair", "network"],
        help="orthogonal baseline: half of each pair's resource, or 1/(2K) of the band",
    )
    pair.set_defaults(handler=cmd_pair)

    sweep = sub.add_parser("sweep", help="seeded Monte Carlo sweep over Rayleigh fading")
    sweep.add_argument("--mode", choices=list(MODES), help="which comparison to average")
    sweep.add_argument("--users", type=int, help="group size (2, 4, or M for m-user-group)")
    sweep.add_argument("--snr-start", dest="snr_start", type=float, help="grid start in dB")
    sweep.add_argument("--snr-stop", dest="snr_stop", type=float, help="grid stop in dB")
    sweep.add_argument("--snr-step", dest="snr_step", type=float, help="grid step in dB")
    sweep.add_argument("--trials", type=int, help="fading draws per grid point")
    sweep.add_argument("--seed", type=int, help=f"root seed (env {SEED_ENV_VAR} overrides default)")
    sweep.set_defaults(handler=cmd_sweep)

    for sub_parser in (alloc, pair, sweep):
        sub_parser.add_argument("--format", choices=["csv", "json"], help="output format")
        sub_parser.add_argument("--output", help="output file (default stdout)")
        sub_parser.add_argument("--config", help="key = value config file supplying flags")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        return args.handler(args, config)
    except InfeasibleIntervalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    sys.exit(main())
