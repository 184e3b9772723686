"""Command line front end: alloc, pair, and sweep subcommands.

All SNR flags take dB values and are converted internally via
rho = 10^(dB/10). Every numeric output is rendered with 9 significant
digits, identically in CSV and JSON. CSV text is quoted as csv.writer's
QUOTE_MINIMAL quotes it, so only cells holding a comma are quoted; a table
with a quote, CR, LF or empty text cell goes through csv.writer itself. File
output is written to a temporary file in the target directory and renamed
into place.
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
from .pairing import (
    OMA_BASELINES,
    enumerate_matchings,
    matching_array,
    matching_rates,
    near_far_policy,
    pair_indices,
    pairing_sum_rate,
)
from .sim import DEFAULT_GROUP_SIZE, DEFAULT_SEED, DEFAULT_TRIALS, MODES, SweepConfig, run_sweep

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNWRITABLE = 4

SEED_ENV_VAR = "UPLINK_NOMA_SEED"

# most points a sweep's SNR grid may hold; a longer grid exits 2 before any
# point is built, instead of overflowing or running without end
MAX_GRID_POINTS = 100_000
# largest `alloc --m`; a larger group exits 2 before its shares are allocated
MAX_GROUP_SIZE = 100_000

# every option once, in --help order: dest -> (subcommands, add_argument
# keywords). The flag is "--" plus the dest with dashes; a config file key is
# the dest, and its value is parsed as the flag's (see _config_value).
_OPTIONS = {
    "gains": (("pair",), dict(type=float, nargs="+", help="channel gains, even count")),
    "snr_db": (("alloc", "pair"), dict(type=float, help="transmit SNR in dB")),
    "g1": (("alloc",), dict(type=float, help="weakest user's channel gain |h1|^2")),
    "m": (("alloc",), dict(type=int, help="group size (default 2)")),
    "oracle": (
        ("pair",),
        dict(
            action="store_true", default=None, help="rank every perfect matching (up to 12 users)"
        ),
    ),
    "oma_baseline": (
        ("pair",),
        dict(
            choices=OMA_BASELINES,
            help="orthogonal baseline: half of each pair's resource, or 1/(2K) of the band",
        ),
    ),
    "mode": (("sweep",), dict(choices=tuple(MODES), help="which comparison to average")),
    "users": (("sweep",), dict(type=int, help="group size (2, 4, or M for m-user-group)")),
    "snr_start": (("sweep",), dict(type=float, help="grid start in dB")),
    "snr_stop": (("sweep",), dict(type=float, help="grid stop in dB")),
    "snr_step": (("sweep",), dict(type=float, help="grid step in dB")),
    "trials": (("sweep",), dict(type=int, help="fading draws per grid point")),
    "seed": (("sweep",), dict(type=int, help=f"root seed (env {SEED_ENV_VAR} overrides default)")),
    "format": (("alloc", "pair", "sweep"), dict(choices=("csv", "json"), help="output format")),
    "output": (("alloc", "pair", "sweep"), dict(help="output file (default stdout)")),
    "config": (("alloc", "pair", "sweep"), dict(help="key = value config file supplying flags")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line, like every other error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return text.lower() in ("1", "true", "yes", "on")


def _config_value(keywords: dict, text: str):
    """One config value as its flag parses it: the same type and choices,
    nargs values split on commas and spaces, store_true as a boolean."""
    if keywords.get("action") == "store_true":
        return _parse_bool(text)
    words = text.replace(",", " ").split() if "nargs" in keywords else [text]
    if not "".join(words):
        raise ValueError("no value given")
    values = [keywords.get("type", str)(word) for word in words]
    for value in values:
        if value not in keywords.get("choices", values):
            choices = ", ".join(map(repr, keywords["choices"]))
            raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return values if "nargs" in keywords else values[0]


def _read_config(path: str, command: str) -> dict:
    """Parse a key = value config file for one subcommand; '#' starts a
    comment. Keys are the subcommand's flags, less `--config`, each given once."""
    options, first_line = {}, {}
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
        key, value = key.strip().lower().replace("-", "_"), value.strip()
        if key == "config" or key not in _OPTIONS or command not in _OPTIONS[key][0]:
            raise ValidationError(f"{path}:{lineno}: {command} takes no config key {key!r}")
        if key in first_line:
            raise ValidationError(
                f"{path}:{lineno}: repeated key {key!r} (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        try:
            options[key] = _config_value(_OPTIONS[key][1], value)
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


def _require(args, config: dict, dest: str):
    value = _resolve(args, config, dest)
    if value is None:
        flag = "--" + dest.replace("_", "-")
        raise ValidationError(f"missing required option {flag} (flag or config file)")
    return value


def _quote_minimal(cell: str) -> str:
    return f'"{cell}"' if "," in cell else cell


def _only_commas_need_quotes(cells) -> bool:
    """True when no cell is empty or holds a quote, CR or LF. Then QUOTE_MINIMAL
    quotes just the cells with a comma; other tables go through csv.writer."""
    text = "".join(cells)
    return all(cells) and not ('"' in text or "\r" in text or "\n" in text)


def _render_csv(columns, rows) -> str:
    # column by column, each all strings or all reals; cells are made lazily,
    # so only the finished lines and the text are ever held whole
    table = [(column, isinstance(column[0], str)) for column in zip(*rows)]
    if all(_only_commas_need_quotes(c) for c, text in [(columns, True), *table] if text):
        cells = zip(*[map(_quote_minimal if text else _fmt, c) for c, text in table])
        return "\n".join([",".join(map(_quote_minimal, columns)), *map(",".join, cells), ""])
    buffer = io.StringIO()
    cells = zip(*[c if text else map(_fmt, c) for c, text in table])
    csv.writer(buffer, lineterminator="\n").writerows([columns, *cells])
    return buffer.getvalue()


def _render_json(columns, rows, meta: dict | None = None) -> str:
    payload = dict(meta or {})
    payload["columns"] = list(columns)
    cells = [c if isinstance(c[0], str) else list(map(_round9, c)) for c in zip(*rows)]
    payload["rows"] = [dict(zip(columns, row)) for row in zip(*cells)]
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
    snr_db = float(_require(args, config, "snr_db"))
    g1 = float(_require(args, config, "g1"))
    m = int(_resolve(args, config, "m", 2))
    if m > MAX_GROUP_SIZE:
        raise ValidationError(f"--m of {m} exceeds {MAX_GROUP_SIZE} users")
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
    raw_gains = _require(args, config, "gains")
    snr_db = float(_require(args, config, "snr_db"))
    oracle = bool(_resolve(args, config, "oracle", False))
    baseline = _resolve(args, config, "oma_baseline", "pair")
    values = np.sort(np.asarray([float(v) for v in raw_gains], dtype=float))
    if values.size % 2:
        raise ValidationError(f"--gains needs an even number of values, got {values.size}")
    gains = ChannelGains(values)
    snr = TransmitSnr.from_db(snr_db)
    near_far = near_far_policy(gains.m // 2)
    pairs = matching_array(gains.m) if oracle else pair_indices([near_far])
    sums = np.array([pairing_sum_rate(gains, near_far, snr, baseline).noma_sum])  # checks baseline
    if oracle:
        # drawn once for perfbench's matching counter, until ROADMAP item 1 re-keys it
        for _ in enumerate_matchings(gains.m):
            pass
        sums = matching_rates(snr.rho, gains.gains, pairs).sum(axis=-1)
    n = gains.m
    names = [f"({u // n + 1},{u % n + 1})" for u in range(n * n)]  # names[i*n + j]: "(i+1,j+1)"
    pair_names = map(names.__getitem__, (pairs[..., 0] * n + pairs[..., 1]).ravel().tolist())
    labels = list(map(",".join, zip(*[pair_names] * (n // 2))))  # K pair names per matching
    keys = np.array(labels, dtype=bytes)  # ASCII, so bytes sort as the labels do
    # descending sum rate; the near-far policy wins exact ties, then label order
    order = np.lexsort((keys, keys != str(near_far).encode(), -sums))
    rows = list(zip(map(labels.__getitem__, order.tolist()), sums[order].tolist()))
    return _write_table(args, config, ["policy", "sum_noma"], rows)


def _snr_grid(start: float, stop: float, step: float) -> tuple:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"SNR grid values must be finite, got {start!r}, {stop!r}, {step!r}")
    if step <= 0.0:
        raise ValidationError(f"--snr-step must be positive, got {step!r}")
    if stop < start:
        raise ValidationError("--snr-stop must be >= --snr-start")
    steps = (stop - start) / step + 1e-9  # grid points less one, in floats
    if not steps < MAX_GRID_POINTS:  # also false for an infinite span
        raise ValidationError(
            f"SNR grid from {start!r} to {stop!r} in steps of {step!r} dB "
            f"exceeds {MAX_GRID_POINTS} points"
        )
    count = int(steps) + 1
    return tuple(start + step * i for i in range(count))


def cmd_sweep(args, config: dict) -> int:
    mode = _require(args, config, "mode")
    sweep = SweepConfig(
        mode=mode,
        users=int(_resolve(args, config, "users", MODES[mode][1] or DEFAULT_GROUP_SIZE)),
        snr_db=_snr_grid(
            float(_resolve(args, config, "snr_start", -10.0)),
            float(_resolve(args, config, "snr_stop", 30.0)),
            float(_resolve(args, config, "snr_step", 5.0)),
        ),
        trials=int(_resolve(args, config, "trials", DEFAULT_TRIALS)),
        seed=int(_resolve(args, config, "seed", DEFAULT_SEED, env_var=SEED_ENV_VAR)),
    )
    result = run_sweep(sweep)
    columns = ["snr_db", *result.series, *(f"{name}_stderr" for name in result.series)]
    rows = list(zip(result.snr_db, *result.series.values(), *result.stderr.values()))
    meta = {"mode": mode, "users": sweep.users, "trials": sweep.trials, "seed": sweep.seed}
    return _write_table(args, config, columns, rows, meta)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uplink-noma",
        description="Optimal uplink NOMA power allocation, pairing, and fading sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # each a _Parser too
    commands = {
        "alloc": sub.add_parser("alloc", help="closed-form power fractions for one group"),
        "pair": sub.add_parser("pair", help="near-far pairing of sorted gains"),
        "sweep": sub.add_parser("sweep", help="seeded Monte Carlo sweep over Rayleigh fading"),
    }
    for dest, (names, keywords) in _OPTIONS.items():
        for name in names:
            commands[name].add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config, args.command) if args.config else {}
        handler = {"alloc": cmd_alloc, "pair": cmd_pair, "sweep": cmd_sweep}[args.command]
        return handler(args, config)
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
