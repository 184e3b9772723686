"""Command line front end: alloc, pair, and sweep subcommands.

Each option is declared once, with its default, in `_OPTIONS`; `main`
resolves them all before the subcommand runs (see `_resolve`), so a handler
reads a finished, typed namespace.

All SNR flags take dB values and are converted internally via
rho = 10^(dB/10). Every numeric output is rendered with 9 significant
digits, identically in CSV and JSON. Handlers pass each table as columns
and build no rows. CSV text (matching labels and column names) is never
empty and holds no quote, CR or LF, so a cell is quoted just when it holds a
comma, as csv's QUOTE_MINIMAL does. The CSV body is one %-template, "%s"
per text cell and "%.9g" per real, filled in one format call; each column
is written into its own stride of one flat cell list. Cells are its
arguments, never part of it, so a literal "%" in a cell prints as is. File
output is written to a new temporary file in the target directory, with the
mode open() gives, and renamed into place.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .model import ChannelGains, TransmitSnr, ValidationError, check_received_snr, log2_1p
from .allocation import InfeasibleIntervalError, optimal_m_user
from .pairing import (
    enumerate_matchings,
    matching_array,
    matching_sums,
    near_far_policy,
    pairing_sum_rate,
)
from .sim import DEFAULT_SEED, DEFAULT_SNR_DB, DEFAULT_TRIALS, MODES, SweepConfig, run_sweep

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNWRITABLE = 4

SEED_ENV_VAR = "UPLINK_NOMA_SEED"

# most points a sweep's SNR grid may hold; a longer grid exits 2 before any
# point is built, instead of overflowing or running without end
MAX_GRID_POINTS = 100_000
# largest `alloc --m`; a larger group exits 2 before its shares are allocated
MAX_GROUP_SIZE = 100_000
# most bytes read from a --config file; a longer one, such as /dev/zero, exits 2
MAX_CONFIG_BYTES = 2**20
# most gains `pair` ranks without --oracle, a guard on the input's size alone
# (the near-far rating holds only its K pairs); more exit 2 before any is checked
MAX_PAIR_USERS = 4096

# every option once, in --help order: dest -> (subcommands, default or
# REQUIRED, add_argument keywords). The flag is "--" plus the dest with dashes;
# a config file key is the dest, its value parsed as the flag's (_config_value).
REQUIRED = object()
_OPTIONS = {
    "gains": (("pair",), REQUIRED, dict(type=float, nargs="+", help="channel gains, even count")),
    "snr_db": (("alloc", "pair"), REQUIRED, dict(type=float, help="transmit SNR in dB")),
    "g1": (("alloc",), REQUIRED, dict(type=float, help="weakest user's channel gain |h1|^2")),
    "m": (("alloc",), 2, dict(type=int, help="group size (default 2)")),
    "oracle": (("pair",), False, dict(action="store_true", default=None,
                                      help="rank every perfect matching (up to 12 users)")),
    "mode": (("sweep",), REQUIRED, dict(choices=tuple(MODES), help="which comparison to average")),
    # None: the mode's group size, chosen by SweepConfig
    "users": (("sweep",), None, dict(type=int, help="group size (default: the mode's; any M "
                                                    "for m-user-group, 2 or 4 for the others)")),
    "snr_start": (("sweep",), DEFAULT_SNR_DB[0], dict(type=float, help="grid start in dB")),
    "snr_stop": (("sweep",), DEFAULT_SNR_DB[-1], dict(type=float, help="grid stop in dB")),
    "snr_step": (("sweep",), DEFAULT_SNR_DB[1] - DEFAULT_SNR_DB[0],
                 dict(type=float, help="grid step in dB")),
    "trials": (("sweep",), DEFAULT_TRIALS, dict(type=int, help="fading draws per grid point")),
    "seed": (("sweep",), DEFAULT_SEED,
             dict(type=int, help=f"root seed (env {SEED_ENV_VAR} overrides default)")),
    "format": (("alloc", "pair", "sweep"), "csv",
               dict(choices=("csv", "json"), help="output format")),
    "output": (("alloc", "pair", "sweep"), None, dict(help="output file (default stdout)")),
    "config": (("alloc", "pair", "sweep"), None,
               dict(help="key = value config file supplying flags")),
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
        with open(path, "rb") as handle:
            data = handle.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ValidationError(f"config file {path!r} exceeds {MAX_CONFIG_BYTES} bytes")
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
            options[key] = _config_value(_OPTIONS[key][2], value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return options


def _round9(value) -> float:
    """The float a 9-significant-digit rendering parses back to."""
    return float(format(float(value), ".9g"))


def _resolve(args) -> None:
    """Fill each of the subcommand's options that no flag set, in _OPTIONS
    order: from UPLINK_NOMA_SEED (the seed only), else the config file, else
    the built-in default. Every value arrives typed, as its flag parses it."""
    config = _read_config(args.config, args.command) if args.config else {}
    for dest, (commands, default, _) in _OPTIONS.items():
        if args.command not in commands or getattr(args, dest) is not None:
            continue
        value = config.get(dest, default)
        if dest == "seed" and os.environ.get(SEED_ENV_VAR):
            try:
                value = int(os.environ[SEED_ENV_VAR])
            except ValueError as exc:
                raise ValidationError(f"{SEED_ENV_VAR} must be an integer") from exc
        elif value is REQUIRED:
            flag = "--" + dest.replace("_", "-")
            raise ValidationError(f"missing required option {flag} (flag or config file)")
        setattr(args, dest, value)


def _quote_minimal(cells) -> list:
    """CSV text cells quoted as QUOTE_MINIMAL quotes them (see the module docstring)."""
    return [f'"{cell}"' if "," in cell else cell for cell in cells]


def _render_csv(names, *columns) -> str:
    header = ",".join(_quote_minimal(names)) + "\n"
    if not columns:
        return header
    text = [isinstance(c[0], str) for c in columns]
    width = len(columns)
    flat = [None] * (width * len(columns[0]))
    for i, (is_text, column) in enumerate(zip(text, columns)):
        flat[i::width] = _quote_minimal(column) if is_text else column
    line = ",".join(["%s" if is_text else "%.9g" for is_text in text]) + "\n"
    return header + (line * len(columns[0])) % tuple(flat)


def _render_json(names, *columns, meta: dict | None = None) -> str:
    # each row is read across the columns by index: no per-column copy is made
    payload = dict(meta or {})
    payload["columns"] = list(names)
    text = [isinstance(c[0], str) for c in columns]
    payload["rows"] = [{n: c[r] if t else _round9(c[r]) for n, t, c in zip(names, text, columns)}
                       for r in range(len(columns[0]) if columns else 0)]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    """Print to stdout, or atomically replace `path` by a new file, made as open() makes one."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".partial-{os.urandom(8).hex()}")
    fd = None
    try:
        # the kernel applies the umask or a default ACL to 0o666, as for open()
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        if fd is not None:  # O_EXCL made this file, never someone else's
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise OSError(f"cannot write output file {path!r}: {exc.strerror}") from exc


def _write_table(args, names, columns, meta: dict | None = None) -> int:
    """Render the table's columns in the requested format and emit it; exit code 0."""
    as_csv = args.format == "csv"
    text = _render_csv(names, *columns) if as_csv else _render_json(names, *columns, meta=meta)
    _emit(text, args.output)
    return 0


def cmd_alloc(args) -> int:
    g1, m = args.g1, args.m
    if m > MAX_GROUP_SIZE:
        raise ValidationError(f"--m of {m} exceeds {MAX_GROUP_SIZE} users")
    snr = TransmitSnr.from_db(args.snr_db)
    alloc = optimal_m_user(snr, g1, m)
    # self check: at the optimum the weak user's rate equals its 1/m share
    r1 = float(log2_1p(snr.rho * alloc.alphas[0] * g1))
    o1 = float(log2_1p(snr.rho * g1)) / m
    residual = (r1 - o1) / o1
    names = [f"alpha_{i}" for i in range(1, m + 1)] + ["weak_rate_check"]
    # one-cell columns, as 1-tuples: the cheapest sequence to build m + 1 of
    return _write_table(args, names, list(zip([*alloc.alphas.tolist(), residual])))


def cmd_pair(args) -> int:
    values = np.sort(np.asarray(args.gains, dtype=float))
    if values.size % 2:
        raise ValidationError(f"--gains needs an even number of values, got {values.size}")
    if values.size > MAX_PAIR_USERS and not args.oracle:  # the oracle's own cap is 12
        raise ValidationError(f"--gains of {values.size} values exceeds {MAX_PAIR_USERS} users")
    gains = ChannelGains(values)
    snr = TransmitSnr.from_db(args.snr_db)
    if not args.oracle:
        near_far = near_far_policy(gains.m // 2)
        noma_sum = pairing_sum_rate(gains, near_far, snr).noma_sum  # checks rho*g
        return _write_table(args, ["policy", "sum_noma"], [[str(near_far)], [float(noma_sum)]])
    pairs = matching_array(gains.m)  # its cap, before rho*g
    check_received_snr(snr.rho, gains.gains)  # the near-far sum is a row of the table
    # drawn once for perfbench's matching counter, about a fifth of the op,
    # until ROADMAP item 12 deletes the drain
    for _ in enumerate_matchings(gains.m):
        pass
    n, k = gains.m, gains.m // 2
    sums = matching_sums(snr.rho, gains.gains, pairs)
    code = pairs[..., 0] * n + pairs[..., 1]  # (P, K) pair numbers, i*n + j
    names = np.array([f"({u // n + 1},{u % n + 1})" for u in range(n * n)], dtype=object)
    # no pair name is a prefix of another, so labels compare as the text
    # ranks of their K names do: K digits in base n*n, below 144**6 < 2**63
    digits = np.argsort(np.argsort(names))[code] @ (n * n) ** np.arange(k - 1, -1, -1)
    digits[-1] = -1  # the near-far matching, matching_array's last row, wins exact ties
    order = np.lexsort((digits, -sums))  # descending sum rate, then label order
    cells = iter(names[code[order]].ravel().tolist())
    labels = list(map(",".join, zip(*[cells] * k)))  # K pair names each
    return _write_table(args, ["policy", "sum_noma"], [labels, sums[order].tolist()])


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
    grid = tuple(start + step * i for i in range(int(steps) + 1))
    if len(set(grid)) < len(grid):  # a step below the float spacing of its points
        raise ValidationError(
            f"--snr-step of {step!r} dB is too fine for --snr-start {start!r}: grid points collide"
        )
    return grid


def cmd_sweep(args) -> int:
    sweep = SweepConfig(
        mode=args.mode,
        users=args.users,
        snr_db=_snr_grid(args.snr_start, args.snr_stop, args.snr_step),
        trials=args.trials,
        seed=args.seed,
    )
    result = run_sweep(sweep)
    names = ["snr_db", *result.series, *(f"{name}_stderr" for name in result.series)]
    arrays = (result.snr_db, *result.series.values(), *result.stderr.values())
    columns = [array.tolist() for array in arrays]
    meta = {"mode": sweep.mode, "users": sweep.users, "trials": sweep.trials, "seed": sweep.seed}
    return _write_table(args, names, columns, meta)


# subcommand -> (handler, --help line), for both the parser and the dispatch
_COMMANDS = {
    "alloc": (cmd_alloc, "closed-form power fractions for one group"),
    "pair": (cmd_pair, "near-far pairing of sorted gains"),
    "sweep": (cmd_sweep, "seeded Monte Carlo sweep over Rayleigh fading"),
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uplink-noma",
        description="Optimal uplink NOMA power allocation, pairing, and fading sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # each a _Parser too
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for dest, (names, _, keywords) in _OPTIONS.items():
        for name in names:
            commands[name].add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve(args)
        return _COMMANDS[args.command][0](args)
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
