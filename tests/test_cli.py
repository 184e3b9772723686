"""CLI tests: output formats, precedence, exit codes, atomic writes."""

import contextlib
import csv
import decimal
import functools
import gc
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uplink_noma.allocation as allocation
import uplink_noma.cli as cli
import uplink_noma.pairing as pairing
import uplink_noma.sim as sim
from uplink_noma import (
    ChannelGains,
    TransmitSnr,
    enumerate_matchings,
    matching_array,
    matching_sums,
    near_far_policy,
    pairing_sum_rate,
)
from uplink_noma.allocation import InfeasibleIntervalError
from uplink_noma.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# gains the oracle tests rank: exact ties, then seeded draws
ORACLE_GAINS = {
    "12-equal": ["1"] * 12,
    "equal-pairs": "1 1 2 2 3 3 4 4".split(),
    "6-equal": ["1"] * 6,
    # from 10 users on, label text order differs from numeric: "(1,10)" < "(1,2)"
    "10-equal": ["1"] * 10,
    "12-equal-pairs": [str(v) for v in range(1, 7) for _ in range(2)],
    **{
        f"draw-{seed}": [
            repr(g) for g in np.random.default_rng(seed).standard_exponential(12).tolist()
        ]
        for seed in (3, 4, 5)
    },
}


def _closed_form_sums(rho, gains, matchings):
    """Each matching's NOMA sum rate from the optimal two-user closed form,
    in 60-digit decimal, never through the rate kernels. A pair with weak
    x1 = rho*g_i and strong x2 = rho*g_j gives the weak user the share
    (s - 1)/x1, s = sqrt(1 + x1), and sums to log2(s + (1 - (s - 1)/x1) x2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = [Decimal(rho) * Decimal(g) for g in gains]
        ln2 = Decimal(2).ln()
        pair = {}
        for i, x1 in enumerate(x):
            s = (1 + x1).sqrt()
            for j in range(i + 1, len(x)):
                pair[i, j] = (s + (1 - (s - 1) / x1) * x[j]).ln() / ln2
        return np.array([float(sum(pair[i, j] for i, j in m)) for m in matchings])


class TestAlloc:
    def test_two_user_csv(self, capsys):
        code, out, _ = _run(capsys, "alloc", "--snr-db", "10", "--g1", "0.3")
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["alpha_1", "alpha_2", "weak_rate_check"]
        assert rows[0][0] == "0.333333333"
        assert rows[0][1] == "0.666666667"
        assert abs(float(rows[0][2])) < 1e-9

    def test_three_user_json(self, capsys):
        code, out, _ = _run(
            capsys, "alloc", "--snr-db", "10", "--g1", "0.7", "--m", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["alpha_1"] == pytest.approx(0.142857143, abs=1e-9)
        assert row["alpha_2"] == pytest.approx(0.404061018, abs=1e-9)
        assert row["alpha_3"] == pytest.approx(0.453081839, abs=1e-9)

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, "alloc", "--g1", "0.3")
        assert code == 2
        assert "--snr-db" in err

    def test_bad_gain_value(self, capsys):
        code, _, _ = _run(capsys, "alloc", "--snr-db", "10", "--g1", "-1")
        assert code == 2

    def test_bad_group_size(self, capsys):
        code, _, _ = _run(capsys, "alloc", "--snr-db", "10", "--g1", "0.3", "--m", "1")
        assert code == 2


class TestPair:
    def test_near_far_line(self, capsys):
        code, out, _ = _run(
            capsys, "pair", "--gains", "0.3", "0.8", "2.0", "5.0", "--snr-db", "10"
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["policy", "sum_noma"]
        assert rows == [["(1,4),(2,3)", "9.31288296"]]

    def test_oracle_table_is_ranked(self, capsys):
        code, out, _ = _run(
            capsys,
            "pair", "--gains", "0.3", "0.8", "2.0", "5.0", "--snr-db", "10", "--oracle",
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 3
        assert rows[0][0] == "(1,4),(2,3)"
        sums = [float(r[1]) for r in rows]
        assert sums == sorted(sums, reverse=True)

    def test_oracle_rates_no_near_far_report(self, capsys, monkeypatch):
        # the ranked table holds the near-far sum; rating that policy apart
        # would build a RateReport only to throw it away
        argv = ["pair", "--gains", "0.3", "0.8", "2.0", "5.0", "--snr-db", "10", "--oracle"]
        expected = _run(capsys, *argv)

        def refuse(*args):
            raise AssertionError("pair --oracle rated the near-far policy on its own")

        monkeypatch.setattr(cli, "pairing_sum_rate", refuse)
        assert _run(capsys, *argv) == expected and expected[0] == 0

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_near_far_row_is_the_oracles_first_row(self, capsys, n):
        # pair sums the user rates in index order and the oracle adds pair
        # sums in pair order; the two floats can differ, the 9-digit row not
        for seed in range(4):
            gains = [repr(g) for g in np.random.default_rng(seed).standard_exponential(n).tolist()]
            for snr_db in ("-10", "10", "40"):
                argv = ["pair", "--gains", *gains, "--snr-db", snr_db]
                code, near_far, _ = _run(capsys, *argv)
                assert code == 0
                _, oracle, _ = _run(capsys, *argv, "--oracle")
                assert near_far == "".join(oracle.splitlines(keepends=True)[:2])

    def test_gains_are_sorted_before_pairing(self, capsys):
        _, shuffled, _ = _run(
            capsys, "pair", "--gains", "5.0", "0.3", "2.0", "0.8", "--snr-db", "10"
        )
        _, ordered, _ = _run(
            capsys, "pair", "--gains", "0.3", "0.8", "2.0", "5.0", "--snr-db", "10"
        )
        assert shuffled == ordered

    def test_odd_gain_count(self, capsys):
        code, _, err = _run(capsys, "pair", "--gains", "1", "2", "3", "--snr-db", "10")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("gains", list(ORACLE_GAINS.values()), ids=list(ORACLE_GAINS))
    def test_oracle_ranking_is_the_sort_by_sum_near_far_and_label(self, capsys, gains):
        # descending sum rate, the near-far policy first among exact ties,
        # then the label; the sums are the batched kernel's, which
        # test_oracle_sums_match_the_two_user_closed_form checks
        values = ChannelGains(np.sort(np.array(gains, dtype=float)))
        snr = TransmitSnr.from_db(10.0)
        near_far = near_far_policy(values.m // 2)
        sums = matching_sums(snr.rho, values.gains, matching_array(values.m))
        scored = sorted(
            zip(sums.tolist(), enumerate_matchings(values.m)),
            key=lambda s: (-s[0], s[1] != near_far, str(s[1])),
        )
        csv_rows = [[str(p), format(v, ".9g")] for v, p in scored]
        json_rows = [{"policy": str(p), "sum_noma": float(format(v, ".9g"))} for v, p in scored]
        argv = ["pair", "--gains", *gains, "--snr-db", "10", "--oracle"]
        _, out, _ = _run(capsys, *argv)
        assert _parse_csv(out)[1] == csv_rows
        _, out, _ = _run(capsys, *argv, "--format", "json")
        assert json.loads(out)["rows"] == json_rows

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_equal_gains_tie_exactly_with_near_far_first(self, capsys, n):
        # every matching sums the same K pair sums, so all tie exactly
        # (TestMatchingSums checks the floats); the near-far policy leads and
        # the rest follow in label byte order
        code, out, _ = _run(capsys, "pair", "--gains", *["1"] * n, "--snr-db", "10", "--oracle")
        assert code == 0
        rows = _parse_csv(out)[1]
        assert len(rows) == len(matching_array(n)) and len({value for _, value in rows}) == 1
        labels = [label for label, _ in rows]
        assert labels[0] == str(near_far_policy(n // 2))
        assert labels[1:] == sorted(labels[1:], key=str.encode)

    @pytest.mark.parametrize("gains", list(ORACLE_GAINS.values()), ids=list(ORACLE_GAINS))
    def test_oracle_sums_match_the_two_user_closed_form(self, gains):
        values = np.sort(np.array(gains, dtype=float))
        rho = TransmitSnr.from_db(10.0).rho
        pairs = matching_array(values.size)
        sums = matching_sums(rho, values, pairs)
        reference = _closed_form_sums(rho, values.tolist(), pairs.tolist())
        assert np.all(np.abs(sums - reference) <= 1e-12 * reference)

    @pytest.mark.parametrize("n", range(2, 13, 2))
    @pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["near-far", "oracle"])
    def test_labels_are_the_text_the_csv_renderer_takes(self, capsys, n, oracle):
        # _render_csv quotes just the cells with a comma, which is csv.writer's
        # quoting only for non-empty text without a quote, CR or LF
        gains = [repr(g) for g in np.random.default_rng(n).standard_exponential(n).tolist()]
        code, out, _ = _run(capsys, "pair", "--gains", *gains, "--snr-db", "10", *oracle)
        assert code == 0
        header, rows = _parse_csv(out)
        assert all(re.fullmatch(r"[0-9(),]+", label) for label, _ in rows)
        table = [[label, float(value)] for label, value in rows]
        assert out == cli._render_csv(header, *zip(*table)) == _row_wise_csv(header, table)

    def test_near_far_label_is_the_policys_text(self, capsys):
        gains = [repr(g) for g in np.random.default_rng(64).standard_exponential(64).tolist()]
        code, out, _ = _run(capsys, "pair", "--gains", *gains, "--snr-db", "10")
        assert code == 0
        _, rows = _parse_csv(out)
        assert [label for label, _ in rows] == [
            ",".join(f"({i},{65 - i})" for i in range(1, 33))
        ]

    @pytest.mark.parametrize("n", [14, cli.MAX_PAIR_USERS + 2])  # past pair's own cap too
    def test_oracle_respects_enumeration_cap(self, capsys, n):
        gains = [str(v) for v in np.linspace(0.1, 2.0, n)]
        code, out, err = _run(capsys, "pair", "--gains", *gains, "--snr-db", "10", "--oracle")
        assert (code, out, err) == (2, "", f"error: enumeration is capped at 12 users, got {n}\n")


def _clear_matching_table(monkeypatch):
    """Swap the one cache `pair --oracle` builds per gain count, the matching
    array, for an empty one, as a fresh process has; monkeypatch puts the
    warm one back."""
    table = functools.cache(pairing._matching_table.__wrapped__)
    monkeypatch.setattr(pairing, "_matching_table", table)


def _kept_by(call):
    """Bytes still allocated after call() returns and garbage is collected."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - held
    finally:
        if not tracing:
            tracemalloc.stop()


class TestOracleColdAndWarm:
    @pytest.mark.parametrize(
        "gains",
        [[repr(g) for g in np.random.default_rng(n).standard_exponential(n).tolist()]
         for n in range(2, 13, 2)] + list(ORACLE_GAINS.values()),
        ids=[f"draw-{n}-users" for n in range(2, 13, 2)] + list(ORACLE_GAINS),
    )
    def test_output_is_the_same_warm_and_cold(self, capsys, monkeypatch, gains):
        argv = ["pair", "--gains", *gains, "--snr-db", "10", "--oracle"]
        warm = _run(capsys, *argv)
        _clear_matching_table(monkeypatch)
        assert _run(capsys, *argv) == warm  # builds the matching array
        assert _run(capsys, *argv) == warm  # reads the one it built

    def test_a_call_keeps_only_the_matching_array(self, capsys, monkeypatch):
        # everything else an oracle call builds, labels and policies
        # included, is freed when it returns
        gains = [repr(g) for g in np.random.default_rng(12).standard_exponential(12).tolist()]
        argv = ["pair", "--gains", *gains, "--snr-db", "10", "--oracle"]
        _clear_matching_table(monkeypatch)
        cold = _kept_by(lambda: _run(capsys, *argv))
        warm = _kept_by(lambda: _run(capsys, *argv))
        assert cold <= matching_array(12).nbytes + 64_000
        assert warm <= 64_000


class TestColumnHandoff:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_row_container_is_alive_at_the_render(self, capsys, monkeypatch, fmt):
        # the oracle's 10,395 rows reach the renderer as two columns: with the
        # collector off, the tracked objects the call has made and still holds
        # when the render starts number far fewer than its rows
        gains = [repr(g) for g in np.random.default_rng(12).standard_exponential(12).tolist()]
        argv = ["pair", "--gains", *gains, "--snr-db", "10", "--oracle", "--format", fmt]
        _run(capsys, *argv)  # builds the matching array
        alive = []
        for name in ("_render_csv", "_render_json"):
            render = getattr(cli, name)

            def counted(*args, render=render, **kwargs):
                alive.append(len(gc.get_objects(0)))
                return render(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            code, _, _ = _run(capsys, *argv)
        finally:
            gc.enable()
        assert code == 0 and len(alive) == 1
        assert alive[0] < 10_395 // 10


def _row_wise_csv(columns, rows):
    """The CSV renderer as it was before it went column-wise."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else format(float(c), ".9g") for c in row])
    return buffer.getvalue()


def _row_wise_json(columns, rows, meta):
    """The JSON renderer as it was before it went column-wise."""
    payload = dict(meta or {})
    payload["columns"] = list(columns)
    payload["rows"] = [
        {
            name: (c if isinstance(c, str) else float(format(float(c), ".9g")))
            for name, c in zip(columns, row)
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _token_cells(tokens, nonempty=False):
    """Cells of up to 4 tokens joined (at least 1 if nonempty), each drawn as
    one integer whose 4 digits in base len(tokens) + 1 pick the tokens, digit
    0 none."""
    base = len(tokens) + 1

    def join(code):
        digits = [code // base**i % base for i in range(4)]
        return "".join(tokens[digit - 1] for digit in digits if digit)

    return st.integers(int(nonempty), base**4 - 1).map(join)


# cells the csv module quotes, doubles or special-cases, plus non-ASCII text
# and the %-template's markers, which a cell must print as is
_STRINGS = _token_cells([",", '"', "\r", "\n", "a", "(1,2)", " ", "é", "→", "%", "%s"])
# the text a CSV table may hold: non-empty, with no quote, CR or LF
_CSV_STRINGS = _token_cells([",", "a", "(1,2)", " ", "é", "→", "%", "%s"], nonempty=True)
_CSV_TEXT = st.text(min_size=1).filter(lambda text: not set(text) & set('"\r\n'))
_REALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -2.5e-7]) | st.floats()
_MAX_ROWS = 5


def _column(cells, n_rows):
    """One draw of a whole column of n_rows cells. A real column is a list of
    floats and one bit mask saying which are np.float64, not Python floats."""
    column = st.lists(cells, min_size=n_rows, max_size=n_rows)
    if cells is not _REALS:
        return column
    return st.tuples(column, st.integers(0, 2**n_rows - 1)).map(
        lambda drawn: [np.float64(v) if drawn[1] >> i & 1 else v for i, v in enumerate(drawn[0])]
    )


def _tables(strings=_STRINGS, text=st.text()):
    """(columns, rows) whose columns are each all strings or all reals. Every
    strategy is built once, not per example, and each string cell and each
    column's types are one draw: hypothesis's cost is per draw."""
    kinds = st.lists(st.sampled_from([strings, text, _REALS]), min_size=1, max_size=4)
    n_rows = st.integers(0, _MAX_ROWS)
    names = strings | st.just("sum_noma")
    headers = {k: st.lists(names, min_size=k, max_size=k) for k in range(1, 5)}
    columns = {
        (kind, n): _column(kind, n) for kind in (strings, text, _REALS) for n in range(_MAX_ROWS + 1)
    }

    @st.composite
    def tables(draw):
        chosen, n = draw(kinds), draw(n_rows)
        cells = [draw(columns[kind, n]) for kind in chosen]
        return draw(headers[len(chosen)]), [list(row) for row in zip(*cells)]

    return tables()


class TestRenderers:
    @given(table=_tables(_CSV_STRINGS, _CSV_TEXT))
    @settings(max_examples=400, deadline=None)
    def test_column_wise_csv_matches_the_row_wise_one(self, table):
        columns, rows = table
        assert cli._render_csv(columns, *zip(*rows)) == _row_wise_csv(columns, rows)

    @given(table=_tables())
    @settings(max_examples=400, deadline=None)
    def test_column_wise_json_matches_the_row_wise_one(self, table):
        columns, rows = table
        meta = {"mode": "two-user-sum"}
        assert cli._render_json(columns, *zip(*rows), meta=meta) == _row_wise_json(columns, rows, meta)

    @pytest.mark.parametrize("cells", [["(1,2)", "x"], ["ünï,côdé"], ["100%", "%s,%.9g"]])
    def test_string_columns_match_the_row_wise_renderer(self, cells):
        for columns in (["policy"], ["policy", "sum_noma"]):
            rows = [[cell, 1.5][: len(columns)] for cell in cells]
            assert cli._render_csv(columns, *zip(*rows)) == _row_wise_csv(columns, rows)


class TestSweep:
    ARGS = [
        "sweep", "--mode", "two-user-sum", "--snr-start", "-10", "--snr-stop", "10",
        "--snr-step", "10", "--trials", "100", "--seed", "7",
    ]

    def test_csv_shape(self, capsys):
        code, out, _ = _run(capsys, *self.ARGS)
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["snr_db", "sum_noma", "sum_oma", "sum_noma_stderr", "sum_oma_stderr"]
        assert [r[0] for r in rows] == ["-10", "0", "10"]
        for row in rows:
            assert float(row[1]) >= float(row[2]) - 1e-9

    def test_default_grid_has_nine_points(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--mode", "two-user-sum", "--trials", "10")
        assert code == 0
        _, rows = _parse_csv(out)
        assert [r[0] for r in rows] == [str(v) for v in range(-10, 31, 5)]

    def test_json_round_trips_csv_values(self, capsys):
        code, csv_out, _ = _run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        code, json_out, _ = _run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        header, rows = _parse_csv(csv_out)
        payload = json.loads(json_out)
        assert payload["columns"] == header
        assert payload["seed"] == 7 and payload["trials"] == 100
        for csv_row, json_row in zip(rows, payload["rows"]):
            for name, cell in zip(header, csv_row):
                assert float(cell) == json_row[name]

    def test_file_output_is_byte_identical_across_reruns(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(self.ARGS + ["--output", str(first)]) == 0
        assert main(self.ARGS + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".partial-")]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o007, 0o660)], ids=["022", "007"])
    def test_file_output_takes_the_mode_of_a_new_file(self, tmp_path, capsys, umask, mode):
        # what open(path, "w") gives a new file, not mkstemp's 0o600
        path = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            code = main(["alloc", "--snr-db", "10", "--g1", "0.5", "--output", str(path)])
        finally:
            os.umask(old)
        capsys.readouterr()
        assert code == 0
        assert path.stat().st_mode & 0o777 == mode

    def test_file_output_follows_a_default_acl(self, tmp_path, capsys):
        # a default ACL of user::rw-, group::r--, other::--- overrides the
        # umask: the xattr is version 2, then (tag, perm, id) per entry
        entries = [(0x01, 6), (0x04, 4), (0x20, 0)]  # user, group and other
        acl = struct.pack("<I", 2) + b"".join(struct.pack("<HHi", t, p, -1) for t, p in entries)
        try:
            os.setxattr(tmp_path, "system.posix_acl_default", acl)
        except (AttributeError, OSError) as exc:
            pytest.skip(f"cannot set a default ACL: {exc}")
        with open(tmp_path / "open.csv", "w"):
            pass
        path = tmp_path / "out.csv"
        code = main(["alloc", "--snr-db", "10", "--g1", "0.5", "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        modes = [p.stat().st_mode & 0o777 for p in (path, tmp_path / "open.csv")]
        assert modes == [0o640, 0o640]

    def test_file_output_changes_no_process_state(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("--output called os.umask or os.chmod")

        path = tmp_path / "out.csv"
        old = os.umask(0o022)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", refuse)
                patch.setattr(os, "chmod", refuse)
                code = main(["alloc", "--snr-db", "10", "--g1", "0.5", "--output", str(path)])
        finally:
            os.umask(old)
        capsys.readouterr()
        assert code == 0
        assert path.stat().st_mode & 0o777 == 0o644

    def test_a_taken_temporary_name_is_left_as_it_was(self, tmp_path, capsys, monkeypatch):
        # the name's random bytes are all zero, and a file already holds it
        monkeypatch.setattr(os, "urandom", bytes)
        taken = tmp_path / f".partial-{bytes(8).hex()}"
        taken.write_text("not this run's\n")
        path = tmp_path / "out.csv"
        code, out, err = _run(capsys, *self.ARGS, "--output", str(path))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: cannot write output file {str(path)!r}: ")
        assert taken.read_text() == "not this run's\n"
        assert sorted(tmp_path.iterdir()) == [taken]

    def test_output_naming_a_directory_leaves_no_partial_file(self, tmp_path, capsys):
        # the temporary file is made beside the target, here in tmp_path
        target = tmp_path / "dir"
        target.mkdir()
        code, out, err = _run(capsys, *self.ARGS, "--output", str(target))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: cannot write output file {str(target)!r}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [target] and not list(target.iterdir())

    def test_unwritable_output_path(self, capsys):
        code, _, err = _run(capsys, *self.ARGS, "--output", "/nonexistent-dir/out.csv")
        assert code == 4
        assert "error" in err

    def test_four_user_mode_orders_cases(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep", "--mode", "four-user-cases", "--snr-start", "0", "--snr-stop", "20",
            "--snr-step", "10", "--trials", "200",
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header[1:4] == ["case1", "case2", "case3"]
        for row in rows:
            assert float(row[1]) <= float(row[2]) + 1e-9 <= float(row[3]) + 2e-9

    def test_mode_and_users_conflict(self, capsys):
        code, _, _ = _run(capsys, "sweep", "--mode", "two-user-sum", "--users", "4")
        assert code == 2

    def test_bad_grid(self, capsys):
        code, _, _ = _run(
            capsys, "sweep", "--mode", "two-user-sum", "--snr-step", "-5", "--trials", "5"
        )
        assert code == 2


class TestPrecedence:
    def test_config_file_supplies_flags(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# comment line\n"
            "mode = two-user-sum\n"
            "trials = 50\n"
            "seed = 3\n"
            "snr-start = 0\n"
            "snr_stop = 10\n"
            "snr_step = 10\n"
        )
        code, out, _ = _run(capsys, "sweep", "--config", str(config))
        assert code == 0
        _, rows = _parse_csv(out)
        assert [r[0] for r in rows] == ["0", "10"]

    def test_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "alloc.cfg"
        config.write_text("g1 = 0.8\nsnr_db = 10\n")
        code, out, _ = _run(capsys, "alloc", "--config", str(config), "--g1", "0.3")
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[0][0] == "0.333333333"

    def test_env_seed_overrides_default(self, capsys, monkeypatch):
        argv = ["sweep", "--mode", "two-user-sum", "--trials", "20",
                "--snr-start", "0", "--snr-stop", "0", "--snr-step", "5",
                "--format", "json"]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        argv = ["sweep", "--mode", "two-user-sum", "--trials", "20",
                "--snr-start", "0", "--snr-stop", "0", "--snr-step", "5",
                "--seed", "9", "--format", "json"]
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_env_seed_beats_config_seed(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "c.cfg"
        config.write_text("seed = 1\n")
        monkeypatch.setenv(cli.SEED_ENV_VAR, "2")
        argv = ["sweep", "--mode", "two-user-sum", "--trials", "20",
                "--snr-start", "0", "--snr-stop", "0", "--snr-step", "5",
                "--config", str(config), "--format", "json"]
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("snr_centre = 10\n")
        code, _, err = _run(capsys, "alloc", "--config", str(config), "--snr-db", "10", "--g1", "1")
        assert code == 2
        assert "snr_centre" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = _run(capsys, "alloc", "--config", "/no/such.cfg", "--snr-db", "10", "--g1", "1")
        assert code == 2

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "zebra")
        code, _, _ = _run(capsys, "sweep", "--mode", "two-user-sum", "--trials", "5")
        assert code == 2

    def test_bad_env_seed_is_reported_before_a_bad_grid(self, capsys, monkeypatch):
        # every option is resolved before the sweep checks its grid
        monkeypatch.setenv(cli.SEED_ENV_VAR, "zebra")
        code, out, err = _run(capsys, "sweep", "--mode", "two-user-sum", "--snr-step", "0")
        assert (code, out, err) == (2, "", f"error: {cli.SEED_ENV_VAR} must be an integer\n")

    def test_missing_mode_is_reported_before_a_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "zebra")
        code, out, err = _run(capsys, "sweep", "--snr-step", "0")
        assert (code, out, err) == (
            2, "", "error: missing required option --mode (flag or config file)\n"
        )


# one command per subcommand that needs nothing more, and a valid config
# value for every option
BASE_ARGV = {
    "alloc": ["alloc", "--snr-db", "10", "--g1", "0.3"],
    "pair": ["pair", "--gains", "0.3", "0.8", "--snr-db", "10"],
    "sweep": ["sweep", "--mode", "two-user-sum", "--snr-stop", "0", "--trials", "5"],
}
VALID_VALUES = {
    "gains": "0.3, 0.8 2.0,5.0",
    "snr_db": "10",
    "g1": "0.3",
    "m": "3",
    "oracle": "yes",
    "mode": "two-user-sum",
    "users": "2",
    "snr_start": "0",
    "snr_stop": "10",
    "snr_step": "5",
    "trials": "5",
    "seed": "3",
    "format": "json",
    "output": "out.txt",
    "config": "other.cfg",
}

# the same command from flags and from a config file: (flag, value) pairs,
# None for a flag without a value
SAME_COMMAND = {
    "alloc": [("snr-db", "10"), ("g1", "0.7"), ("m", "3"), ("format", "json")],
    "pair": [("gains", "0.3 0.8 2.0 5.0"), ("snr-db", "10"), ("oracle", None)],
    "sweep": [("mode", "m-user-group"), ("users", "3"), ("snr-start", "0"), ("snr-stop", "10"),
              ("snr-step", "5"), ("trials", "50"), ("seed", "3"), ("format", "json")],
}


class TestConfigContract:
    """A config file key is its flag: the same subcommands, type and choices."""

    @pytest.mark.parametrize("command", list(BASE_ARGV))
    @pytest.mark.parametrize("key", list(cli._OPTIONS))
    def test_key_is_accepted_by_its_own_subcommands_only(
        self, tmp_path, monkeypatch, capsys, key, command
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(f"# one option\n{key} = {VALID_VALUES[key]}\n")
        code, out, err = _run(capsys, *BASE_ARGV[command], "--config", "c.cfg")
        if command in cli._OPTIONS[key][0] and key != "config":
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert out == ""
            assert err == f"error: c.cfg:2: {command} takes no config key {key!r}\n"

    @pytest.mark.parametrize(
        "command, line",
        [
            ("alloc", "format = xml"),
            ("alloc", "format = JSON"),
            ("sweep", "mode = bogus"),
            ("alloc", "output ="),
            ("pair", "oracle = maybe"),
            ("pair", "gains = ,"),
            ("alloc", "m = 2.5"),
        ],
    )
    def test_bad_value_is_one_error_line(self, tmp_path, monkeypatch, capsys, command, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(f"# one option\n{line}\n")
        code, out, err = _run(capsys, *BASE_ARGV[command], "--config", "c.cfg")
        key = line.split("=")[0].strip()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: c.cfg:2: bad value for {key!r}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "first, repeat",
        [("g1 = 0.3", "g1 = 0.8"), ("snr_db = 10", "SNR-DB = 10"), ("g1 = 0.3", "g1 = 0.3")],
    )
    def test_repeated_key_is_one_error_line(self, tmp_path, monkeypatch, capsys, first, repeat):
        # a later line must not silently override an earlier one, whichever
        # spelling of the key it uses and even when the values agree
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(f"{first}\n# comment\nformat = csv\n{repeat}\n")
        code, out, err = _run(capsys, "alloc", "--snr-db", "10", "--config", "c.cfg")
        key = first.split("=")[0].strip()
        assert (code, out) == (2, "")
        assert err == f"error: c.cfg:4: repeated key {key!r} (first on line 1)\n"

    @pytest.mark.parametrize("command", list(SAME_COMMAND))
    def test_flags_and_config_file_print_the_same(self, tmp_path, capsys, command):
        options = SAME_COMMAND[command]
        argv = [command]
        for flag, value in options:
            argv += [f"--{flag}", *(value.split() if value else [])]
        config = tmp_path / "c.cfg"
        config.write_text("".join(f"{flag} = {value or 'yes'}\n" for flag, value in options))
        code, from_flags, _ = _run(capsys, *argv)
        assert code == 0
        code, from_config, _ = _run(capsys, command, "--config", str(config))
        assert code == 0
        assert from_config == from_flags


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["alloc", "--snr-db", "10", "--g1", "0.3", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("alloc", "--snr-db", "10", "--g1", "0.3", "--m", "abc"),
            ("alloc", "--snr-db", "10", "--g1", "0.3", "--format", "xml"),
            ("alloc", "--snr-db", "10", "--g1", "0.3", "--frobnicate"),
            ("pair", "--gains", "0.3", "0.8", "--snr-db", "10", "--oma-baseline", "network"),
            (),  # no subcommand
        ],
    )
    def test_argparse_error_is_one_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_infeasibility_maps_to_exit_3(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise InfeasibleIntervalError("no feasible split")

        monkeypatch.setattr(cli, "optimal_m_user", explode)
        code, _, err = _run(capsys, "alloc", "--snr-db", "10", "--g1", "0.3")
        assert code == 3
        assert "no feasible split" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("alloc", "--snr-db", "4000", "--g1", "0.3"),
            ("pair", "--gains", "1", "2", "--snr-db", "4000"),
        ],
    )
    def test_overflowing_snr_exits_2(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("alloc", "--snr-db", "-4000", "--g1", "0.3"),
            ("pair", "--gains", "1", "2", "--snr-db", "-4000"),
            ("sweep", "--mode", "two-user-sum", "--snr-start", "-4000", "--snr-stop", "-4000",
             "--trials", "10"),
        ],
    )
    def test_underflowing_snr_is_one_error_line(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: SNR of -4000.0 dB underflows a float\n")

    @pytest.mark.parametrize("flag, value", [("--snr-start", "nan"), ("--snr-stop", "inf")])
    def test_nonfinite_grid_bound_exits_2(self, capsys, flag, value):
        code, out, err = _run(capsys, "sweep", "--mode", "two-user-sum", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--snr-start=-1e308", "--snr-stop=1e308"),  # finite ends, infinite span
            ("--snr-stop", "1e9", "--snr-step", "1e-9"),  # 1e18 points
        ],
    )
    def test_oversized_grid_exits_2(self, capsys, bounds):
        code, out, err = _run(capsys, "sweep", "--mode", "two-user-sum", *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{cli.MAX_GRID_POINTS} points" in err
        assert len(err.splitlines()) == 1

    def test_step_below_the_float_spacing_names_the_step_and_start(self, capsys):
        # at 1e16 dB floats are 2 apart, so steps of 0.5 dB land on one point
        code, out, err = _run(
            capsys, "sweep", "--mode", "two-user-sum", "--snr-start", "1e16",
            "--snr-stop", "1.000000000000001e16", "--snr-step", "0.5",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --snr-step of 0.5 dB") and "--snr-start 1e+16" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "snr_db, m", [("330", "2"), ("990", "3"), ("1960", "4")]
    )
    def test_split_below_float_resolution_exits_2(self, capsys, snr_db, m):
        # the strongest share rounds to 1 from rho*g1 of about 3.2e32, 3.4e97
        # and 1.2e195 at m = 2, 3 and 4
        code, out, err = _run(capsys, "alloc", "--snr-db", snr_db, "--g1", "1", "--m", m)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "rho*g1" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_group_sweep_at_990_db_is_finite(self, capsys):
        code, out, err = _run(
            capsys, "sweep", "--mode", "m-user-group", "--users", "3",
            "--snr-start", "990", "--snr-stop", "990", "--trials", "5",
        )
        assert code == 0 and err == ""
        header, rows = _parse_csv(out)
        row = dict(zip(header, map(float, rows[0])))
        assert all(np.isfinite(v) for v in row.values())
        assert row["sum_noma"] >= row["sum_oma"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", list(sim.MODES))
    def test_sweep_beyond_float_range_is_one_error_line(self, capsys, mode):
        # rho = 1e308 times a drawn gain overflows; refused before any kernel
        code, out, err = _run(
            capsys, "sweep", "--mode", mode, "--snr-start", "3080", "--snr-stop", "3080",
            "--trials", "10",
        )
        assert (code, out, err) == (2, "", "error: rho*g must be positive, finite and normal\n")

    def test_grid_with_an_overflowing_and_a_subnormal_point_names_the_overflow(self, capsys):
        # two faults: at -3100 dB, rho = 1e-310 makes every rho*g subnormal;
        # 3100 dB overflows a float. Every point's rho is built before the
        # sweep's one draw and its rho*g check, so the overflow is reported
        code, out, err = _run(
            capsys, "sweep", "--mode", "two-user-sum", "--snr-start=-3100", "--snr-stop", "3100",
            "--snr-step", "6200", "--trials", "10",
        )
        assert (code, out, err) == (2, "", "error: SNR of 3100.0 dB overflows a float\n")

    def test_oracle_rejects_an_unknown_baseline(self, tmp_path, capsys):
        config = tmp_path / "pair.cfg"
        config.write_text(
            "gains = 0.3 0.8 2.0 5.0\nsnr_db = 10\noracle = true\noma_baseline = half\n"
        )
        code, out, err = _run(capsys, "pair", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "oma_baseline" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "mode, users, trials",
        [
            ("m-user-group", 5, (sim.MAX_SWEEP_GAINS + 1) // 5),  # the cap plus one
            ("two-user-sum", 2, 2**62),
        ],
    )
    def test_work_past_the_gain_cap_exits_2(self, capsys, monkeypatch, mode, users, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep sampled gains past the cap")

        monkeypatch.setattr(sim, "sample_gain_rows", refuse)
        assert users * trials > sim.MAX_SWEEP_GAINS
        code, out, err = _run(
            capsys, "sweep", "--mode", mode, "--users", str(users), "--trials", str(trials)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{sim.MAX_SWEEP_GAINS} gains" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("m", [cli.MAX_GROUP_SIZE + 1, 2**62])
    def test_group_past_the_size_cap_exits_2(self, capsys, monkeypatch, m):
        def refuse(*args, **kwargs):
            raise AssertionError("alloc computed shares past the cap")

        monkeypatch.setattr(allocation, "m_user_shares", refuse)
        code, out, err = _run(capsys, "alloc", "--snr-db", "10", "--g1", "0.3", "--m", str(m))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"exceeds {cli.MAX_GROUP_SIZE} users" in err
        assert len(err.splitlines()) == 1

    def test_group_at_the_size_cap_reaches_the_allocator(self, capsys, monkeypatch):
        sizes = []

        def stop(x, m):
            sizes.append(m)
            raise cli.ValidationError("stopped before allocating")

        monkeypatch.setattr(allocation, "m_user_shares", stop)
        m = str(cli.MAX_GROUP_SIZE)
        code, _, err = _run(capsys, "alloc", "--snr-db", "10", "--g1", "0.3", "--m", m)
        assert (code, err, sizes) == (2, "error: stopped before allocating\n", [cli.MAX_GROUP_SIZE])

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_pair_beyond_float_range_is_one_error_line(self, capsys, oracle):
        code, out, err = _run(
            capsys, "pair", "--gains", "1e-10", "1e-10", "1e306", "1e306", "--snr-db", "30",
            *oracle,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "rho*g" in err
        assert len(err.splitlines()) == 1

    def test_pair_past_the_user_cap_exits_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair checked gains past the cap")

        monkeypatch.setattr(cli, "ChannelGains", refuse)
        gains = [str(v) for v in range(1, cli.MAX_PAIR_USERS + 3)]
        code, out, err = _run(capsys, "pair", "--gains", *gains, "--snr-db", "10")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --gains of {cli.MAX_PAIR_USERS + 2} values exceeds "
            f"{cli.MAX_PAIR_USERS} users\n"
        )

    def test_pair_at_the_user_cap_is_one_near_far_row(self, capsys):
        n = cli.MAX_PAIR_USERS
        code, out, err = _run(capsys, "pair", "--gains", *map(str, range(1, n + 1)), "--snr-db", "10")
        assert (code, err) == (0, "")
        header, rows = _parse_csv(out)
        report = pairing_sum_rate(
            ChannelGains(np.arange(1.0, n + 1)), near_far_policy(n // 2), TransmitSnr(10.0)
        )
        assert header == ["policy", "sum_noma"]
        assert rows == [[str(near_far_policy(n // 2)), format(report.noma_sum, ".9g")]]

    def test_config_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"mode = two-user-sum\n\xff = 3\n")
        code, out, err = _run(capsys, "sweep", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {str(config)!r}: ")
        assert "can't decode byte 0xff" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_config_is_read_up_to_its_byte_cap(self, tmp_path, capsys, extra, code):
        # a valid config padded by a comment to the cap, or one byte past it
        text = b"mode = two-user-sum\ntrials = 5\nsnr_stop = 0\n# "
        config = tmp_path / "big.cfg"
        config.write_bytes(text.ljust(cli.MAX_CONFIG_BYTES + extra, b"x"))
        got, out, err = _run(capsys, "sweep", "--config", str(config))
        assert got == code
        if code:
            assert out == ""
            assert err == (f"error: config file {str(config)!r} exceeds "
                           f"{cli.MAX_CONFIG_BYTES} bytes\n")
        else:
            assert err == "" and out.startswith("snr_db,")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ("alloc", "--snr-db", "10", "--g1", "1e-320", "--m", "3"),
            ("alloc", "--snr-db", "0", "--g1", "5e-324", "--m", "3"),
            ("pair", "--gains", "5e-324", "1e-320", "1", "2", "--snr-db", "0"),
        ],
    )
    def test_subnormal_received_snr_is_one_error_line(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "positive, finite and normal" in err
        assert len(err.splitlines()) == 1

    def test_grid_at_the_point_cap_is_accepted(self):
        grid = cli._snr_grid(0.0, cli.MAX_GRID_POINTS - 1.0, 1.0)
        assert len(grid) == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ValidationError):
            cli._snr_grid(0.0, float(cli.MAX_GRID_POINTS), 1.0)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uplink_noma", "alloc", "--snr-db", "10", "--g1", "0.8"],
            capture_output=True,
            text=True,
            check=False,
            env={**os.environ},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("0.25,0.75,")


# option -> (valid values, junk values) its flag or config key may be given.
# A sweep's trials and grid stay small or go past their caps, and --m goes
# only past its cap, so no example builds much work before it is refused.
# "{tmp}" is the example's own directory.
FUZZ_VALUES = {
    "gains": (["0.3 0.8", "0.3 0.8 2 5", "1 1 2 2 3 3 4 4"],
              ["0.3", "1 2 3", "-1 2", "0 1", "nan 1", "inf 1", "1e306 1e-10", "5e-324 1", "x 1"]),
    "snr_db": (["10", "0", "-30"], ["4000", "-4000", "nan", "inf", "x"]),
    "g1": (["0.3", "1", "7.5"], ["1e-320", "0", "-1", "inf", "x"]),
    "m": (["2", "3", "8"], ["1", "0", "-2", "2.5", str(cli.MAX_GROUP_SIZE + 1), str(2**62), "x"]),
    "oracle": (["yes", "no", "1", "off"], ["maybe", "2"]),
    "mode": (list(sim.MODES), ["bogus", "TWO-USER-SUM"]),
    "users": (["2", "4", "8"], ["3", "1", "0", "-2", "x", str(2**62)]),
    "snr_start": (["-10", "0", "10"], ["-1e308", "nan", "x"]),
    "snr_stop": (["0", "10", "30"], ["1e308", "-inf", "x"]),
    "snr_step": (["5", "10"], ["0", "-5", "1e-9", "inf", "x"]),
    "trials": (["1", "5", "20"],
               ["0", "-1", "2.5", "x", str(2**62), str(sim.MAX_SWEEP_GAINS + 1)]),
    "seed": (["0", "3", str(2**64 - 1)], ["-1", str(2**64), "x"]),
    "format": (["csv", "json"], ["xml", "JSON"]),
    "output": (["{tmp}/out.txt"], ["{tmp}/no/such/dir/out.txt", "{tmp}"]),
    "config": (["{tmp}/c.cfg"], ["{tmp}/missing.cfg", "{tmp}"]),
}
FUZZ_ENV_SEEDS = ([None, "", "3", " 7 "], ["-1", "1.5", "zebra"])


@st.composite
def _invocations(draw):
    """(argv, config file text, UPLINK_NOMA_SEED or None). Each option comes
    from no source, its flag, the config file or both, with a valid value,
    plus up to two faults: a junk value, a missing required option, another
    subcommand's option, a repeated or unknown config key, a bad seed variable."""
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    own = [key for key, option in cli._OPTIONS.items() if command in option[0]]
    kinds = own + ["missing", "foreign", "repeat", "unknown", "env"]
    faults = draw(st.sets(st.sampled_from(kinds), max_size=2))
    argv, lines = [command], []

    def give(key, where, value):
        if where == "config":
            lines.append(f"{draw(st.sampled_from([key, key.replace('_', '-')]))} = {value}")
        elif key == "gains":
            argv.extend(["--gains", *value.split()])
        else:
            argv.append("--oracle" if key == "oracle" else f"--{key.replace('_', '-')}={value}")

    for key in own:
        sources = ["none", "flag", "config", "both"]
        if key in faults:
            sources = sources[1:]
        elif key == "config":
            sources = ["none", "flag"]  # a config file cannot name one
        elif cli._OPTIONS[key][1] is cli.REQUIRED and "missing" not in faults:
            sources = sources[1:]
        source = draw(st.sampled_from(sources))
        for where in ("flag", "config"):
            if source in (where, "both"):
                give(key, where, draw(st.sampled_from(FUZZ_VALUES[key][key in faults])))
    if "foreign" in faults:
        key = draw(st.sampled_from([key for key in cli._OPTIONS if key not in own]))
        give(key, draw(st.sampled_from(["flag", "config"])), FUZZ_VALUES[key][0][0])
    if command == "sweep" and not any(arg.startswith("--trials") for arg in argv):
        if not any(line.startswith("trials") for line in lines):
            argv.append("--trials=5")  # the default 10^4 draws per point would be slow here
    if "repeat" in faults and lines:
        lines.append(lines[0])
    if "unknown" in faults:
        lines.append(draw(st.sampled_from(["snr_centre = 1", "no equals sign"])))
    if lines and not any(arg.startswith("--config") for arg in argv):
        argv.append("--config={tmp}/c.cfg")
    env_seed = draw(st.sampled_from(FUZZ_ENV_SEEDS["env" in faults]))
    return argv, "".join(f"{line}\n" for line in draw(st.permutations(lines))), env_seed


class TestFuzz:
    """Any mix of flags, config file and environment ends in exit 0, or in
    exit 2, 3 or 4 with exactly one `error:` line and nothing on stdout."""

    def test_every_option_is_fuzzed(self):
        assert list(FUZZ_VALUES) == list(cli._OPTIONS)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_invocations())
    def test_exit_code_and_one_error_line(self, invocation):
        argv, config, env_seed = invocation
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "c.cfg"), "w", encoding="utf-8") as handle:
                handle.write(config.replace("{tmp}", tmp))
            saved = os.environ.pop(cli.SEED_ENV_VAR, None)
            if env_seed is not None:
                os.environ[cli.SEED_ENV_VAR] = env_seed
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main([arg.replace("{tmp}", tmp) for arg in argv])
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.environ.pop(cli.SEED_ENV_VAR, None)
                if saved is not None:
                    os.environ[cli.SEED_ENV_VAR] = saved
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
