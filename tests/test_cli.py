"""CLI tests: output formats, precedence, exit codes, atomic writes."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uplink_noma.cli as cli
import uplink_noma.sim as sim
from uplink_noma import (
    ChannelGains,
    TransmitSnr,
    enumerate_matchings,
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

    @pytest.mark.parametrize(
        "gains",
        [
            ["1"] * 12,
            "1 1 2 2 3 3 4 4".split(),
            ["1"] * 6,
            *([repr(g) for g in np.random.default_rng(seed).standard_exponential(12).tolist()]
              for seed in (3, 4, 5)),
        ],
        ids=["12-equal", "equal-pairs", "6-equal", "draw-3", "draw-4", "draw-5"],
    )
    def test_oracle_ranking_is_the_sort_by_sum_near_far_and_label(self, capsys, gains):
        # descending sum rate, the near-far policy first among exact ties,
        # then the label, recomputed one policy at a time
        values = ChannelGains(np.sort(np.array(gains, dtype=float)))
        snr = TransmitSnr.from_db(10.0)
        near_far = near_far_policy(values.m // 2)
        policies = enumerate_matchings(values.m)
        scored = sorted(
            ((pairing_sum_rate(values, p, snr).noma_sum, p) for p in policies),
            key=lambda s: (-s[0], s[1] != near_far, str(s[1])),
        )
        csv_rows = [[str(p), format(v, ".9g")] for v, p in scored]
        json_rows = [{"policy": str(p), "sum_noma": float(format(v, ".9g"))} for v, p in scored]
        for baseline in ("pair", "network"):
            argv = ["pair", "--gains", *gains, "--snr-db", "10", "--oracle",
                    "--oma-baseline", baseline]
            _, out, _ = _run(capsys, *argv)
            assert _parse_csv(out)[1] == csv_rows
            _, out, _ = _run(capsys, *argv, "--format", "json")
            assert json.loads(out)["rows"] == json_rows

    def test_oracle_respects_enumeration_cap(self, capsys):
        gains = [str(v) for v in np.linspace(0.1, 2.0, 14)]
        code, _, _ = _run(capsys, "pair", "--gains", *gains, "--snr-db", "10", "--oracle")
        assert code == 2


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


# cells the csv module quotes, doubles or special-cases, plus non-ASCII text
_STRINGS = st.lists(
    st.sampled_from([",", '"', "\r", "\n", "a", "(1,2)", " ", "é", "→"]), max_size=4
).map("".join)
_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -2.5e-7]),
    st.floats(),
).flatmap(lambda v: st.sampled_from([v, np.float64(v)]))


@st.composite
def _tables(draw):
    """(columns, rows) whose columns are each all strings or all reals."""
    kinds = draw(st.lists(st.sampled_from([_STRINGS, st.text(), _REALS]), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 5))
    names = _STRINGS | st.just("sum_noma")
    columns = draw(st.lists(names, min_size=len(kinds), max_size=len(kinds)))
    cells = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return columns, [list(row) for row in zip(*cells)]


class TestRenderers:
    @given(table=_tables())
    @settings(max_examples=400, deadline=None)
    def test_column_wise_renderers_match_the_row_wise_ones(self, table):
        columns, rows = table
        assert cli._render_csv(columns, rows) == _row_wise_csv(columns, rows)
        meta = {"mode": "two-user-sum"}
        assert cli._render_json(columns, rows, meta) == _row_wise_json(columns, rows, meta)

    @pytest.mark.parametrize(
        "cells", [["(1,2)", "x"], ['say "hi"'], ["a\rb"], ["a\nb"], ["", "b"], ["ünï,côdé"]]
    )
    def test_string_columns_match_the_row_wise_renderer(self, cells):
        for columns in (["policy"], ["policy", "sum_noma"]):
            rows = [[cell, 1.5][: len(columns)] for cell in cells]
            assert cli._render_csv(columns, rows) == _row_wise_csv(columns, rows)


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


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["alloc", "--snr-db", "10", "--g1", "0.3", "--frobnicate"])
        assert exc.value.code == 2

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
            ("m-user-group", 5, (sim.MAX_GAINS_PER_POINT + 1) // 5),  # the cap plus one
            ("two-user-sum", 2, 2**62),
        ],
    )
    def test_work_past_the_gain_cap_exits_2(self, capsys, monkeypatch, mode, users, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep sampled gains past the cap")

        monkeypatch.setattr(sim, "sample_gain_rows", refuse)
        assert users * trials > sim.MAX_GAINS_PER_POINT
        code, out, err = _run(
            capsys, "sweep", "--mode", mode, "--users", str(users), "--trials", str(trials)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{sim.MAX_GAINS_PER_POINT} gains" in err
        assert len(err.splitlines()) == 1

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
