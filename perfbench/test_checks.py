"""Tests of the benchmark's own output checks and failure counting.

    python3 -m pytest perfbench/test_checks.py

Each check must pass a real CLI output and reject a corrupted one, and a
rejected output or a nonzero exit code must count as a failed operation.
Small variants of the workloads keep the tests fast.
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import PairOracleWorkload, SweepWorkload  # noqa: E402

PACKAGE, CLI, MODULES = run.load_program()

RATES = SweepWorkload("rates", "two-user-rates", 2, grid=(-10.0, 30.0, 10.0), trials=400)
GROUP = SweepWorkload("group", "m-user-group", 8, fmt="json", grid=(0.0, 20.0, 10.0), trials=300)
PAIR = PairOracleWorkload("pair", users=8)
SEED = 3


@pytest.fixture(scope="module")
def references():
    return {w.name: w.reference() for w in (RATES, GROUP, PAIR)}


def corrupting(edit):
    """A CLI main whose output file is rewritten by `edit(text) -> text`."""

    def main(argv):
        code = CLI.main(argv)
        path = Path(argv[-1])
        path.write_text(edit(path.read_text()))
        return code

    return main


def edit_csv(edit_rows):
    def edit(text):
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        edit_rows(header, body)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + body)
        return out.getvalue()

    return edit


def shift_columns(names, by_stderr_of, sigmas=10.0):
    """Shift `names` at the second grid point by `sigmas` times the summed stderrs."""

    def edit_rows(header, body):
        row = body[1]
        step = sigmas * sum(float(row[header.index(n)]) for n in by_stderr_of)
        for name in names:
            row[header.index(name)] = format(float(row[header.index(name)]) + step, ".9g")

    return edit_csv(edit_rows)


def run_one(main, workload, references, tmp_path):
    return run.run_op(main, workload, SEED, 0, tmp_path / "out", references[workload.name])


@pytest.mark.parametrize("workload", [RATES, GROUP, PAIR], ids=lambda w: w.name)
def test_real_output_passes(workload, references, tmp_path):
    op = run_one(CLI.main, workload, references, tmp_path)
    assert op.exit_code == 0 and op.problems == [] and not op.failed


def test_sweep_mean_shifted_by_10_stderr_fails(references, tmp_path):
    # R1 moves with its NOMA twin so that only the exact-mean check can object
    main = corrupting(shift_columns(["R1_noma", "R1_oma"], ["R1_oma_stderr", "R2_oma_stderr"]))
    op = run_one(main, RATES, references, tmp_path)
    assert op.failed and any("stderr from its exact value" in p for p in op.problems)


def test_sweep_noma_identities_checked(references, tmp_path):
    def swap_r2(header, body):
        row = body[2]
        i, j = header.index("R2_noma"), header.index("R2_oma")
        row[i], row[j] = row[j], row[i]

    op = run_one(corrupting(edit_csv(swap_r2)), RATES, references, tmp_path)
    assert any("R2_noma does not exceed" in p for p in op.problems)
    op = run_one(corrupting(shift_columns(["R1_noma"], ["R1_noma_stderr"], 0.01)),
                 RATES, references, tmp_path)
    assert any("R1_noma differs" in p for p in op.problems)


def test_group_json_checks(references, tmp_path):
    def shift_oma(text):
        payload = json.loads(text)
        row = payload["rows"][1]
        step = 10.0 * row["sum_oma_stderr"]
        row["sum_oma"] += step
        row["sum_noma"] += step
        return json.dumps(payload)

    op = run_one(corrupting(shift_oma), GROUP, references, tmp_path)
    assert any("stderr from its exact value" in p for p in op.problems)

    def noma_below_oma(text):
        payload = json.loads(text)
        row = payload["rows"][0]
        row["sum_noma"], row["sum_oma"] = row["sum_oma"], row["sum_noma"]
        return json.dumps(payload)

    op = run_one(corrupting(noma_below_oma), GROUP, references, tmp_path)
    assert any("sum_noma falls below" in p for p in op.problems)

    def wrong_seed(text):
        payload = json.loads(text)
        payload["seed"] += 1
        return json.dumps(payload)

    op = run_one(corrupting(wrong_seed), GROUP, references, tmp_path)
    assert any("metadata" in p for p in op.problems)


def test_pair_swapped_rows_fail(references, tmp_path):
    def swap(i, j):
        def edit_rows(header, body):
            body[i], body[j] = body[j], body[i]

        return edit_csv(edit_rows)

    op = run_one(corrupting(swap(5, 40)), PAIR, references, tmp_path)
    assert any("not sorted" in p for p in op.problems)
    op = run_one(corrupting(swap(0, 1)), PAIR, references, tmp_path)
    assert any("near-far" in p for p in op.problems)


def test_pair_value_off_in_ninth_digit_fails(references, tmp_path):
    def nudge(header, body):
        value = float(body[-1][1])
        body[-1][1] = format(value * (1.0 - 3e-8), ".9g")

    op = run_one(corrupting(edit_csv(nudge)), PAIR, references, tmp_path)
    assert any("differ from the recomputation" in p for p in op.problems)


def test_truncated_output_fails(references, tmp_path):
    op = run_one(corrupting(lambda text: text[: len(text) // 2]), GROUP, references, tmp_path)
    assert op.failed and op.problems


def test_nonzero_exit_and_bad_output_count_as_failed(references, tmp_path):
    def exit_3(argv):
        return 3

    def exit_2_after_writing(argv):
        CLI.main(argv)
        raise SystemExit(2)

    mains = iter([CLI.main, exit_3, exit_2_after_writing, corrupting(lambda t: t + "junk\n")])
    ops = list(run.closed_loop(lambda argv: next(mains)(argv), RATES, SEED, 1e9,
                               tmp_path / "out", references["rates"], max_ops=4))
    assert [op.exit_code for op in ops] == [0, 3, 2, 0]
    assert [op.failed for op in ops] == [False, True, True, True]
    assert ops[1].problems == ["no output file"]
    assert run.failed_frac(ops) == 0.75


def test_tracer_changes_no_output_and_accounts_for_all_time(references, tmp_path):
    plain = run_one(CLI.main, PAIR, references, tmp_path)
    original = CLI.pairing_sum_rate
    with LayerTracer(PACKAGE, MODULES) as tracer:
        traced = run_one(CLI.main, PAIR, references, tmp_path)
        layers = tracer.take()["layers"]
    assert CLI.pairing_sum_rate is original
    assert traced.sha256 == plain.sha256 and not traced.failed
    assert layers["pairing.matchings"] == PAIR.work_per_op == layers["cli.rows_out"]
    assert layers["channel.calls"] == 0 and layers["validate.calls"] > 0
    attributed = sum(layers[name] for name in run.SELF_TIMES)
    assert attributed == pytest.approx(traced.seconds, rel=0.01, abs=0.001)
