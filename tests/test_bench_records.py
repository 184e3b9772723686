"""The committed bench records, `BENCH_*.json` at the repo root, written by
`tools/bench_record.py`: each parses, every run in it was correct, and each
keeps what a record needs for every workload of `BENCHMARK.json`."""

import json
from pathlib import Path

import pytest

# from this file, not the working directory or the imported package, so a
# run of the suite against an installed package still finds the records
ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
# the metrics a run at --trace 0 and at --trace 1 reports for each workload
METRICS = {0: [metric["name"] for metric in BENCHMARK["end_to_end"]],
           1: [metric["name"] for metric in BENCHMARK["per_layer"]]}
COPIED = {"commit", "python", "numpy", "nproc", "calibration_s"}


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_every_run_is_correct_and_keeps_its_fields(path):
    runs = json.loads(path.read_text())["runs"]
    assert {(run["tree"], run["trace"]) for run in runs} == {
        (tree, trace) for tree in ("parent", "head") for trace in (0, 1)
    }
    for run in runs:
        summary = run["summary"]
        assert summary["correct"] is True
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert {f"{name}.{metric}" for name in WORKLOADS for metric in METRICS[run["trace"]]} \
            <= set(summary["metrics"])
        assert set(run["records"]) == WORKLOADS
        for fields in run["records"].values():
            assert set(fields) == COPIED
            assert isinstance(fields["commit"], str) and fields["commit"]
            assert isinstance(fields["nproc"], int) and fields["nproc"] >= 1
            if run["trace"] == 0:  # the calibration kernel's times; a traced run has none
                assert fields["calibration_s"] and min(fields["calibration_s"]) > 0
