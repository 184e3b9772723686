"""Write a bench record: perfbench runs of a parent tree and a head tree.

    python3 tools/bench_record.py BENCH_<pr>.json PARENT_DIR HEAD_DIR

Each directory is a checkout holding `src/` and `perfbench/`. For `--trace`
0 and then 1, the parent and the head each run
`perfbench/run.py --workload all --seed 1 --seconds 35`, alternately, one
at a time. The record keeps each run's summary, perfbench's last stdout
line, and from each workload's `.perfbench_out` record the commit, the
Python and numpy versions, `nproc` and `calibration_s`, the calibration
kernel's times (null in a traced run, which does not calibrate).
"""

import json
import subprocess
import sys
from pathlib import Path

SEED, SECONDS = 1, 35
COPIED = ("commit", "python", "numpy", "nproc", "calibration_s")


def run(tree: Path, trace: int) -> dict:
    argv = ["perfbench/run.py", "--workload", "all", "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=tree, stdout=subprocess.PIPE,
                          text=True, check=True)
    summary = json.loads(done.stdout.splitlines()[-1])
    workloads = sorted({name.split(".", 1)[0] for name in summary["metrics"]})
    records = {}
    for name in workloads:
        path = tree / ".perfbench_out" / f"record-{name}-seed{SEED}-trace{trace}.json"
        record = json.loads(path.read_text())
        records[name] = {key: record.get(key) for key in COPIED}
    return {"argv": argv, "trace": trace, "summary": summary, "records": records}


def main(out: str, parent: str, head: str) -> int:
    trees = {"parent": Path(parent).resolve(), "head": Path(head).resolve()}
    runs = [{"tree": label, **run(tree, trace)}
            for trace in (0, 1) for label, tree in trees.items()]
    Path(out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
