"""Benchmark of the uplink-noma command line, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in its
own process. Load is a closed loop with one client: each operation is one
`uplink_noma.cli.main(argv)` call writing its output with --output into
.perfbench_out/, and starts when the previous one has finished. Every
output is checked. With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it spends half its time untraced and half under the layer
tracer, and reports the per-layer metrics. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Each run
also writes a record of versions, inputs, sample counts and output digests
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
MIN_OPS = 3

PER_LAYER_UNITS = {
    "channel.calls": "count", "channel.gains": "count", "channel.self_s": "s",
    "validate.calls": "count", "validate.self_s": "s",
    "allocation.calls": "count", "allocation.vectors": "count",
    "allocation.renormalized": "count", "allocation.self_s": "s",
    "model.calls": "count", "model.self_s": "s",
    "pairing.calls": "count", "pairing.matchings": "count", "pairing.self_s": "s",
    "sim.points": "count", "sim.trials": "count", "sim.self_s": "s",
    "cli.self_s": "s", "cli.render_s": "s", "cli.emit_s": "s",
    "cli.rows_out": "count", "cli.bytes_out": "bytes",
    "trace.op_s.p50": "s", "trace.overhead_s": "s",
}
SELF_TIMES = [f"{layer}.self_s" for layer in tracing.LAYERS]


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "uplink_noma" / "cli.py").is_file():
        raise BenchError(f"no uplink_noma sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import uplink_noma
    from uplink_noma import allocation, channel, cli, model, pairing, sim

    if Path(uplink_noma.__file__).resolve().parent != SRC / "uplink_noma":
        raise BenchError(f"uplink_noma was imported from {uplink_noma.__file__}")
    return uplink_noma, cli, (model, allocation, pairing, channel, sim, cli)


@dataclass
class Op:
    index: int
    started: float
    seconds: float
    exit_code: int
    sha256: str = ""
    traced: bool = False
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_op(main, workload, seed: int, index: int, output: Path, reference) -> Op:
    """One timed CLI call; its output is checked after the clock stops."""
    argv = workload.argv(seed, index, str(output))
    output.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    try:
        exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        exit_code = -1
    op = Op(index, start, time.perf_counter() - start, exit_code)
    if not output.is_file():
        op.problems.append("no output file")
        return op
    data = output.read_bytes()
    op.sha256 = hashlib.sha256(data).hexdigest()
    try:
        op.problems += workload.check(data.decode("utf-8"), seed, index, reference)
    except Exception as exc:  # a corrupt output is a failed op, not a crashed benchmark
        op.problems.append(f"unreadable output: {exc!r}")
    return op


def closed_loop(main, workload, seed: int, seconds: float, output: Path, reference,
                max_ops: int | None = None):
    """Yield ops one after another until the next would likely end past `seconds`.

    The clock includes the checks between ops, so a run's length stays
    near `seconds` however cheap the ops become.
    """
    start = time.perf_counter()
    count = 0
    while max_ops is None or count < max_ops:
        elapsed = time.perf_counter() - start
        if count >= MIN_OPS and elapsed * (count + 1) / count > seconds:
            return
        yield run_op(main, workload, seed, count, output, reference)
        count += 1


def failed_frac(ops) -> float:
    return sum(op.failed for op in ops) / len(ops)


def percentile_note(times) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"n={n}, p{p:g}={np.percentile(times, p):.6g} s"
    return f"n={n}, no percentile has 10 samples beyond it"


def setup_seconds() -> list:
    """Import time of uplink_noma.cli in fresh processes; the first warms the disk cache."""
    code = ("import time; t = time.perf_counter(); import uplink_noma.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times[1:]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def environment(package) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "uplink_noma": getattr(package, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, workload, seed: int, seconds: float, output: Path, reference) -> tuple:
    """(ops, metrics, report lines, record fields) of an untraced, calibrated run."""
    with calibration.Calibration() as cal:
        cal.sample()
        setup_started = time.perf_counter()
        setup = setup_seconds()
        cal.sample()
        ops = []
        for op in closed_loop(cli.main, workload, seed, seconds, output, reference):
            ops.append(op)
            if cal.due():
                cal.sample()
        if cal.at[-1] < ops[-1].started:
            cal.sample()
    times = [op.seconds * cal.scale(op.started) for op in ops]
    metrics = {
        "op_s.p50": metric(statistics.median(times), "s"),
        "work_per_s": metric(len(ops) * workload.work_per_op / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setup) * cal.scale(setup_started), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"op_s.p50 {metrics['op_s.p50']['value']:.6g} s ({percentile_note(times)}; "
        f"raw wall p50 {statistics.median(op.seconds for op in ops):.6g} s)",
        f"{workload.work_unit}_per_s {metrics['work_per_s']['value']:.6g} "
        f"{workload.work_unit}/s ({workload.work_per_op} per op)",
        f"setup_s {metrics['setup_s']['value']:.6g} s (median of {len(setup)} fresh imports; "
        f"raw {statistics.median(setup):.6g} s)",
        f"peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB",
        f"calibration p50 {statistics.median(cal.seconds):.6g} s over {len(cal.seconds)} "
        f"samples (reference {calibration.REFERENCE_S} s)",
    ]
    return ops, metrics, lines, {"setup_s": setup, "calibration_s": cal.seconds}


def per_layer(package, modules, cli, workload, seed: int, seconds: float, output: Path,
              reference) -> tuple:
    """(ops, metrics, report lines, record fields) of a run half untraced, half traced."""
    plain = list(closed_loop(cli.main, workload, seed, seconds / 2, output, reference))
    traced, samples = [], []
    with tracing.LayerTracer(package, modules) as tracer:
        # traced op i has the inputs of untraced op i, so their outputs must match
        for op in closed_loop(cli.main, workload, seed, seconds / 2, output, reference,
                              max_ops=len(plain)):
            op.traced = True
            traced.append(op)
            samples.append(tracer.take())
    layers = [sample["layers"] for sample in samples]
    for op, layer in zip(traced, layers):
        if op.sha256 != plain[op.index].sha256:
            op.problems.append("traced output differs from the untraced one")
        attributed = sum(layer[name] for name in SELF_TIMES)
        if abs(attributed - op.seconds) > 0.01 * op.seconds + 0.001:
            op.problems.append(f"layer self times sum to {attributed:.4f} s "
                               f"of the traced {op.seconds:.4f} s")
    values = {name: statistics.median(layer.get(name, 0) for layer in layers)
              for name in PER_LAYER_UNITS}
    values["trace.op_s.p50"] = statistics.median(op.seconds for op in traced)
    values["trace.overhead_s"] = (values["trace.op_s.p50"]
                                  - statistics.median(op.seconds for op in plain))
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    lines = [f"{name:<18} {values[name]:10.4f} s  {values[name] / values['trace.op_s.p50']:6.1%} "
             f"of the traced op" for name in SELF_TIMES]
    lines += [f"{name:<18} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
              if name not in SELF_TIMES]
    return plain + traced, metrics, lines, {"functions_op0": samples[0]["functions"]}


def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    package, cli, modules = load_program()
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    output = out_dir / f"output.{workload.fmt}"
    reference = workload.reference()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "argv_op0": workload.argv(seed, 0, str(output.relative_to(ROOT))),
              **environment(package)}
    # one CPU for the ops and, by inheritance, the calibration kernel: the
    # kernel tracks the speed of the CPU it runs on, and the two CPUs differ
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if trace:
        ops, metrics, lines, extra = per_layer(package, modules, cli, workload, seed, seconds,
                                               output, reference)
    else:
        ops, metrics, lines, extra = end_to_end(cli, workload, seed, seconds, output, reference)

    failed = sum(op.failed for op in ops)
    record.update(extra, ops=[vars(op) for op in ops], attempted=len(ops), failed=failed,
                  failed_frac=failed_frac(ops), metrics=metrics)
    record_path = OUT / f"record-{workload.name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload.name} seed={seed} python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} commit={record['commit']}")
    for line in lines:
        print("  " + line)
    print(f"  failed_frac {record['failed_frac']:.6g} ({failed} of {len(ops)} ops failed)")
    print(f"  sha256 op0 {ops[0].sha256} ({len({op.sha256 for op in ops})} distinct outputs)")
    for op in ops:
        for problem in op.problems:
            print(f"  op {op.index}{' traced' if op.traced else ''} exit {op.exit_code}: {problem}")
    print(f"  record {record_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def bench_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = bench_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
