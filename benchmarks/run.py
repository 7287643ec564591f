"""The taskcodes benchmark: fixed CLI workloads, checked against stored outputs.

    python3 benchmarks/run.py --workload sweep_iid --seed 1 --seconds 35 --trace 0

One closed-loop client runs one job at a time, each job in a fresh
interpreter (benchmarks/job.py) with BLAS/OpenMP threads pinned to 1 and the
benchmark pinned to one CPU.  An untimed warm-up job fills the bytecode cache
first.  Jobs repeat until the next one would overrun --seconds (at least
MIN_JOBS).  Every job's stdout and exit codes are compared with
benchmarks/reference.json and every moment report row must satisfy
lower <= moment <= upper and N <= M.

Times are scaled to a reference machine speed.  Fixed calibration work runs
before each job and after the last, and every time is multiplied by
(CALIBRATION_REF_S / median calibration time) ** CALIBRATION_EXPONENT.  On a
shared 2-core VM the CPU's speed drifts by up to 1.6x over minutes, and the
scaling takes most of that drift out of the run-to-run spread.  The exponent
is the least-squares slope of log(job median) on log(calibration median)
over ten 35 s runs per workload: 0.69 (sweep_iid), 0.66 (sweep_mismatch) and
0.73 (exact_paths); the calibration swings more than the jobs do.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a run whose jobs are traced (benchmarks/tracer.py); the spans are written to
benchmarks/_run/.  The last stdout line is one JSON object.

    python3 benchmarks/run.py --write-reference

regenerates the stored outputs from the program as it stands.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import SIZES, VARIANTS, WORKLOADS, call_key, job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RUN_DIR = BENCH / "_run"
MIN_JOBS = 3
JOB_TIMEOUT_S = 60
CALIBRATION_REF_S = 0.2
CALIBRATION_EXPONENT = 0.7
REPORT_HEADER = "n,R,rho,M,N,moment,lower,upper,m_tilde,delta"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TASKCODES_CAP", None)  # the exit-3 call relies on the default cap
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Calibration:
    """Fixed work timed between jobs to follow the machine's speed: a
    pure-Python keyed sort and dict build, like the encoder's hot path, plus
    a random gather and a streaming pass over 32 MB arrays, like its
    memory traffic."""

    def __init__(self) -> None:
        self.perm = np.random.default_rng(0).permutation(1 << 22)
        self.gathered = np.empty_like(self.perm)
        self.stream = np.ones(1 << 22)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        xs = [((i * 7919) % 10007) / 10007.0 for i in range(100_000)]
        order = sorted(range(len(xs)), key=lambda i: (xs[i], i))
        rank = {x: r for r, x in enumerate(order)}
        np.take(self.perm, self.perm, out=self.gathered)
        for _ in range(4):
            np.multiply(self.stream, -1.0, out=self.stream)
        elapsed = time.perf_counter() - t0
        del xs, order, rank
        return elapsed


def run_job(calls: list[list[str]], cwd: Path, trace: bool) -> tuple[float, dict | None, str]:
    """Run one job in a fresh interpreter: (wall seconds, result, error)."""
    spec = json.dumps({"src": str(SRC), "calls": calls, "trace": trace})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "job.py")], cwd=cwd,
                            env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(spec, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - t0, None, f"timed out after {JOB_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, None, f"job exited {proc.returncode}: {err.strip()[-500:]}"
    try:
        return wall, json.loads(out), ""
    except json.JSONDecodeError:
        return wall, None, f"job printed no result: {out[-200:]!r}"


def report_rows_ok(stdout: str) -> list[str]:
    """Problems with the moment report rows in one call's output."""
    problems = []
    in_report = False
    for line in stdout.splitlines():
        if line.startswith(REPORT_HEADER):
            in_report = True
            continue
        if not in_report:
            continue
        f = line.split(",")
        try:
            m, n_used = int(f[3]), int(f[4])
            moment, lower, upper = float(f[5]), float(f[6]), float(f[7])
        except (IndexError, ValueError):
            problems.append(f"row {line!r}: malformed report row")
            continue
        if not lower <= moment <= upper:
            problems.append(f"row {line!r}: moment outside [lower, upper]")
        if not n_used <= m:
            problems.append(f"row {line!r}: N > M")
    return problems


def check(result: dict, files: dict[str, str], calls: list[list[str]],
          reference: dict) -> list[str]:
    """Every way the job's outputs differ from the reference or break an invariant."""
    problems = []
    for argv, got in zip(calls, result["calls"]):
        want = reference.get(call_key(argv, files))
        if want is None:
            problems.append(f"{argv[0]}: no reference output for these inputs")
            continue
        if got["rc"] != want["rc"]:
            problems.append(f"{argv[0]}: exit {got['rc']}, expected {want['rc']}")
        if got["stdout"].encode() != want["stdout"].encode():
            problems.append(f"{argv[0]}: stdout differs from the reference")
        problems += [f"{argv[0]}: {p}" for p in report_rows_ok(got["stdout"])]
    if len(result["calls"]) != len(calls):
        problems.append("job returned the wrong number of calls")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        reference: dict | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files, calls = job(workload, seed, size)
    RUN_DIR.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=RUN_DIR))
    try:
        for name, text in files.items():
            (inputs / name).write_text(text)
        attempted = failed = 0
        done = []

        def one() -> tuple[float, dict | None]:
            nonlocal attempted, failed
            wall, result, error = run_job(calls, inputs, trace)
            problems = [error] if result is None else check(result, files, calls, reference)
            attempted += 1
            if problems:
                failed += 1
                print(f"job {attempted} failed: " + "; ".join(problems), file=sys.stderr)
            return wall, result

        if one()[1] is None:
            raise SystemExit("error: the warm-up job produced no result")
        calibrate = Calibration()
        calibrations = []
        start = time.perf_counter()
        while True:
            calibrations.append(calibrate())
            wall, result = one()
            if result is not None:
                done.append((wall, result))
            if len(done) >= MIN_JOBS and time.perf_counter() - start + wall > seconds:
                break
            if attempted > 10 * MIN_JOBS and not done:
                break
        calibrations.append(calibrate())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if not done:
        raise SystemExit("error: no job produced a result")

    calibration = statistics.median(calibrations)
    speed = (CALIBRATION_REF_S / calibration) ** CALIBRATION_EXPONENT
    q1, med, q3 = quartiles([w for w, _ in done])
    print(f"{workload} seed={seed} trace={int(trace)} jobs={len(done)} "
          f"raw job wall median={med:.4f}s q1={q1:.4f}s q3={q3:.4f}s; "
          f"calibration median={calibration:.4f}s, times scaled by {speed:.4f}")
    if trace:
        metrics = traced_metrics(workload, seed, spec["per_layer"], done, speed)
    else:
        metrics = {
            "setup_s": speed * statistics.median(r["setup_s"] for _, r in done),
            "job_s": speed * med,
            "peak_rss_mb": max(r["maxrss_kb"] for _, r in done) / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_metrics(workload: str, seed: int, per_layer: list[dict],
                   done: list[tuple[float, dict]], speed: float) -> dict:
    """Per-layer metrics: times are scaled means over the traced jobs;
    counts and ratios are medians.  The layer self times add up to
    trace.job_s, the time inside the CLI calls, by construction.  The rest of
    a job's wall time, less setup and the tracer's own summing up, is
    trace.unattributed_s."""
    jobs = [r for _, r in done]
    for wall, r in done:
        r["metrics"]["trace.job_s"] = r["main_s"]
        r["metrics"]["trace.unattributed_s"] = (
            wall - r["setup_s"] - r["main_s"] - r["report_s"])
    missing = sorted({name for r in jobs for name in r["missing"]})
    if missing:
        print("trace: wrapped names not found: " + ", ".join(missing), file=sys.stderr)
    metrics = {}
    for m in per_layer:
        values = [r["metrics"].get(m["name"], 0.0) for r in jobs]
        value = speed * statistics.fmean(values) if m["unit"] == "s" else statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    layers = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".self_s"))
    after_setup = speed * statistics.fmean(
        wall - r["setup_s"] - r["report_s"] for wall, r in done)
    print(f"trace: sum of layer self times {layers:.4f}s, trace.job_s "
          f"{metrics['trace.job_s']['value']:.4f}s, job wall less setup and report "
          f"{after_setup:.4f}s, unattributed "
          f"{metrics['trace.unattributed_s']['value']:.4f}s, overhead "
          f"{metrics['trace.overhead_s']['value']:.4f}s")
    spans = [span + [f"{workload}-{i}"] for i, r in enumerate(jobs) for span in r["spans"]]
    out = RUN_DIR / f"spans-{workload}-seed{seed}.json"
    out.write_text(json.dumps(spans))
    print(f"trace: {len(spans)} spans written to {out.relative_to(ROOT)}")
    return metrics


def write_reference() -> None:
    """Record the stdout and exit code of every call any job can make."""
    reference = {}
    for size in SIZES:
        for workload in WORKLOADS:
            seeds = range(VARIANTS) if workload == "exact_paths" else [0]
            for seed in seeds:
                files, calls = job(workload, seed, size)
                with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
                    for name, text in files.items():
                        (Path(tmp) / name).write_text(text)
                    _, result, error = run_job(calls, Path(tmp), False)
                if result is None:
                    raise SystemExit(f"error: {workload} seed {seed}: {error}")
                for argv, got in zip(calls, result["calls"]):
                    problems = report_rows_ok(got["stdout"])
                    if problems:
                        raise SystemExit(f"error: {argv}: {problems}")
                    reference[call_key(argv, files)] = {
                        "argv": argv, "stdout": got["stdout"], "rc": got["rc"]}
                print(f"{size} {workload} seed {seed}: {len(calls)} calls", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny inputs for the self-tests")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    for needed in (SRC / "taskcodes" / "cli.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a taskcodes checkout",
                  file=sys.stderr)
            return 2
    if args.write_reference:
        RUN_DIR.mkdir(exist_ok=True)
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} not found", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
