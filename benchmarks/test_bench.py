"""Self-tests of the benchmark:  python3 -m pytest benchmarks -q"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, inclusive_times, self_times  # noqa: E402
from workloads import WORKLOADS, call_key, job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_JOBS + 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_corrupted_reference_counts_as_failure():
    reference = json.loads(run.REFERENCE.read_text())
    files, calls = job("sweep_iid", 0, "tiny")
    key = call_key(calls[0], files)
    reference[key] = dict(reference[key], stdout=reference[key]["stdout"].replace("8,", "9,", 1))
    result = run.run("sweep_iid", 0, 0, False, "tiny", reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_wrong_exit_code_counts_as_failure():
    reference = json.loads(run.REFERENCE.read_text())
    files, calls = job("exact_paths", 0, "tiny")
    key = call_key(calls[-1], files)
    reference[key] = dict(reference[key], rc=0)
    result = run.run("exact_paths", 0, 0, False, "tiny", reference=reference)
    assert result["failed"] == result["attempted"]


def test_report_rows_must_sit_between_the_bounds():
    head = run.REPORT_HEADER
    assert run.report_rows_ok(f"{head}\n4,0.9,1,12,5,1.5,1.2,1.8,2,0.1\n") == []
    assert len(run.report_rows_ok(f"{head}\n4,0.9,1,12,5,1.9,1.2,1.8,2,0.1\n")) == 1
    assert len(run.report_rows_ok(f"{head}\n4,0.9,1,12,13,1.5,1.2,inf,2,0.1\n")) == 1
    assert run.report_rows_ok(f"{head}\n\n4,0.9,1\n4,0.9,1,12,x,1.5,1.2,1.8,2,0.1\n") == [
        "row '': malformed report row", "row '4,0.9,1': malformed report row",
        "row '4,0.9,1,12,x,1.5,1.2,1.8,2,0.1': malformed report row"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = bench("--workload", "sweep_iid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]
    spans = [(0.0, 10.0, None), (1.0, 3.0, 0), (4.0, 8.0, 0), (5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert sum(self_times(spans)) == 10.0
    # overlapping children are counted once, and clipped to the parent
    assert self_times([(0.0, 10.0, None), (2.0, 6.0, 0), (4.0, 12.0, 0)]) == [2.0, 4.0, 8.0]


def test_inclusive_times_skip_nested_spans_of_the_same_name():
    names = ["cli.main", "coding.bounds", "coding.bounds", "coding.bounds"]
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 6.0, 0)]
    assert inclusive_times(names, spans) == {"cli.main": 10.0, "coding.bounds": 4.0}


def test_missing_wrapped_names_are_reported():
    tracer = Tracer()
    tracer.install(spans={"coding.no_such_function": "coding.x",
                          "no_such_module.f": "no_such_module.f",
                          "partitions.Partition.no_such_method": "partitions.x"},
                   call_counters={}, item_counters={})
    assert tracer.missing == ["coding.no_such_function", "no_such_module.f",
                              "partitions.Partition.no_such_method"]
