"""The benchmark's stored outputs, replayed in-process: every call that
benchmarks/workloads.py makes, at both sizes and on every input variant,
prints the stdout and exits with the code stored in
benchmarks/reference.json."""
import json
import runpy
from operator import itemgetter
from pathlib import Path

import pytest

from taskcodes.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
# run_path compiles the file without writing a bytecode cache next to it
SIZES, WORKLOADS, VARIANTS, job, call_key = itemgetter(
    "SIZES", "WORKLOADS", "VARIANTS", "job", "call_key"
)(runpy.run_path(str(BENCH / "workloads.py")))
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def calls(size, workload):
    """{reference key: (input files, argv)} of the distinct calls of the
    workload's jobs over every variant."""
    seen = {}
    for seed in range(VARIANTS):
        files, argvs = job(workload, seed, size)
        for argv in argvs:
            seen.setdefault(call_key(argv, files), (files, argv))
    return seen


def test_the_reference_holds_every_call_and_no_other():
    keys = set()
    for size in SIZES:
        for workload in WORKLOADS:
            keys |= calls(size, workload).keys()
    assert keys == REFERENCE.keys()


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_call_prints_its_stored_output(size, workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key, (files, argv) in calls(size, workload).items():
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(argv)
        want = REFERENCE[key]
        assert (code, capsys.readouterr().out) == (want["rc"], want["stdout"]), argv
