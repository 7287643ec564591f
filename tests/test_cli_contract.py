"""The CLI contract, driven by generated argument lists: every call ends in
exit 0, or in exit 1, 2 or 3 with empty stdout and exactly one `error:` line
on stderr.  No exception escapes main, and a call that exits 0 writes
nothing to stderr."""
import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from taskcodes.cli import main

# tiny valid inputs, and inputs that are not
FILES = {
    "bern.pmf": b"0.9\n0.1\n",
    "point.pmf": b"1\n0\n",
    "z3.pmf": b"0.5\n0.3\n0.2\n",
    "tiny.pmf": b"1\n5e-324\n",
    "bad.pmf": b"0.5\nnope\n",
    "latin1.pmf": b"0.5\n0.5\xe9\n",
    "sticky.markov": b"2\n0.5 0.5\n0.9 0.1\n0.1 0.9\n",
    "one.part": b"0 1\n",
    "split.part": b"0\n1 2\n",
    "mixed.budgets": b"1\n2\n4\n4\ninf\n",
}
# the flags of calls that can succeed as they stand
CALLS = [
    ["entropy", "--pmf", "--alpha", "--out"],
    ["entropy", "--pmf", "--rho", "--out"],
    ["entropy", "--markov", "--alpha", "--n", "--step"],
    ["entropy", "--markov", "--rho", "--n", "--step"],
    ["construct", "--pmf", "--M", "--rho"],
    ["construct", "--budgets"],
    ["moment", "--pmf", "--partition", "--rho"],
    ["oracle", "--pmf", "--M", "--rho"],
    ["sweep", "--pmf", "--q", "--rate", "--rho", "--n", "--step", "--cap"],
    ["sweep", "--markov", "--rate", "--rho", "--n"],
    ["mismatch", "--pmf", "--q", "--alpha"],
]
# values of each flag that a call can succeed with (PMFs of different sizes
# can still clash)
GOOD = {
    "--pmf": ["bern.pmf", "z3.pmf", "point.pmf", "tiny.pmf"],
    "--q": ["bern.pmf", "z3.pmf", "point.pmf", "tiny.pmf"],
    "--markov": ["sticky.markov"], "--budgets": ["mixed.budgets"],
    "--partition": ["one.part", "split.part"], "--alpha": ["0.5", "2", "0.5,2"],
    "--rho": ["1", "0.5", "2"], "--n": ["1..3", "2..2"], "--step": ["1", "2"],
    "--cap": ["4", "1024"], "--rate": ["2", "5/2", "3"], "--M": ["3", "8"],
    "--out": ["out.csv"],
}
# values that break one rule or another, for any flag
BAD = ["0", "-1", "1/0", "nan", "inf", "-inf", "1e300", "1e308", "1,2", ",", "", "abc", "1e",
       "0x10", "3..1", "0..2", "-1..2", "1..x", "1..2..3", "1e300..2", "missing.pmf",
       "bad.pmf", "latin1.pmf", "nodir/out.csv", ".", *FILES]
FLAGS = sorted(GOOD) + ["--seed", "--bogus"]
COMMANDS = sorted({call[0] for call in CALLS}) + ["bogus"]


@st.composite
def argvs(draw) -> list[str]:
    """A call that can succeed, then up to three edits: a bad value, a
    token dropped, a flag added, or another subcommand."""
    command, *flags = draw(st.sampled_from(CALLS))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(GOOD[flag]))]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["value", "drop", "add", "command"]))
        i = draw(st.integers(0, len(argv)))
        if edit == "add":
            flag = draw(st.sampled_from(FLAGS))
            argv[i:i] = [flag, draw(st.sampled_from(GOOD.get(flag, ["1"]) + BAD))]
        elif i == len(argv):
            continue
        elif edit == "value":
            argv[i] = draw(st.sampled_from(BAD))
        elif edit == "drop":
            del argv[i]
        else:
            argv[0] = draw(st.sampled_from(COMMANDS))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    for name, data in FILES.items():
        (d / name).write_bytes(data)
    return d


@settings(max_examples=3000, derandomize=True, deadline=None)
@given(argv=argvs())
@example(argv=["mismatch", "--pmf", "bern.pmf", "--q", "tiny.pmf"])  # KL's ratio overflows
def test_every_call_ends_in_output_or_one_error_line(workdir, argv):
    # any value may land on --out, so the call runs in the test's directory
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
