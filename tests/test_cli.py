import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from taskcodes import Partition
from taskcodes.cli import main


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["uniform4"] = tmp_path / "uniform4.pmf"
    paths["uniform4"].write_text("0.25\n0.25\n0.25\n0.25\n")
    paths["bern01"] = tmp_path / "bern01.pmf"
    paths["bern01"].write_text("0.9\n0.1\n")
    paths["fair"] = tmp_path / "fair.pmf"
    paths["fair"].write_text("0.5\n0.5\n")
    paths["markov"] = tmp_path / "sticky.markov"
    paths["markov"].write_text("2\n0.5 0.5\n0.9 0.1\n0.1 0.9\n")
    paths["budgets"] = tmp_path / "counterexample.budgets"
    paths["budgets"].write_text("1\n2\n4\n4\n")
    paths["tmp"] = tmp_path
    return paths


# `taskcodes sweep --pmf fair.pmf --q bern.pmf --rate 1.6 --rho 1 --n 4..16
# --step 4`, the README example, as it printed before the mismatched sweep
# moved from `mismatch --rate` to `sweep --q`
README_MISMATCHED_SWEEP = (
    "n,R,rho,M,N,moment,lower,upper,m_tilde,delta,q_id,delta_bits\n"
    "4,1.6,1,84,13,1.5,0.190476190476,3.59322570434,19.5,0.528649445284,"
    "bern.pmf,0.415037499279\n"
    "8,1.6,1,7131,230,1.3984375,0.0358995933249,2.43637839364,1780.25,"
    "0.250266982833,bern.pmf,0.415037499279\n"
    "12,1.6,1,602248,3882,1.22119140625,0.00680118489393,1.85885432696,"
    "150558.5,0.166669613812,bern.pmf,0.415037499279\n"
    "16,1.6,1,50859008,63714,1.14346313477,0.00128858195583,1.51427093062,"
    "12714747.5,0.125000032732,bern.pmf,0.415037499279\n"
)

# stdout of the README's other examples, in its working directory (bern.pmf,
# u4.pmf and fair.pmf as the README writes them)
README_EXAMPLES = {
    "entropy --pmf bern.pmf --alpha 0.5":
        "alpha,entropy_bits\n0.5,0.678071905113\n",
    "construct --pmf u4.pmf --M 5 --rho 1":
        "0 1 2 3\n"
        "n,R,rho,M,N,moment,lower,upper,m_tilde,delta\n"
        "1,nan,1,5,1,4,0.8,17,0.25,nan\n",
    "sweep --pmf bern.pmf --rate 0.9 --rho 1 --n 4..16 --step 4":
        "n,R,rho,M,N,moment,lower,upper,m_tilde,delta\n"
        "4,0.9,1,12,4,2.5862,0.546133333333,5.36906666667,1.5,0.75375937482\n"
        "8,0.9,1,147,47,1.31305302,0.292174645986,2.25400504993,34.25,0.26274598963\n"
        "12,0.9,1,1782,602,1.09005028667,0.157954532385,1.63682121428,442,"
        "0.167674786717\n"
        "16,0.9,1,21618,5956,1.05761945577,0.085330484197,1.34160637174,5400,"
        "0.125078519254\n",
    "mismatch --pmf fair.pmf --q bern.pmf --alpha 0.5":
        "alpha,delta,renyi_div,kl\n0.5,0.415037499279,0.321928094887,0.736965594166\n",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_error(capsys, argv):
    """Exit code and stderr of a call that must fail with one error line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return code, captured.err


class TestEntropy:
    def test_uniform_alpha(self, capsys, files):
        code, out = run(capsys, ["entropy", "--pmf", str(files["uniform4"]),
                                 "--alpha", "0.5"])
        assert code == 0
        assert out.splitlines()[1] == "0.5,2"

    def test_bernoulli_rho(self, capsys, files):
        code, out = run(capsys, ["entropy", "--pmf", str(files["bern01"]),
                                 "--rho", "1"])
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(2 * math.log2(math.sqrt(0.9) + math.sqrt(0.1)),
                                      abs=1e-9)

    def test_markov_rates(self, capsys, files):
        code, out = run(capsys, ["entropy", "--markov", str(files["markov"]),
                                 "--alpha", "0.5", "--n", "1..10"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 10
        rates = [float(v) for _, v in rows]
        # normalized entropies decrease toward the sticky chain's rate
        assert all(a >= b - 1e-12 for a, b in zip(rates[1:], rates[2:]))

    @pytest.mark.parametrize("rho", ["-1", "-0.5", "0"])
    def test_nonpositive_rho_exit_2(self, capsys, files, rho):
        code, err = run_error(capsys, ["entropy", "--pmf", str(files["bern01"]),
                                       "--rho", rho])
        assert code == 2
        assert "rho must be positive" in err

    def test_point_mass_prints_zero_not_minus_zero(self, capsys, files):
        one = files["tmp"] / "one.pmf"
        one.write_text("1\n")
        code, out = run(capsys, ["entropy", "--pmf", str(one), "--alpha", "0.5,2"])
        assert code == 0
        assert out == "alpha,entropy_bits\n0.5,0\n2,0\n"

    def test_markov_start_in_one_state_prints_zero(self, capsys, files):
        chain = files["tmp"] / "start.markov"
        chain.write_text("2\n1 0\n0.9 0.1\n0.1 0.9\n")
        code, out = run(capsys, ["entropy", "--markov", str(chain),
                                 "--alpha", "2", "--n", "1..1"])
        assert code == 0
        assert out == "n,entropy_rate_bits\n1,0\n"

    def test_malformed_pmf_is_usage_error(self, capsys, files):
        bad = files["tmp"] / "bad.pmf"
        bad.write_text("0.5\nnope\n")
        code, _ = run(capsys, ["entropy", "--pmf", str(bad), "--alpha", "0.5"])
        assert code == 1


class TestConstruct:
    def test_counterexample_budget_mode(self, capsys, files):
        code, out = run(capsys, ["construct", "--budgets", str(files["budgets"])])
        assert code == 0
        blocks = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(blocks) == 3

    def test_uniform4_report(self, capsys, files):
        code, out = run(capsys, ["construct", "--pmf", str(files["uniform4"]),
                                 "--M", "5", "--rho", "1"])
        assert code == 0
        lines = out.splitlines()
        row = lines[-1].split(",")
        assert float(row[5]) == pytest.approx(4.0)
        assert float(row[6]) == pytest.approx(0.8)  # 2^(2 - log2 5), vacuous
        assert float(row[7]) == pytest.approx(17.0)

    def test_m_below_threshold_exit_2(self, capsys, files):
        code = main(["construct", "--pmf", str(files["uniform4"]),
                     "--M", "4", "--rho", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "log2|X| + 2 = 4" in err

    def test_budget_overflow_exit_2(self, capsys, files):
        # beta * mass^(-1/(1+rho)) overflows though the power does not: one
        # error line, no numpy overflow warning
        path = files["tmp"] / "tiny.pmf"
        path.write_text("2.3e-308\n0.5\n0.5\n")
        code, err = run_error(capsys, ["construct", "--pmf", str(path),
                                       "--M", "4", "--rho", "1e-6"])
        assert code == 2
        assert err == "error: numeric overflow: cannot convert float infinity to integer\n"

    def test_lower_bound_just_inside_the_float_range(self, capsys, files):
        # lower = 2^(2465.9 * (3 - log2 6)) = 2^1023.44 is a finite float
        path = files["tmp"] / "u8.pmf"
        path.write_text("0.125\n" * 8)
        code = main(["construct", "--pmf", str(path), "--M", "6", "--rho", "2465.9"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.splitlines()[-1] == \
            "1,nan,2465.9,6,1,inf,1.22019882488e+308,inf,0.25,nan"

    def test_partition_roundtrip(self, capsys, files):
        code, out = run(capsys, ["construct", "--pmf", str(files["bern01"]),
                                 "--M", "4", "--rho", "1"])
        assert code == 0
        block_lines = [l for l in out.splitlines() if "," not in l]
        reparsed = Partition.from_text("\n".join(block_lines))
        assert reparsed.ground_size == 2


class TestMomentOracle:
    def test_moment_of_explicit_partition(self, capsys, files):
        part = files["tmp"] / "part.txt"
        part.write_text("0\n1 2 3\n")
        code, out = run(capsys, ["moment", "--pmf", str(files["uniform4"]),
                                 "--partition", str(part), "--rho", "1"])
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.25 + 0.75 * 3)

    def test_oracle(self, capsys, files):
        code, out = run(capsys, ["oracle", "--pmf", str(files["uniform4"]),
                                 "--M", "2", "--rho", "1"])
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(2.0)

    def test_oracle_past_the_float_range(self, capsys, files):
        # 2^1e300 overflows: every block of two or more costs inf
        code, out = run(capsys, ["oracle", "--pmf", str(files["uniform4"]),
                                 "--M", "4", "--rho", "1e300"])
        assert (code, out) == (0, "1\n0\n1\n2\n3\n")

    def test_oracle_mixes_a_zero_mass_into_a_block(self, capsys, files):
        # a zero-mass symbol costs nothing next to a positive one
        z = files["tmp"] / "z.pmf"
        z.write_text("0\n0.5\n0.5\n")
        code, out = run(capsys, ["oracle", "--pmf", str(z), "--M", "2", "--rho", "1"])
        assert (code, out) == (0, "1.5\n0 1\n2\n")

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_oracle_nonpositive_m_usage_error(self, capsys, files, m):
        code, err = run_error(capsys, ["oracle", "--pmf", str(files["uniform4"]),
                                       "--M", m, "--rho", "1"])
        assert code == 1
        assert "--M must be a positive integer" in err


class TestSweep:
    def test_deterministic_output(self, capsys, files):
        argv = ["sweep", "--pmf", str(files["bern01"]), "--rate", "0.9",
                "--rho", "1", "--n", "4..8"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second
        assert first.splitlines()[0].startswith("n,R,rho,M,N,")

    def test_rows_ordered_by_n(self, capsys, files):
        code, out = run(capsys, ["sweep", "--pmf", str(files["bern01"]),
                                 "--rate", "0.9", "--rho", "1",
                                 "--n", "4..12", "--step", "4"])
        assert code == 0
        ns = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ns == [4, 8, 12]

    def test_markov_source(self, capsys, files):
        code, out = run(capsys, ["sweep", "--markov", str(files["markov"]),
                                 "--rate", "1.2", "--rho", "1", "--n", "4..6"])
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_empty_range_usage_error(self, capsys, files):
        code, _ = run(capsys, ["sweep", "--pmf", str(files["bern01"]),
                               "--rate", "0.9", "--rho", "1", "--n", "8..4"])
        assert code == 1

    def test_zero_step_usage_error(self, capsys, files):
        code, err = run_error(capsys, ["sweep", "--pmf", str(files["bern01"]),
                                       "--rate", "0.9", "--rho", "1", "--n", "4..8",
                                       "--step", "0"])
        assert code == 1
        assert "--step" in err

    @pytest.mark.parametrize("rate", ["abc", "1/0", "nan"])
    def test_malformed_rate_usage_error(self, capsys, files, rate):
        code, err = run_error(capsys, ["sweep", "--pmf", str(files["bern01"]),
                                       "--rate", rate, "--rho", "1", "--n", "4..8"])
        assert code == 1
        assert "bad rate" in err

    def test_rate_too_small_exit_2(self, capsys, files):
        code, _ = run(capsys, ["sweep", "--pmf", str(files["bern01"]),
                               "--rate", "0.3", "--rho", "1", "--n", "4..8"])
        assert code == 2

    def test_cap_exceeded_exit_3(self, capsys, files):
        code, _ = run(capsys, ["sweep", "--pmf", str(files["bern01"]),
                               "--rate", "0.9", "--rho", "1", "--n", "16..16",
                               "--cap", "1024"])
        assert code == 3

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_nonpositive_cap_usage_error(self, capsys, files, cap):
        code, err = run_error(capsys, ["sweep", "--pmf", str(files["bern01"]),
                                       "--rate", "0.9", "--rho", "1", "--n", "4..4",
                                       "--cap", cap])
        assert code == 1
        assert "--cap must be a positive integer" in err

    @pytest.mark.parametrize("rate", ["1e3", "256"])
    def test_rate_overflow_exit_2(self, capsys, files, rate):
        code, err = run_error(capsys, ["sweep", "--pmf", str(files["bern01"]),
                                       "--rate", rate, "--rho", "1", "--n", "4..4"])
        assert code == 2
        assert "numeric overflow" in err


class TestMismatch:
    def test_equal_laws_zero_column(self, capsys, files):
        code, out = run(capsys, ["mismatch", "--pmf", str(files["fair"]),
                                 "--q", str(files["fair"]), "--alpha", "0.5,2"])
        assert code == 0
        for line in out.splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_equal_laws_print_zero_not_minus_zero(self, capsys, files):
        # for p = q below order 1 the Renyi sum is 0, and 0/(alpha - 1) is -0.0
        code, out = run(capsys, ["mismatch", "--pmf", str(files["fair"]),
                                 "--q", str(files["fair"]), "--alpha", "0.25,0.5"])
        assert code == 0
        assert out == "alpha,delta,renyi_div,kl\n0.25,0,0,0\n0.5,0,0,0\n"

    def test_equal_laws_no_negative_renyi_divergence(self, capsys, files):
        # rounding leaves the Renyi sum of bern vs bern at -2.2e-16
        code, out = run(capsys, ["mismatch", "--pmf", str(files["bern01"]),
                                 "--q", str(files["bern01"]), "--alpha", "0.5"])
        assert (code, out) == (0, "alpha,delta,renyi_div,kl\n0.5,0,0,0\n")

    def test_fair_vs_skew_value(self, capsys, files):
        code, out = run(capsys, ["mismatch", "--pmf", str(files["fair"]),
                                 "--q", str(files["bern01"]), "--alpha", "0.5"])
        assert code == 0
        delta = float(out.splitlines()[1].split(",")[1])
        assert delta == pytest.approx(math.log2(4 / 3), abs=1e-9)

    def test_disjoint_supports_inf_cell(self, capsys, files):
        a = files["tmp"] / "a.pmf"
        a.write_text("1\n0\n")
        b = files["tmp"] / "b.pmf"
        b.write_text("0\n1\n")
        code, out = run(capsys, ["mismatch", "--pmf", str(a), "--q", str(b),
                                 "--alpha", "2"])
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "inf"

    def test_mismatched_sweep(self, capsys, files):
        code, out = run(capsys, ["sweep", "--pmf", str(files["fair"]),
                                 "--q", str(files["bern01"]), "--rate", "1.6",
                                 "--rho", "1", "--n", "4..8", "--step", "4"])
        assert code == 0
        header = out.splitlines()[0]
        assert header.endswith("q_id,delta_bits")
        last = out.splitlines()[-1].split(",")
        assert float(last[-1]) == pytest.approx(math.log2(4 / 3), abs=1e-9)

    def test_readme_mismatched_sweep_bytes(self, capsys, files, monkeypatch):
        monkeypatch.chdir(files["tmp"])
        (files["tmp"] / "bern.pmf").write_text("0.9\n0.1\n")
        code, out = run(capsys, ["sweep", "--pmf", "fair.pmf", "--q", "bern.pmf",
                                 "--rate", "1.6", "--rho", "1", "--n", "4..16",
                                 "--step", "4"])
        assert code == 0
        assert out == README_MISMATCHED_SWEEP

    @pytest.mark.parametrize("name,field", [
        ("my,law.pmf", '"my,law.pmf"'),
        ('say "q".pmf', '"say ""q"".pmf"'),
        ("two\nlines.pmf", '"two\nlines.pmf"'),
        ("plain law.pmf", "plain law.pmf"),
    ])
    def test_design_name_is_one_csv_field(self, capsys, files, name, field):
        (files["tmp"] / name).write_text("0.9\n0.1\n")
        code, out = run(capsys, ["sweep", "--pmf", str(files["fair"]),
                                 "--q", str(files["tmp"] / name), "--rate", "1.6",
                                 "--rho", "1", "--n", "4..4"])
        assert code == 0
        assert out.endswith(f",1.5,0.190476190476,3.59322570434,19.5,0.528649445284,"
                            f"{field},0.415037499279\n")
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert len(row) == len(header) == 12
        assert row[10] == name

    @pytest.mark.parametrize("q,rho,cap,expected", [
        ("uniform4", "0", None, 2),    # the rho check comes before the alphabets
        ("uniform4", "1", None, 1),    # alphabet sizes differ
        ("bern01", "1", "64", 3),      # 2^8 tuples over the cap
    ])
    def test_mismatched_sweep_exit_codes(self, capsys, files, q, rho, cap, expected):
        argv = ["sweep", "--pmf", str(files["fair"]), "--q", str(files[q]),
                "--rate", "1.6", "--rho", rho, "--n", "8..8"]
        code, _ = run_error(capsys, argv + (["--cap", cap] if cap else []))
        assert code == expected

    def test_mismatched_sweep_needs_pmf(self, capsys, files):
        code, err = run_error(capsys, ["sweep", "--markov", str(files["markov"]),
                                       "--q", str(files["bern01"]), "--rate", "1.6",
                                       "--rho", "1", "--n", "4..4"])
        assert code == 1
        assert "need --pmf, not --markov" in err

    def test_empty_design_path_is_read(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "bern01", "--q", "",
                                                   "--rate", "0.9", "--rho", "1",
                                                   "--n", "4..4"]))
        assert code == 1
        assert err.startswith("error: cannot read : ")

    def test_empty_design_path_needs_pmf(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["sweep", "--markov", "markov", "--q", "",
                                                   "--rate", "0.9", "--rho", "1",
                                                   "--n", "4..4"]))
        assert code == 1
        assert err == "error: mismatched sweeps need --pmf, not --markov\n"

    @pytest.mark.parametrize("argv", [
        ["mismatch", "--pmf", "fair", "--q", "bern01", "--rate", "1.6", "--rho", "1",
         "--n", "4..8"],
        ["sweep", "--pmf", "bern01", "--rate", "0.9", "--rho", "1", "--n", "4..4",
         "--seed", "3"],
        ["mismatch", "--pmf", "fair", "--q", "bern01", "--alpha", "0.5", "--seed", "3"],
        ["entropy", "--pmf", "bern01", "--alpha", "0.5", "--cap", "5"],
    ])
    def test_removed_flags_usage_error(self, capsys, files, argv):
        code = main([str(files[a]) if a in files else a for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_output_file(self, capsys, files):
        out_path = files["tmp"] / "table.csv"
        code = main(["mismatch", "--pmf", str(files["fair"]),
                     "--q", str(files["bern01"]), "--alpha", "0.5",
                     "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().endswith("\n")


def fill(files, argv):
    return [str(files[a]) if a in files else a for a in argv]


class TestArgumentErrors:
    @pytest.mark.parametrize("argv,message", [
        (["construct", "--pmf", "uniform4", "--M", "abc", "--rho", "1"], "invalid int value"),
        (["sweep", "--pmf", "bern01", "--rate", "0.9", "--rho", "1", "--n", "4..4",
          "--cap", "x"], "--cap must be a positive integer"),
        (["moment", "--pmf", "uniform4", "--rho", "1"], "required: --partition"),
        (["mismatch", "--pmf", "fair", "--q", "bern01", "--alpha"], "expected one argument"),
        (["frobnicate"], "invalid choice"),
        (["entropy", "--pmf", "bern01", "--alpha", "x"], "error: bad alpha list 'x'\n"),
    ])
    def test_parser_failure_is_one_error_line(self, capsys, files, argv, message):
        code, err = run_error(capsys, fill(files, argv))
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("extra", [["--n", "x"], ["--step", "0"]])
    def test_range_flags_are_checked_where_ignored(self, capsys, files, extra):
        code, _ = run_error(capsys, fill(files, ["entropy", "--pmf", "bern01", "--alpha",
                                                 "0.5", *extra]))
        assert code == 1

    def test_unwritable_out_file(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["mismatch", "--pmf", "fair", "--q", "fair",
                                                   "--out", str(files["tmp"])]))
        assert code == 1
        assert "cannot write" in err


class TestModes:
    """entropy, construct and sweep take exactly one flag of each mode group."""

    @pytest.mark.parametrize("argv,message", [
        (["entropy", "--pmf", "bern01", "--markov", "markov", "--alpha", "0.5",
          "--n", "1..2"], "argument --markov: not allowed with argument --pmf"),
        (["entropy", "--pmf", "bern01", "--alpha", "0.5", "--rho", "1"],
         "argument --rho: not allowed with argument --alpha"),
        (["construct", "--budgets", "budgets", "--pmf", "uniform4", "--M", "5", "--rho", "1"],
         "argument --pmf: not allowed with argument --budgets"),
        (["sweep", "--markov", "markov", "--pmf", "bern01", "--rate", "0.9", "--rho", "1",
          "--n", "4..4"], "argument --pmf: not allowed with argument --markov"),
    ])
    def test_two_modes_are_refused(self, capsys, files, argv, message):
        code, err = run_error(capsys, fill(files, argv))
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,group", [
        (["entropy", "--alpha", "0.5"], "--pmf --markov"),
        (["entropy", "--pmf", "bern01", "--n", "1..2"], "--alpha --rho"),
        (["entropy", "--markov", "markov", "--n", "1..2"], "--alpha --rho"),
        (["construct", "--M", "5", "--rho", "1"], "--pmf --budgets"),
        (["sweep", "--rate", "0.9", "--rho", "1", "--n", "4..4"], "--pmf --markov"),
    ])
    def test_one_mode_is_required(self, capsys, files, argv, group):
        code, err = run_error(capsys, fill(files, argv))
        assert code == 1
        assert err == f"error: one of the arguments {group} is required\n"

    @pytest.mark.parametrize("command", ["", "entropy", "construct", "moment", "oracle",
                                         "sweep", "mismatch"])
    def test_help(self, capsys, command):
        code = main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("usage: taskcodes")
        assert captured.err == ""


class TestInputErrors:
    """Each malformed input file or value ends in one error line."""

    @pytest.mark.parametrize("text,message", [
        ("", "empty Markov source file"),
        ("# no data\n", "empty Markov source file"),
        ("x\n0.5 0.5\n", "line 1: state count must be an integer"),
        ("0\n", "line 1: state count must be positive"),
        ("2\n0.5 0.5\n0.9 O.1\n0.1 0.9\n", "line 3: malformed number"),
        ("2\n0.5 0.5\n1.5 -0.5\n0.1 0.9\n", "must be finite and nonnegative"),
        ("2\n0.5 0.5\n0.6 0.5\n0.1 0.9\n", "transition row 0 sums to 1.1\n"),
    ])
    def test_malformed_markov_file(self, capsys, files, text, message):
        path = files["tmp"] / "bad.markov"
        path.write_text(text)
        code, err = run_error(capsys, ["entropy", "--markov", str(path), "--alpha", "0.5",
                                       "--n", "1..2"])
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("text,argv,message", [
        ("# no data\n", ["entropy", "--pmf", "FILE", "--alpha", "0.5"],
         "no probabilities found"),
        ("x\n", ["construct", "--budgets", "FILE"], "line 1: bad budget 'x'"),
        ("", ["construct", "--budgets", "FILE"], "need at least one budget"),
        ("0 x\n", ["moment", "--pmf", "uniform4", "--partition", "FILE", "--rho", "1"],
         "line 1: malformed block"),
    ])
    def test_malformed_file(self, capsys, files, text, argv, message):
        path = files["tmp"] / "bad.txt"
        path.write_text(text)
        code, err = run_error(capsys, [str(path) if a == "FILE" else a
                                       for a in fill(files, argv)])
        assert code == 1
        assert message in err

    def test_negative_rate_exit_2(self, capsys, files):
        # floor(2^(nR)) of a negative exponent is 0
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "bern01", "--rate", "-1",
                                                   "--rho", "1", "--n", "1..1"]))
        assert code == 2
        assert "floor(2^(nR)) = 0 at n = 1" in err

    def test_underflowed_masses_exit_2(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "bern01", "--rate", "0.9",
                                                   "--rho", "1", "--n", "1000..1000",
                                                   "--cap", str(10**400)]))
        assert code == 2
        assert err == ("error: numeric overflow: tuple masses below the float range at "
                       "n = 1000 could add 2^788.948 to the moment\n")

    def test_row_with_a_few_underflowed_masses_keeps_its_bytes(self, capsys, files):
        # tuples whose mass underflows to 0 exist from n = 324 on
        code, out = run(capsys, fill(files, ["sweep", "--pmf", "bern01", "--rate", "0.9",
                                             "--rho", "1", "--n", "521..521",
                                             "--cap", str(10**400)]))
        assert (code, out) == (0, "n,R,rho,M,N,moment,lower,upper,m_tilde,delta\n"
                               "521,0.9,1,"
                               "142221405699561621065301165382090441798466964736888693146514905378750339"
                               "4970559135115427656028070631901554742948611676526302352341925555876352"
                               ","
                               "204642882505413729881319218986151371347666444753005993391263814151116541"
                               "7893925254624524631460578252309590973076475813558490108610538960012"
                               ",1,1.56151441196e-35,1,3.55553514249e+140,0.00383877159309\n")

    def test_markov_entropy_needs_n(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["entropy", "--markov", "markov",
                                                   "--alpha", "0.5"]))
        assert code == 1
        assert err == "error: entropy --markov needs --alpha and --n\n"


class TestOrders:
    def test_infinite_alpha_exit_2(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["entropy", "--pmf", "bern01",
                                                   "--alpha", "inf"]))
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("q", ["bern01", "uniform4"])
    def test_infinite_rho_in_a_mismatched_sweep(self, capsys, files, q):
        # a rho error, before the alphabets are compared and before any row
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "fair", "--q", q,
                                                   "--rate", "1.6", "--rho", "inf",
                                                   "--n", "3..3"]))
        assert code == 2
        assert err.startswith("error: rho must be finite")

    def test_moment_past_the_float_range(self, capsys, files):
        point = files["tmp"] / "point.pmf"
        point.write_text("1\n0\n")
        part = files["tmp"] / "one.part"
        part.write_text("0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["moment", "--pmf", str(point), "--partition", str(part),
                                     "--rho", "1e300"])
        assert (code, out) == (0, "inf\n")

    def test_sweep_at_a_huge_rho_warns_nothing(self, capsys, files):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, fill(files, ["sweep", "--pmf", "bern01", "--rate", "0.9",
                                                 "--rho", "1e300", "--n", "4..5"]))
        assert code == 0
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("argv", [
        # the rate at n = 7 is about 0.273, but log2 of its Renyi sum (-1.9e308) is no float
        ["entropy", "--markov", "markov", "--alpha", "1e308", "--n", "6..7"],
        # every term of the uniform law overflows: the sum is not 2 but inf
        ["entropy", "--pmf", "uniform4", "--alpha", "1e308"],
        # the Renyi divergence would print -0.848, and none is negative
        ["mismatch", "--pmf", "fair", "--q", "bern01", "--alpha", "1e308"],
    ], ids=["markov", "uniform", "mismatch"])
    def test_sums_past_the_float_range_exit_2(self, capsys, files, argv):
        code, err = run_error(capsys, fill(files, argv))
        assert code == 2
        assert err.startswith("error: numeric overflow: ")

    @pytest.mark.parametrize("argv,expected", [
        # only the 0.1 term overflows, and it is negligible beside 0.9^alpha
        (["entropy", "--pmf", "bern01", "--alpha", "1e308"],
         "alpha,entropy_bits\n1e+308,0.152003093445\n"),
        (["entropy", "--markov", "markov", "--alpha", "1e300", "--n", "1..3"],
         "n,entropy_rate_bits\n1,1\n2,0.576001546723\n3,0.434668728963\n"),
    ], ids=["bernoulli", "markov"])
    def test_huge_orders_inside_the_float_range_keep_their_bytes(self, capsys, files,
                                                                 argv, expected):
        code = main(fill(files, argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, expected, "")

    def test_empty_alpha_list_gives_the_default_orders(self, capsys, files):
        code, out = run(capsys, fill(files, ["mismatch", "--pmf", "fair", "--q", "bern01",
                                             "--alpha", ""]))
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.25", "0.5", "2", "4"]

    def test_markov_rows_with_a_step(self, capsys, files):
        argv = ["entropy", "--markov", "markov", "--alpha", "0.5"]
        _, out = run(capsys, fill(files, argv + ["--n", "2..10", "--step", "4"]))
        singles = [run(capsys, fill(files, argv + ["--n", f"{n}..{n}"]))[1].splitlines()[1]
                   for n in (2, 6, 10)]
        assert out.splitlines()[1:] == singles


class TestHugeBlockLengths:
    def test_cap_refusal_is_one_error_line(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "bern01", "--rate", "0.9",
                                                   "--rho", "1", "--n", "20000..20000"]))
        assert code == 3
        assert "2^20000 tuples" in err

    def test_one_symbol_source_reaches_the_m_check(self, capsys, files):
        # 1^n tuples never exceed the cap; nR >= 1024 then refuses M at once
        one = files["tmp"] / "one.pmf"
        one.write_text("1\n")
        n = 10**12
        code, err = run_error(capsys, ["sweep", "--pmf", str(one), "--rate", "0.9",
                                       "--rho", "1", "--n", f"{n}..{n}"])
        assert code == 2
        assert "nR = 900000000000" in err
        code, out = run(capsys, ["sweep", "--pmf", str(one), "--rate", "0.9",
                                 "--rho", "1", "--n", "5..5"])
        assert (code, out) == (0, "n,R,rho,M,N,moment,lower,upper,m_tilde,delta\n"
                                  "5,0.9,1,22,1,1,0.0454545454545,1.2,5,0.435614381023\n")


SWEEP_SOURCES = {
    "matched": ["--pmf", "fair"],
    "markov": ["--markov", "markov"],
    "mismatched": ["--pmf", "fair", "--q", "bern01"],
}


class TestRowErrorOrder:
    """Every sweep row checks rho, then the alphabets, then the tuple cap,
    then M."""

    @pytest.mark.parametrize("source", SWEEP_SOURCES)
    @pytest.mark.parametrize("rho,n,expected", [
        ("0", 23, 2),        # rho before the cap (2^23 tuples)
        ("1", 20000, 3),     # the cap before M (nR >= 1024)
    ])
    def test_rho_cap_and_m(self, capsys, files, source, rho, n, expected):
        argv = ["sweep", *SWEEP_SOURCES[source], "--rate", "0.9", "--rho", rho,
                "--n", f"{n}..{n}"]
        code, _ = run_error(capsys, fill(files, argv))
        assert code == expected

    def test_alphabets_before_the_cap(self, capsys, files):
        code, err = run_error(capsys, fill(files, ["sweep", "--pmf", "fair", "--q", "uniform4",
                                                   "--rate", "1.6", "--rho", "1",
                                                   "--n", "23..23"]))
        assert code == 1
        assert "alphabet sizes differ" in err


def test_one_process_gives_the_bytes_of_separate_calls(capsys, files, monkeypatch):
    """main builds its parser once per process: a --help and a usage error
    between two calls leave the second call's bytes unchanged."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    calls = [["construct", "--pmf", "uniform4", "--M", "5", "--rho", "1"],
             ["construct", "--help"],
             ["construct", "--pmf", "uniform4", "--budgets", "budgets"],
             ["construct", "--pmf", "uniform4", "--M", "5", "--rho", "1"]]
    script = "import sys; from taskcodes.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for call in calls:
        argv = fill(files, call)
        code = main(argv)
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout,
                                                      alone.stderr)


def test_calls_leave_numpy_ma_unimported(files):
    """No call path imports numpy.ma, which the first np.unique or np.union1d
    does at a cost of 16-19 ms and about 0.6 MB per process."""
    calls = [["sweep", "--pmf", "bern01", "--rate", "0.9", "--rho", "1", "--n", "8..8"],
             ["sweep", "--pmf", "fair", "--q", "bern01", "--rate", "1.6", "--rho", "1",
              "--n", "8..8"],
             ["construct", "--pmf", "uniform4", "--M", "5", "--rho", "1"],
             ["oracle", "--pmf", "uniform4", "--M", "2", "--rho", "1"],
             ["entropy", "--markov", "markov", "--alpha", "0.5", "--n", "4..4"]]
    script = ("import json, sys; from taskcodes.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = json.dumps([fill(files, call) for call in calls])
    done = subprocess.run([sys.executable, "-c", script, argv], env=env,
                          capture_output=True, text=True, check=False)
    assert json.loads(done.stdout.splitlines()[-1]) == [[0] * len(calls), False]


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example_bytes(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bern.pmf").write_text("0.9\n0.1\n")
    (tmp_path / "u4.pmf").write_text("0.25\n0.25\n0.25\n0.25\n")
    (tmp_path / "fair.pmf").write_text("0.5\n0.5\n")
    assert run(capsys, command.split()) == (0, README_EXAMPLES[command])


def test_readme_shell_block_runs(capsys, tmp_path, monkeypatch):
    """Every `taskcodes` line of README.md's sh block, after the `printf`
    lines before it have written their files, prints CSV with exit 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [block for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
                if re.search(r"^taskcodes ", block, flags=re.M)]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[0] == "printf":
            text, redirect, name = words[1:]
            assert redirect == ">", line
            (tmp_path / name).write_text(text.replace("\\n", "\n"))
            continue
        assert words[0] == "taskcodes", line
        code = main(words[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), line
        lines = captured.out.splitlines()
        header = next(i for i, row in enumerate(lines) if "," in row)
        widths = {row.count(",") for row in lines[header:]}
        assert len(lines) > header + 1 and widths == {lines[header].count(",")}, line
        commands += 1
    assert commands > 0
