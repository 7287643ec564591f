"""Command-line harness: entropy tables, encoder construction, moment
evaluation, brute-force oracles, block-length sweeps (matched, or with the
encoder designed for a mismatched law via `sweep --q`), and divergence
tables.

Exit codes: 0 success, 1 usage/config error, 2 numeric precondition
violation or overflow, 3 enumeration cap exceeded or a type table too large
to allocate.  Output is CSV ('.' decimal separator, 12 significant digits,
LF line endings); identical inputs give byte-identical output.
"""

import argparse
import functools
import math
import os
import sys

from .errors import (
    CapExceededError,
    DescriptionCountTooSmallError,
    InvalidOrderError,
    RateTooSmallError,
    TaskCodesError,
)
from .partitions import LambdaBudget, Partition, build_partition, kraft_sum
from .probability import (
    DEFAULT_TUPLE_CAP,
    _rho_order,
    kl_divergence,
    markov_renyi_sums,
    read_markov_text,
    read_pmf_text,
    renyi_entropy,
    renyi_rho,
)
from .coding import (
    MomentReport,
    _row,
    as_rate,
    block_experiment,
    brute_force_optimum,
    build_encoder,
    fmt,
    moment,
)
from .mismatch import renyi_divergence, sundaresan_divergence


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failures are UsageErrors: main prints them as
    one error line, with no usage block."""

    def error(self, message: str):
        raise UsageError(message)


def _load(path: str, parse):
    """parse(text of the file at path), with a read failure or its
    ValueError as a UsageError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a parse error, or text that is not UTF-8
        raise UsageError(f"{path}: {exc}") from None


# argparse types.  A UsageError passes through argparse unchanged (it only
# rewords ValueError, TypeError and ArgumentTypeError), so these messages
# reach stderr word for word.

def _positive(name: str):
    """The type of a positive integer setting called name."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise UsageError(f"{name} must be a positive integer, got {text!r}")
        return value
    return parse


def _rate(text: str):
    try:
        return as_rate(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rate {text!r}; expected a decimal or a fraction") from None


def _floats(spec: str) -> list[float]:
    try:
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad alpha list {spec!r}") from None


def _n_range(spec: str) -> range:
    """A..B as the block lengths A, A+1, ..., B (--step slices it)."""
    try:
        lo_s, hi_s = spec.split("..")
        ns = range(int(lo_s), int(hi_s) + 1)
    except ValueError:
        raise UsageError(f"bad n-range {spec!r}; expected A..B") from None
    if not ns or ns[0] < 1:
        raise UsageError(f"n-range {spec!r} is empty or not positive")
    return ns


def _emit(lines: list[str], out: str | None) -> None:
    payload = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None


def cmd_entropy(args) -> list[str]:
    orders = args.alpha if args.rho is None else args.rho
    if args.pmf is not None:
        p = _load(args.pmf, read_pmf_text)
        head, entropy = ("alpha", renyi_entropy) if args.rho is None else ("rho", renyi_rho)
        return [f"{head},entropy_bits", *(f"{fmt(o)},{fmt(entropy(p, o))}" for o in orders)]
    src = _load(args.markov, read_markov_text)
    if args.n is None:
        raise UsageError("entropy --markov needs --n")
    if len(orders) != 1:
        raise UsageError("entropy --markov takes a single --alpha or --rho")
    alpha = orders[0] if args.rho is None else _rho_order(orders[0])
    ns = args.n[::args.step]
    return ["n,entropy_rate_bits",
            *(f"{n},{fmt(h / n)}" for n, h in zip(ns, markov_renyi_sums(src, alpha, ns)))]


def cmd_construct(args) -> list[str]:
    if args.budgets is not None:
        part = build_partition(_load(args.budgets, LambdaBudget.from_text))
        return [*part.to_text().splitlines(),
                f"# blocks={part.num_blocks} kraft_sum={kraft_sum(part)}"]
    if args.M is None or args.rho is None:
        raise UsageError("construct --pmf needs --M and --rho")
    p = _load(args.pmf, read_pmf_text)
    part = build_encoder(p, args.rho, args.M)
    report = _row(p, args.rho, args.M, None, 1, math.nan, part.num_blocks,
                  moment(p, part, args.rho))
    return [*part.to_text().splitlines(), MomentReport.CSV_HEADER, report.csv_row()]


def cmd_moment(args) -> list[str]:
    p = _load(args.pmf, read_pmf_text)
    part = _load(args.partition, Partition.from_text)
    return [fmt(moment(p, part, args.rho))]


def cmd_oracle(args) -> list[str]:
    p = _load(args.pmf, read_pmf_text)
    value, part = brute_force_optimum(p, args.M, args.rho)
    return [fmt(value), *part.to_text().splitlines()]


def cmd_sweep(args) -> list[str]:
    design = None
    if args.markov is not None:
        if args.q is not None:
            raise UsageError("mismatched sweeps need --pmf, not --markov")
        source = _load(args.markov, read_markov_text)
    else:
        source = _load(args.pmf, read_pmf_text)
        if args.q is not None:
            design = _load(args.q, read_pmf_text)
    rows = [block_experiment(source, n, args.rate, args.rho, design, args.cap)
            for n in args.n[::args.step]]
    lines = [MomentReport.CSV_HEADER]
    suffix = ""
    if design is not None:
        lines[0] += ",q_id,delta_bits"
        bits = sundaresan_divergence(source, design, _rho_order(args.rho))
        name = os.path.basename(args.q)
        if any(c in name for c in ',"\r\n'):  # quoted as one RFC 4180 field
            name = '"' + name.replace('"', '""') + '"'
        suffix = f",{name},{fmt(bits)}"
    lines.extend(report.csv_row() + suffix for report in rows)
    return lines


def cmd_mismatch(args) -> list[str]:
    p = _load(args.pmf, read_pmf_text)
    q = _load(args.q, read_pmf_text)
    alphas = [0.25, 0.5, 2.0, 4.0] if args.alpha is None else args.alpha
    lines = ["alpha,delta,renyi_div,kl"]
    kl = kl_divergence(p, q)
    for alpha in alphas:
        d = sundaresan_divergence(p, q, alpha)
        r = renyi_divergence(p, q, alpha)
        lines.append(f"{fmt(alpha)},{fmt(d)},{fmt(r)},{fmt(kl)}")
    return lines


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskcodes",
        description="Task-description codes: constructions, bounds, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str):
        """Add a subcommand with its --out flag; return its parser."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--out", help="output file (default: stdout)")
        return sp

    def one_of(sp):
        """The add_argument of a group of sp's flags: exactly one is given."""
        return sp.add_mutually_exclusive_group(required=True).add_argument

    sp = command("entropy", cmd_entropy, "Renyi entropy tables")
    source, order, arg = one_of(sp), one_of(sp), sp.add_argument
    source("--pmf", help="PMF file: one probability per line")
    source("--markov", help="Markov source file")
    order("--alpha", type=_floats, help="comma-separated entropy orders")
    order("--rho", type=_floats, help="comma-separated moment orders")
    arg("--n", type=_n_range, help="block-length range A..B")
    arg("--step", type=_positive("--step"), default=1, help="range step")

    sp = command("construct", cmd_construct, "build an encoder or a partition")
    mode, arg = one_of(sp), sp.add_argument
    mode("--pmf", help="PMF file: one probability per line")
    mode("--budgets", help="budget file: one integer or 'inf' per line")
    arg("--M", type=int, help="description count M")
    arg("--rho", type=float, help="moment order rho")

    arg = command("moment", cmd_moment, "moment of an explicit partition").add_argument
    arg("--pmf", required=True, help="PMF file: one probability per line")
    arg("--rho", type=float, required=True, help="moment order rho")
    arg("--partition", required=True, help="partition text file")

    arg = command("oracle", cmd_oracle, "exhaustive optimum (|X| <= 10)").add_argument
    arg("--pmf", required=True, help="PMF file: one probability per line")
    arg("--M", type=_positive("--M"), required=True, help="description count M")
    arg("--rho", type=float, required=True, help="moment order rho")

    sp = command("sweep", cmd_sweep, "block-length experiments over n")
    source, arg = one_of(sp), sp.add_argument
    source("--pmf", help="PMF file: one probability per line")
    source("--markov", help="Markov source file")
    arg("--q", help="mismatched design law (PMF file)")
    arg("--rate", type=_rate, required=True, help="rate R in bits/symbol")
    arg("--rho", type=float, required=True, help="moment order rho")
    arg("--n", type=_n_range, required=True, help="block-length range A..B")
    arg("--step", type=_positive("--step"), default=1, help="range step")
    arg("--cap", type=_positive("--cap"), default=DEFAULT_TUPLE_CAP, help="tuple enumeration cap")

    arg = command("mismatch", cmd_mismatch,
                  "divergence tables (mismatched sweeps: sweep --q)").add_argument
    arg("--pmf", required=True, help="PMF file: one probability per line")
    arg("--q", required=True, help="mismatched design law (PMF file)")
    # an empty --alpha, like none, asks for the default orders
    arg("--alpha", type=lambda spec: _floats(spec) if spec else None,
        help="comma-separated entropy orders")

    return parser


# exit codes of the package's errors; the others, and usage errors, exit 1
_EXIT_CODES = {DescriptionCountTooSmallError: 2, RateTooSmallError: 2,
               InvalidOrderError: 2, CapExceededError: 3}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit(args.func(args), args.out)
    except SystemExit:  # --help; every other parser failure is a UsageError
        return 0
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except (UsageError, TaskCodesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
