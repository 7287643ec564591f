"""Command-line harness: entropy tables, encoder construction, moment
evaluation, brute-force oracles, block-length sweeps (matched, or with the
encoder designed for a mismatched law via `sweep --q`), and divergence
tables.

Exit codes: 0 success, 1 usage/config error, 2 numeric precondition
violation or overflow, 3 enumeration cap exceeded.  Output is CSV ('.' decimal
separator, 12 significant digits, LF line endings); identical inputs give
byte-identical output.
"""
from __future__ import annotations

import argparse
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
    _check_alphabets,
    _check_rho,
    _data_lines,
    iid_joint,
    kl_divergence,
    markov_joint,
    markov_renyi_sum,
    read_markov_text,
    read_pmf_text,
    renyi_entropy,
    renyi_rho,
)
from .coding import (
    MomentReport,
    TaskEncoder,
    as_rate,
    block_experiment,
    brute_force_optimum,
    build_encoder,
    fmt,
    lower_bound,
    m_tilde,
    moment,
    upper_bound,
)
from .mismatch import renyi_divergence, sundaresan_divergence


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load(path: str, parse):
    """parse(text of the file at path), with its ValueError as a UsageError
    that names the file."""
    try:
        return parse(_read(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_budgets(text: str) -> LambdaBudget:
    values: list[float] = []
    for lineno, line in _data_lines(text):
        if line.lower() in ("inf", "infinity"):
            values.append(math.inf)
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: bad budget {line!r}") from None
    return LambdaBudget(values)


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value}")
    return value


def _parse_range(spec: str, step: int) -> list[int]:
    _positive("--step", step)
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"bad n-range {spec!r}; expected A..B") from None
    ns = list(range(lo, hi + 1, step))
    if not ns or any(n < 1 for n in ns):
        raise UsageError(f"n-range {spec!r} is empty or not positive")
    return ns


def _parse_alphas(spec: str) -> list[float]:
    try:
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad alpha list {spec!r}") from None


def _emit(lines: list[str], out: str | None) -> None:
    payload = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _cap(args) -> int:
    if args.cap is not None:
        return _positive("--cap", args.cap)
    env = os.environ.get("TASKCODES_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"TASKCODES_CAP={env!r} is not an integer") from None
        return _positive("TASKCODES_CAP", cap)
    return DEFAULT_TUPLE_CAP


def cmd_entropy(args) -> None:
    lines = []
    if args.pmf:
        p = _load(args.pmf, read_pmf_text)
        if args.rho is not None:
            lines.append("rho,entropy_bits")
            for rho in _parse_alphas(args.rho):
                lines.append(f"{fmt(rho)},{fmt(renyi_rho(p, rho))}")
        else:
            if args.alpha is None:
                raise UsageError("entropy --pmf needs --alpha or --rho")
            lines.append("alpha,entropy_bits")
            for alpha in _parse_alphas(args.alpha):
                lines.append(f"{fmt(alpha)},{fmt(renyi_entropy(p, alpha))}")
    elif args.markov:
        src = _load(args.markov, read_markov_text)
        if args.alpha is None or args.n is None:
            raise UsageError("entropy --markov needs --alpha and --n")
        alphas = _parse_alphas(args.alpha)
        if len(alphas) != 1:
            raise UsageError("entropy --markov takes a single --alpha")
        lines.append("n,entropy_rate_bits")
        for n in _parse_range(args.n, args.step):
            h = markov_renyi_sum(src, alphas[0], n)
            lines.append(f"{n},{fmt(h / n)}")
    else:
        raise UsageError("entropy needs --pmf or --markov")
    _emit(lines, args.out)


def cmd_construct(args) -> None:
    if args.budgets:
        part = build_partition(_load(args.budgets, _read_budgets))
        lines = part.to_text().rstrip("\n").split("\n")
        lines.append(f"# blocks={part.num_blocks} kraft_sum={kraft_sum(part)}")
        _emit(lines, args.out)
        return
    if not args.pmf:
        raise UsageError("construct needs --pmf or --budgets")
    if args.M is None or args.rho is None:
        raise UsageError("construct --pmf needs --M and --rho")
    p = _load(args.pmf, read_pmf_text)
    rho = args.rho
    enc = build_encoder(p, rho, args.M)
    lines = enc.partition.to_text().rstrip("\n").split("\n")
    lines.append(MomentReport.CSV_HEADER)
    report = MomentReport(
        n=1,
        rate=math.nan,
        rho=rho,
        description_count=args.M,
        used_count=enc.used_count,
        moment=moment(p, enc, rho),
        lower=lower_bound(p, args.M, rho),
        upper=upper_bound(p, args.M, rho),
        m_tilde=m_tilde(args.M, p.size),
        delta=math.nan,
    )
    lines.append(report.csv_row())
    _emit(lines, args.out)


def cmd_moment(args) -> None:
    if not args.pmf or args.rho is None:
        raise UsageError("moment needs --pmf and --rho")
    p = _load(args.pmf, read_pmf_text)
    part = _load(args.partition, Partition.from_text)
    enc = TaskEncoder(description_count=part.num_blocks, partition=part)
    _emit([fmt(moment(p, enc, args.rho))], args.out)


def cmd_oracle(args) -> None:
    if not args.pmf or args.M is None or args.rho is None:
        raise UsageError("oracle needs --pmf, --M and --rho")
    p = _load(args.pmf, read_pmf_text)
    value, part = brute_force_optimum(p, _positive("--M", args.M), args.rho)
    lines = [fmt(value)]
    lines.extend(part.to_text().rstrip("\n").split("\n"))
    _emit(lines, args.out)


def cmd_sweep(args) -> None:
    if args.rate is None or args.rho is None or args.n is None:
        raise UsageError("sweep needs --rate, --rho and --n")
    try:
        rate = as_rate(args.rate)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rate {args.rate!r}; expected a decimal or a fraction") from None
    cap = _cap(args)
    ns = _parse_range(args.n, args.step)
    lines = [MomentReport.CSV_HEADER]
    suffix = ""
    if args.markov:
        if args.q:
            raise UsageError("mismatched sweeps need --pmf, not --markov")
        src = _load(args.markov, read_markov_text)
        rows = [block_experiment(markov_joint(src, n, cap), rate, args.rho) for n in ns]
    elif args.pmf:
        p = _load(args.pmf, read_pmf_text)
        if args.q:
            q = _load(args.q, read_pmf_text)
            # before any row, so these errors come before the cap's and M's
            _check_rho(args.rho)
            _check_alphabets(p, q)
            rows = [block_experiment(iid_joint(p, n, cap), rate, args.rho,
                                     design=iid_joint(q, n, cap)) for n in ns]
            lines[0] += ",q_id,delta_bits"
            bits = sundaresan_divergence(p, q, 1.0 / (1.0 + args.rho)).bits
            suffix = f",{os.path.basename(args.q)},{fmt(bits)}"
        else:
            rows = [block_experiment(iid_joint(p, n, cap), rate, args.rho) for n in ns]
    else:
        raise UsageError("sweep needs --pmf or --markov")
    lines.extend(report.csv_row() + suffix for report in rows)
    _emit(lines, args.out)


def cmd_mismatch(args) -> None:
    if not args.pmf or not args.q:
        raise UsageError("mismatch needs --pmf and --q")
    p = _load(args.pmf, read_pmf_text)
    q = _load(args.q, read_pmf_text)
    alphas = _parse_alphas(args.alpha) if args.alpha else [0.25, 0.5, 2.0, 4.0]
    lines = ["alpha,delta,renyi_div,kl"]
    kl = kl_divergence(p, q)
    for alpha in alphas:
        d = sundaresan_divergence(p, q, alpha).bits
        r = renyi_divergence(p, q, alpha)
        lines.append(f"{fmt(alpha)},{fmt(d)},{fmt(r)},{fmt(kl)}")
    _emit(lines, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskcodes",
        description="Task-description codes: constructions, bounds, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pmf=True, markov=False, q=False, rate=False, M=False,
               rho=False, alpha=False, nrange=False):
        if pmf:
            sp.add_argument("--pmf", help="PMF file: one probability per line")
        if markov:
            sp.add_argument("--markov", help="Markov source file")
        if q:
            sp.add_argument("--q", help="mismatched design law (PMF file)")
        if rate:
            sp.add_argument("--rate", help="rate R in bits/symbol")
        if M:
            sp.add_argument("--M", type=int, help="description count M")
        if rho:
            sp.add_argument("--rho", type=float, help="moment order rho")
        if alpha:
            sp.add_argument("--alpha", help="comma-separated entropy orders")
        if nrange:
            sp.add_argument("--n", help="block-length range A..B")
            sp.add_argument("--step", type=int, default=1, help="range step")
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("entropy", help="Renyi entropy tables")
    common(sp, markov=True, alpha=True, nrange=True)
    sp.add_argument("--rho", help="comma-separated moment orders")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("construct", help="build an encoder or a partition")
    common(sp, M=True, rho=True)
    sp.add_argument("--budgets", help="budget file: one integer or 'inf' per line")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("moment", help="moment of an explicit partition")
    common(sp, rho=True)
    sp.add_argument("--partition", required=True, help="partition text file")
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("oracle", help="exhaustive optimum (|X| <= 10)")
    common(sp, M=True, rho=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("sweep", help="block-length experiments over n")
    common(sp, markov=True, q=True, rate=True, rho=True, nrange=True)
    sp.add_argument("--cap", type=int, default=None,
                    help="tuple enumeration cap (or env TASKCODES_CAP)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("mismatch", help="divergence tables (mismatched sweeps: "
                                         "sweep --q)")
    common(sp, q=True, alpha=True)
    sp.set_defaults(func=cmd_mismatch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DescriptionCountTooSmallError, RateTooSmallError, InvalidOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TaskCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
