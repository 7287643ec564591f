"""Command-line harness: entropy tables, encoder construction, moment
evaluation, brute-force oracles, block-length sweeps, and mismatch tables.

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
    MarkovSource,
    Pmf,
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
    lower_bound,
    m_tilde,
    moment,
    upper_bound,
)
from .mismatch import (
    mismatched_block_experiment,
    renyi_divergence,
    sundaresan_divergence,
)


class UsageError(Exception):
    pass


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.12g}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_pmf(path: str) -> Pmf:
    try:
        return read_pmf_text(_read(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_markov(path: str) -> MarkovSource:
    try:
        return read_markov_text(_read(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_budgets(path: str) -> LambdaBudget:
    values: list[float] = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() in ("inf", "infinity"):
            values.append(math.inf)
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise UsageError(f"{path}: line {lineno}: bad budget {line!r}") from None
    try:
        return LambdaBudget(values)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


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
        p = _load_pmf(args.pmf)
        if args.rho is not None:
            lines.append("rho,entropy_bits")
            for rho in _parse_alphas(args.rho):
                lines.append(f"{_fmt(rho)},{_fmt(renyi_rho(p, rho))}")
        else:
            if args.alpha is None:
                raise UsageError("entropy --pmf needs --alpha or --rho")
            lines.append("alpha,entropy_bits")
            for alpha in _parse_alphas(args.alpha):
                lines.append(f"{_fmt(alpha)},{_fmt(renyi_entropy(p, alpha))}")
    elif args.markov:
        src = _load_markov(args.markov)
        if args.alpha is None or args.n is None:
            raise UsageError("entropy --markov needs --alpha and --n")
        alphas = _parse_alphas(args.alpha)
        if len(alphas) != 1:
            raise UsageError("entropy --markov takes a single --alpha")
        lines.append("n,entropy_rate_bits")
        for n in _parse_range(args.n, args.step):
            h = markov_renyi_sum(src, alphas[0], n)
            lines.append(f"{n},{_fmt(h / n)}")
    else:
        raise UsageError("entropy needs --pmf or --markov")
    _emit(lines, args.out)


def cmd_construct(args) -> None:
    if args.budgets:
        part = build_partition(_load_budgets(args.budgets))
        lines = part.to_text().rstrip("\n").split("\n")
        lines.append(f"# blocks={part.num_blocks} kraft_sum={kraft_sum(part)}")
        _emit(lines, args.out)
        return
    if not args.pmf:
        raise UsageError("construct needs --pmf or --budgets")
    if args.M is None or args.rho is None:
        raise UsageError("construct --pmf needs --M and --rho")
    p = _load_pmf(args.pmf)
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
    p = _load_pmf(args.pmf)
    try:
        part = Partition.from_text(_read(args.partition))
    except ValueError as exc:
        raise UsageError(f"{args.partition}: {exc}") from None
    enc = TaskEncoder(description_count=part.num_blocks, partition=part)
    _emit([_fmt(moment(p, enc, args.rho))], args.out)


def cmd_oracle(args) -> None:
    if not args.pmf or args.M is None or args.rho is None:
        raise UsageError("oracle needs --pmf, --M and --rho")
    p = _load_pmf(args.pmf)
    value, part = brute_force_optimum(p, _positive("--M", args.M), args.rho)
    lines = [_fmt(value)]
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
    header = MomentReport.CSV_HEADER
    rows = []
    if args.markov:
        if args.q:
            raise UsageError("mismatched sweeps need --pmf, not --markov")
        src = _load_markov(args.markov)
        for n in ns:
            rows.append(block_experiment(markov_joint(src, n, cap), rate, args.rho))
    elif args.pmf:
        p = _load_pmf(args.pmf)
        if args.q:
            q = _load_pmf(args.q)
            header += ",q_id,delta_bits"
            for n in ns:
                rows.append(mismatched_block_experiment(p, q, rate, args.rho, n, cap))
        else:
            for n in ns:
                rows.append(block_experiment(iid_joint(p, n, cap), rate, args.rho))
    else:
        raise UsageError("sweep needs --pmf or --markov")
    lines = [header]
    for report in rows:
        row = report.csv_row()
        if args.q:
            row += f",{os.path.basename(args.q)},{_fmt(report.mismatch_bits)}"
        lines.append(row)
    _emit(lines, args.out)


def cmd_mismatch(args) -> None:
    if not args.pmf or not args.q:
        raise UsageError("mismatch needs --pmf and --q")
    p = _load_pmf(args.pmf)
    q = _load_pmf(args.q)
    if args.rate is not None:
        # delegate mismatched sweeps to the sweep machinery
        args.markov = None
        cmd_sweep(args)
        return
    alphas = _parse_alphas(args.alpha) if args.alpha else [0.25, 0.5, 2.0, 4.0]
    lines = ["alpha,delta,renyi_div,kl"]
    kl = kl_divergence(p, q)
    for alpha in alphas:
        d = sundaresan_divergence(p, q, alpha).bits
        r = renyi_divergence(p, q, alpha)
        lines.append(f"{_fmt(alpha)},{_fmt(d)},{_fmt(r)},{_fmt(kl)}")
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
        sp.add_argument("--seed", type=int, default=0,
                        help="seed recorded for reproducibility (sweeps are "
                             "deterministic)")
        sp.add_argument("--cap", type=int, default=None,
                        help="tuple enumeration cap (or env TASKCODES_CAP)")
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
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("mismatch", help="divergence tables / mismatched sweeps")
    common(sp, q=True, rate=True, rho=True, alpha=True, nrange=True)
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
