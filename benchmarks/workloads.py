"""Benchmark workloads: the CLI calls one job makes and the input files it reads.

The seed drives the 64-state Markov chain and the |X| = 10 PMF of
`exact_paths`; the Bernoulli and ternary laws of the sweeps are literals.
The seed picks one of VARIANTS input sets, so every input the benchmark
can generate has a stored reference output.
"""
from __future__ import annotations

import hashlib
import json
import random

VARIANTS = 32
WORKLOADS = ("sweep_iid", "sweep_mismatch", "exact_paths")

# "full" is what the benchmark measures; "tiny" keeps the self-tests fast.
SIZES = {
    "full": {"iid_n": 20, "mismatch_n": 13, "states": 64, "chain_n": 1000, "pmf_size": 10},
    "tiny": {"iid_n": 8, "mismatch_n": 5, "states": 8, "chain_n": 50, "pmf_size": 6},
}

BERNOULLI = "0.9\n0.1\n"
TERNARY_P = "0.5\n0.3\n0.2\n"
TERNARY_Q = "0.6\n0.3\n0.1\n"


def _row(r: random.Random, k: int) -> list[str]:
    weights = [r.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(weights)
    return [repr(w / total) for w in weights]


def pmf_text(r: random.Random, k: int) -> str:
    return "\n".join(_row(r, k)) + "\n"


def markov_text(r: random.Random, k: int) -> str:
    lines = [str(k), " ".join(_row(r, k))]
    lines += [" ".join(_row(r, k)) for _ in range(k)]
    return "\n".join(lines) + "\n"


def job(workload: str, seed: int, size: str = "full") -> tuple[dict[str, str], list[list[str]]]:
    """(input files by name, CLI argv lists) for one job of a workload."""
    s = SIZES[size]
    if workload == "sweep_iid":
        n = s["iid_n"]
        return {"bern.pmf": BERNOULLI}, [
            ["sweep", "--pmf", "bern.pmf", "--rate", "0.9", "--rho", "1", "--n", f"{n}..{n}"],
        ]
    if workload == "sweep_mismatch":
        n = s["mismatch_n"]
        return {"p.pmf": TERNARY_P, "q.pmf": TERNARY_Q}, [
            ["sweep", "--pmf", "p.pmf", "--q", "q.pmf", "--rate", "1.4", "--rho", "1",
             "--n", f"{n}..{n}"],
        ]
    if workload == "exact_paths":
        r = random.Random(f"taskcodes-bench:{seed % VARIANTS}")
        k = s["pmf_size"]
        files = {
            "chain.markov": markov_text(r, s["states"]),
            "x.pmf": pmf_text(r, k),
            "uniform.pmf": "\n".join([repr(1.0 / k)] * k) + "\n",
            "bern.pmf": BERNOULLI,
        }
        n = s["chain_n"]
        return files, [
            ["entropy", "--markov", "chain.markov", "--alpha", "0.5", "--n", f"{n}..{n}"],
            ["oracle", "--pmf", "x.pmf", "--M", "5", "--rho", "1"],
            ["mismatch", "--pmf", "x.pmf", "--q", "uniform.pmf", "--alpha", "0.25,0.5,2,4"],
            ["construct", "--pmf", "x.pmf", "--M", "8", "--rho", "1"],
            # 2^23 tuples exceed the default cap: exit 3 before any enumeration
            ["sweep", "--pmf", "bern.pmf", "--rate", "0.9", "--rho", "1", "--n", "23..23"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def call_key(argv: list[str], files: dict[str, str]) -> str:
    """Reference key of one CLI call: its argv and the contents of the files it names."""
    named = {a: files[a] for a in argv if a in files}
    blob = json.dumps({"argv": argv, "files": named}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
