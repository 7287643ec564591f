"""Spans and counters around the calls that cross taskcodes module boundaries.

The tracer wraps package functions from outside the package: a module-level
function is replaced in every taskcodes module that holds it (modules import
names directly), and a method is replaced on its class in place, so
`isinstance` checks still hold.  A span's layer is the module that owns the
wrapped function.  Spans stay in memory until the job reports them.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

PACKAGE = "taskcodes"
OVERHEAD_CALLS = 20000  # no-op calls per kind when timing the cost of one event

# package target -> span name; the span's layer is the name's first part
SPANS = {
    "probability.read_pmf_text": "probability.read",
    "probability.read_markov_text": "probability.read",
    "probability.iid_joint": "probability.joint",
    "probability.markov_joint": "probability.joint",
    "probability.JointLaw.as_pmf": "probability.as_pmf",
    "probability.markov_renyi_sum": "probability.markov_dp",
    "probability.renyi_entropy": "probability.renyi",
    "probability.renyi_rho": "probability.renyi",
    "probability.kl_divergence": "probability.kl",
    "partitions.LambdaBudget.__init__": "partitions.budget_init",
    "partitions.Partition.__init__": "partitions.partition_init",
    "partitions.Partition.cardinalities": "partitions.cardinalities",
    "partitions.build_partition": "partitions.build_partition",
    "partitions.kraft_sum": "partitions.kraft_sum",
    "coding.block_experiment": "coding.block_experiment",
    "coding.build_encoder": "coding.build_encoder",
    "coding.lambda_from_law": "coding.lambda_from_law",
    "coding.moment": "coding.moment",
    "coding.lower_bound": "coding.bounds",
    "coding.upper_bound": "coding.bounds",
    "coding.floor_pow2": "coding.floor_pow2",
    "coding.brute_force_optimum": "coding.oracle",
    "mismatch.mismatched_block_experiment": "mismatch.block_experiment",
    "mismatch.sundaresan_divergence": "mismatch.divergence",
    "mismatch.renyi_divergence": "mismatch.divergence",
}

# Hot inner functions get a counter instead of a span.
CALL_COUNTERS = {"probability.log2sumexp": "probability.log2sumexp_calls"}
ITEM_COUNTERS = {"coding._growth_strings": "coding.oracle_candidates"}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  `spans` holds (start, end, parent) triples,
    parent being an index into `spans` or None."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def inclusive_times(names, spans) -> dict[str, float]:
    """Total duration per span name, not counting a span nested inside
    another span of the same name."""
    totals: dict[str, float] = {}
    for i, (start, end, parent) in enumerate(spans):
        name = names[i]
        p = parent
        while p is not None and names[p] != name:
            p = spans[p][2]
        if p is None:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def _noop() -> None:
    return None


class Tracer:
    """Records spans and counts for one job process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [start, end, parent]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.built: list[tuple[object, int]] = []  # (budget, blocks) per build_partition
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        names, spans, stack, missing = self.names, self.spans, self._stack, self.missing

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [0.0, 0.0, stack[-1] if stack else None]
            names.append(name)
            spans.append(rec)
            stack.append(idx)
            rec[0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[1] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                try:
                    on_result(args, result)
                except (AttributeError, IndexError):
                    missing.append(f"{name} result fields")
            return result

        return wrapper

    def call_counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def item_counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _count_tuples(self, args, law) -> None:
        self.counts["probability.tuples"] += law.size

    def _count_blocks(self, args, part) -> None:
        self.counts["partitions.blocks"] += part.num_blocks
        self.built.append((args[0], part.num_blocks))

    def install(self, spans=None, call_counters=None, item_counters=None) -> None:
        """Wrap every target; a target that no longer exists is recorded in
        `missing` and skipped."""
        hooks = {
            "probability.iid_joint": self._count_tuples,
            "probability.markov_joint": self._count_tuples,
            "partitions.build_partition": self._count_blocks,
        }
        for target, name in (SPANS if spans is None else spans).items():
            self._patch(target,
                        lambda fn, name=name, t=target: self.span(name, fn, hooks.get(t)))
        for target, name in (CALL_COUNTERS if call_counters is None else call_counters).items():
            self._patch(target, lambda fn, name=name: self.call_counter(name, fn))
        for target, name in (ITEM_COUNTERS if item_counters is None else item_counters).items():
            self._patch(target, lambda fn, name=name: self.item_counter(name, fn))

    def _patch(self, target: str, make) -> None:
        module_name, *path = target.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            raw = vars(owner)[path[-1]]
        except (ImportError, AttributeError, KeyError, TypeError):
            self.missing.append(target)
            return
        if isinstance(owner, type):
            setattr(owner, path[-1], make(raw))
            return
        wrapped = make(raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)

    def blocks_over_bound(self) -> float:
        """Largest N / subset_count_bound(mu, k) over the partitions built."""
        partitions = importlib.import_module(f"{PACKAGE}.partitions")
        ratios = [n / partitions.subset_count_bound(b.mu, b.size) for b, n in self.built]
        return max(ratios, default=0.0)

    def overhead_s(self) -> float:
        """Tracing cost of this job: its span and counter events times the
        per-event cost measured here on a no-op."""
        probe = Tracer()
        per_event = {}
        for kind, wrapped in (("span", probe.span("probe.noop", _noop)),
                              ("count", probe.call_counter("probe.noop", _noop))):
            t0 = time.perf_counter()
            for _ in range(OVERHEAD_CALLS):
                _noop()
            t1 = time.perf_counter()
            for _ in range(OVERHEAD_CALLS):
                wrapped()
            t2 = time.perf_counter()
            per_event[kind] = max(0.0, ((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
        events = sum(self.counts[n] for n in (*CALL_COUNTERS.values(), *ITEM_COUNTERS.values()))
        return len(self.spans) * per_event["span"] + events * per_event["count"]

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (`<layer>.self_s`), inclusive time per span
        name (`<name>_s`), counts, and the tracing overhead of this job."""
        out: dict[str, float] = {}
        for name, self_s in zip(self.names, self_times(self.spans)):
            key = name.split(".")[0] + ".self_s"
            out[key] = out.get(key, 0.0) + self_s
        for name, total in inclusive_times(self.names, self.spans).items():
            out[name + "_s"] = total
        out.update(self.counts)
        try:
            out["partitions.blocks_over_bound"] = self.blocks_over_bound()
        except (ImportError, AttributeError):
            self.missing.append("partitions.blocks_over_bound")
        out["trace.overhead_s"] = self.overhead_s()
        return out
