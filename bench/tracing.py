"""Spans recorded from outside the library, and the per-layer metrics
computed from them.

The traced run replaces module attributes of gossipsim (the names one
module imported from another, such as ``gossipsim.engine.connectivity``)
with wrappers that record a span per call: name, start, end and parent.
Spans stay in memory and are written out when a run ends; the parent
benchmark process reads them back and computes self times.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter_ns

# Bookkeeping spans the benchmark adds around its own counting, so the
# counting time is not charged to the layer that encloses it.
COUNT_SPAN = "bench.count"
ROUND_SPAN = "round"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.reset()
        # a forked sweep worker starts with an empty record of its own
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.counts: dict = {}
        self._stack: list = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    def discard(self, idx: int) -> None:
        """Drop the innermost open span, which must have no children."""
        if self._stack.pop() != idx or idx != len(self.names) - 1:
            raise RuntimeError("only the last, innermost span can be discarded")
        for column in (self.names, self.start, self.end, self.parent):
            column.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call.  ``count(tracer, result, args)``
        runs after the span closes, inside a COUNT_SPAN sibling."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if count is not None:
                cidx = self.begin(COUNT_SPAN)
                count(self, out, args)
                self.finish(cidx)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write the spans and counts out and start an empty record."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        payload = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        open_spans = self._stack
        self.reset()
        if open_spans:
            raise RuntimeError("dump with spans still open")


def _links(tracer, adj, args):
    n = adj.edges.shape[0]
    tracer.add("links", (int(adj.edges.sum()) - n) // 2)


def _dropped(tracer, access, args):
    before = args[0].accessible
    tracer.add("dropped", int((before & ~access.accessible).sum()))


def patch_table(gossipsim):
    """(module, attribute, span name, counter) for every wrapped call.

    The engine and config modules call these through their own module
    globals, so replacing the attribute there catches every call the
    simulation makes while leaving the library's code untouched."""
    engine, config, cli = gossipsim.engine, gossipsim.config, gossipsim.cli
    return [
        (engine, "advance_round", "engine.advance_round", None),
        (engine, "step_mobility", "mobility.step", None),
        (engine, "connectivity", "mobility.connectivity", _links),
        (engine, "step_accessibility", "accessibility.step", _dropped),
        (engine, "build_gossip_matrix", "gossip.build", None),
        (engine, "deemphasize_rejoined", "gossip.deemphasize", None),
        (engine, "gossip_average", "gossip.mix", None),
        (engine, "local_gradient", "objective.sgd_grad", None),
        (engine, "gradient_gap", "diagnostics.gradient_gap", None),
        (engine, "gradient_gap_bound", "diagnostics.gap_bound", None),
        (engine, "full_average", "diagnostics.averages", None),
        (engine, "partial_average", "diagnostics.averages", None),
        (engine, "distance_to_optimum", "diagnostics.averages", None),
        (engine, "global_loss", "objective.global_loss", None),
        (engine, "global_accuracy", "objective.global_accuracy", None),
        (engine, "grad_bound_estimate", "objective.grad_bound", None),
        (config, "build_suite", "objective.build_suite", None),
        (config, "synthetic_blobs", "dataparts.blobs", None),
        (config, "partition", "dataparts.partition", None),
        (cli, "load_run_config", "config.load", None),
        (cli, "write_trace_csv", "diagnostics.write_trace", None),
    ]


def install(tracer: Tracer, gossipsim) -> None:
    for module, attr, name, count in patch_table(gossipsim):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))


# Layer metrics read from span totals: per round, and per call (once a run).
_PER_ROUND_SPANS = {
    "diagnostics.gradient_gap_ms": "diagnostics.gradient_gap",
    "diagnostics.gap_bound_ms": "diagnostics.gap_bound",
    "diagnostics.averages_ms": "diagnostics.averages",
    "objective.global_loss_ms": "objective.global_loss",
    "objective.global_accuracy_ms": "objective.global_accuracy",
    "objective.sgd_grad_ms": "objective.sgd_grad",
    "mobility.step_ms": "mobility.step",
    "mobility.connectivity_ms": "mobility.connectivity",
    "accessibility.step_ms": "accessibility.step",
    "gossip.build_ms": "gossip.build",
    "gossip.deemphasize_ms": "gossip.deemphasize",
    "gossip.mix_ms": "gossip.mix",
}
_PER_RUN_SPANS = {
    "diagnostics.write_trace_ms": "diagnostics.write_trace",
    "objective.build_suite_ms": "objective.build_suite",
    "objective.grad_bound_ms": "objective.grad_bound",
    "dataparts.blobs_ms": "dataparts.blobs",
    "dataparts.partition_ms": "dataparts.partition",
    "config.load_ms": "config.load",
    "cli.check_ms": "cli.check",
}
# Shares of round time used to confirm what each workload stresses.
SHARES = {
    "round_share.diagnostics": (
        "diagnostics.gradient_gap", "diagnostics.gap_bound", "diagnostics.averages",
        "objective.global_loss", "objective.global_accuracy",
    ),
    "round_share.sgd": ("objective.sgd_grad",),
    "round_share.network": (
        "mobility.step", "mobility.connectivity", "accessibility.step",
        "gossip.build", "gossip.deemphasize", "gossip.mix",
    ),
}

PER_LAYER = (
    [(m, "ms", "lower") for m in _PER_ROUND_SPANS]
    + [(m, "ms", "lower") for m in _PER_RUN_SPANS]
    + [
        ("engine.round_self_ms", "ms", "lower"),
        ("engine.trace_self_ms", "ms", "lower"),
        ("objective.sgd_grad_calls", "count", "lower"),
        ("diagnostics.trace_bytes", "bytes", "lower"),
        ("mobility.links", "count", "higher"),
        ("accessibility.dropped", "count", "lower"),
        ("gossip.active_frac", "fraction", "higher"),
        ("gossip.rejoined", "count", "lower"),
        ("cli.serial_s", "s", "lower"),
        ("cli.pool_speedup", "ratio", "higher"),
        ("trace_overhead_frac", "fraction", "lower"),
    ]
    + [(m, "fraction", "higher") for m in SHARES]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def load_parts(paths) -> list:
    parts = []
    for path in paths:
        with open(path) as fh:
            parts.append(json.load(fh))
    return parts


def summarize(parts) -> dict:
    """Per-name totals over the span records of one traced repeat:
    inclusive time, self time, call count, time inside round spans."""
    total, self_time, calls, in_round = {}, {}, {}, {}
    counts: dict = {}
    for part in parts:
        names = [part["names"][i] for i in part["name"]]
        start, end, parent = part["start"], part["end"], part["parent"]
        dur = [e - s for s, e in zip(start, end)]
        child = [0] * len(names)
        inside = [False] * len(names)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
                inside[i] = names[p] == ROUND_SPAN or inside[p]
        for i, name in enumerate(names):
            total[name] = total.get(name, 0) + dur[i]
            self_time[name] = self_time.get(name, 0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if inside[i]:
                in_round[name] = in_round.get(name, 0) + dur[i]
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"total": total, "self": self_time, "calls": calls, "in_round": in_round,
            "counts": counts}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced repeat from :func:`summarize`.
    A layer the workload never calls reads 0."""
    total, self_time, calls = summary["total"], summary["self"], summary["calls"]
    counts = summary["counts"]
    rounds = counts.get("rounds", 0)
    runs = counts.get("runs", 0)
    if rounds < 1 or runs < 1:
        raise ValueError("traced repeat recorded no rounds")

    def per_call_ms(span):
        return total.get(span, 0) / calls[span] / 1e6 if span in calls else 0.0

    def self_per_call_ms(span):
        return self_time.get(span, 0) / calls[span] / 1e6 if span in calls else 0.0

    out = {m: total.get(s, 0) / rounds / 1e6 for m, s in _PER_ROUND_SPANS.items()}
    out.update({m: per_call_ms(s) for m, s in _PER_RUN_SPANS.items()})
    out["engine.round_self_ms"] = self_per_call_ms("engine.advance_round")
    out["engine.trace_self_ms"] = self_per_call_ms(ROUND_SPAN)
    out["objective.sgd_grad_calls"] = calls.get("objective.sgd_grad", 0) / rounds
    out["diagnostics.trace_bytes"] = counts.get("trace_bytes", 0) / runs
    out["mobility.links"] = counts.get("links", 0) / rounds
    out["accessibility.dropped"] = counts.get("dropped", 0) / rounds
    out["gossip.active_frac"] = counts.get("active", 0) / counts["node_rounds"]
    out["gossip.rejoined"] = counts.get("rejoined", 0) / rounds
    round_time = summary["total"].get(ROUND_SPAN, 0)
    for metric, spans in SHARES.items():
        inside = sum(summary["in_round"].get(s, 0) for s in spans)
        out[metric] = inside / round_time if round_time else 0.0
    return out
