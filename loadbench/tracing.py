"""In-memory spans around the program's layer entry points.

Tracing wraps public functions of each layer from the outside
(monkeypatching for the duration of a traced pass) and records
``(layer, name, start, end, count)`` tuples in a list; nothing is
written until the pass ends.  ``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, shared by every process, so spans
recorded inside the server process line up with the client's op
intervals.

Layers, outermost first (a span's *self time* is its duration minus
the time its nested spans cover):

========== ==============================================================
protocol   ``json.loads`` / ``json.dumps`` as called by
           ``repro.serve.protocol`` (request decode, response encode)
service    ``SimulationService.submit`` / ``submit_until``
dispatch   ``TrialRunner(...)``, ``dispatch_entry()``,
           ``dispatch_backend()``
fingerprint ``scenario_fingerprint`` as called by the service
cache      ``ResultCache.get`` / ``put``
journal    ``MemoJournal.append`` / ``compact``
tier.*     ``TrialRunner.run`` / ``run_until``, by result backend
executor   ``RemoteSocketExecutor.run_sharded``
worker     the kernel seconds the workers report for the call's shards,
           summed and divided by the shards that ran in parallel; placed
           at the start of its ``run_sharded`` span, so executor self
           time is transport
========== ==============================================================

The time of an op (client-measured) that no span covers is the
*unattributed residual*: socket and event-loop time for the wire
workload, thread hand-off and answer assembly in-process.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import median

Span = Tuple[str, str, float, float, int]

LAYERS = ("protocol", "service", "dispatch", "fingerprint", "cache",
          "journal", "tier.fastsim", "tier.batchsim", "tier.engine",
          "executor", "worker")


class SpanLog:
    """Spans and sharded-call records of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(wall_s, worker_kernel_critical_path_s)`` per sharded call.
        self.sharded: List[Tuple[float, float]] = []

    def add(self, layer: str, name: str, start: float, end: float,
            count: int = 0) -> None:
        self.spans.append((layer, name, start, end, count))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as handle:
            json.dump({"spans": self.spans, "sharded": self.sharded}, handle)

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        with open(path, encoding="utf8") as handle:
            data = json.load(handle)
        log = cls()
        log.spans = [tuple(item) for item in data["spans"]]
        log.sharded = [tuple(item) for item in data["sharded"]]
        return log


def _tier_of(result: Any) -> Tuple[str, int]:
    backend = str(getattr(result, "backend", "engine"))
    return "tier." + backend.split(":", 1)[0], int(result.trials)


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    from repro.montecarlo.executors.remote import RemoteSocketExecutor
    from repro.montecarlo.trials import TrialRunner
    from repro.obs import get_registry
    from repro.serve import protocol, service
    from repro.serve.cache import ResultCache
    from repro.serve.persistence import MemoJournal

    clock = time.perf_counter
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def timed(layer: str, owner: Any, attribute: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                log.add(layer, attribute, start, clock())

        patch(owner, attribute, wrapper)

    def timed_async(owner: Any, attribute: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                log.add("service", attribute, start, clock())

        patch(owner, attribute, wrapper)

    def timed_tier(attribute: str) -> None:
        original = getattr(TrialRunner, attribute)

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            start = clock()
            result = original(self, *args, **kwargs)
            layer, trials = _tier_of(result)
            log.add(layer, attribute, start, clock(), trials)
            return result

        patch(TrialRunner, attribute, wrapper)

    shard_seconds = get_registry().histogram(
        "mc.executor.shard.seconds", backend=RemoteSocketExecutor.name)
    original_sharded = RemoteSocketExecutor.run_sharded

    @functools.wraps(original_sharded)
    def run_sharded(self, function, shard_args, on_result=None):
        kernel_before, shards_before = shard_seconds.sum, shard_seconds.count
        start = clock()
        try:
            return original_sharded(self, function, shard_args, on_result)
        finally:
            end = clock()
            kernel = shard_seconds.sum - kernel_before
            shards = shard_seconds.count - shards_before
            critical = kernel / max(1, min(self.worker_count(), shards))
            log.add("executor", "run_sharded", start, end, len(shard_args))
            log.add("worker", "kernel", start, min(end, start + critical),
                    shards)
            log.sharded.append((end - start, critical))

    patch(RemoteSocketExecutor, "run_sharded", run_sharded)

    timed_async(service.SimulationService, "submit")
    timed_async(service.SimulationService, "submit_until")
    timed("fingerprint", service, "scenario_fingerprint")
    timed("cache", ResultCache, "get")
    timed("cache", ResultCache, "put")
    timed("journal", MemoJournal, "append")
    timed("journal", MemoJournal, "compact")
    timed("dispatch", TrialRunner, "__init__")
    timed("dispatch", TrialRunner, "dispatch_entry")
    timed("dispatch", TrialRunner, "dispatch_backend")
    timed_tier("run")
    timed_tier("run_until")

    class TracedJson:
        """``json`` as seen by the wire protocol, with timed codecs."""

        JSONDecodeError = json.JSONDecodeError

        @staticmethod
        def loads(*args, **kwargs):
            start = clock()
            try:
                return json.loads(*args, **kwargs)
            finally:
                log.add("protocol", "loads", start, clock())

        @staticmethod
        def dumps(*args, **kwargs):
            start = clock()
            try:
                return json.dumps(*args, **kwargs)
            finally:
                log.add("protocol", "dumps", start, clock())

    patch(protocol, "json", TracedJson)

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


# -- attribution ------------------------------------------------------------


def attribute(ops: Sequence[Tuple[float, float]],
              spans: Sequence[Span]) -> Dict[str, Any]:
    """Self time per layer, the residual, and per-op layer figures.

    ``ops`` are the client-measured ``(start, end)`` intervals of the
    timed ops; at most one op is in flight, so a span belongs to the op
    whose interval holds its start.  Spans of one op nest; each span's
    parent is the innermost earlier span still open at its start.
    """
    ordered = sorted(spans, key=lambda span: (span[2], -span[3]))
    self_time = {layer: 0.0 for layer in LAYERS}
    residual = 0.0
    total = 0.0
    per_op_service_overhead: List[float] = []
    per_op_dispatch: List[float] = []
    cursor = 0
    for op_start, op_end in sorted(ops):
        while cursor < len(ordered) and ordered[cursor][2] < op_start:
            cursor += 1
        inside = []
        while cursor < len(ordered) and ordered[cursor][2] <= op_end:
            inside.append(ordered[cursor])
            cursor += 1
        total += op_end - op_start
        covered = 0.0
        stack: List[List[Any]] = []   # [layer, start, end, child_time]
        tier_time = service_time = dispatch_time = 0.0

        def close(frame: List[Any]) -> None:
            layer, start, end, children = frame
            self_time[layer] = self_time.get(layer, 0.0) + max(
                0.0, (end - start) - children)

        for layer, _, start, end, _ in inside:
            end = min(end, op_end)
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                end = min(end, parent[2])
                parent[3] += end - start
            else:
                covered += end - start
            if layer.startswith("tier."):
                tier_time += end - start
            elif layer == "service":
                service_time += end - start
            elif layer == "dispatch":
                dispatch_time += end - start
            stack.append([layer, start, end, 0.0])
        while stack:
            close(stack.pop())
        residual += max(0.0, (op_end - op_start) - covered)
        if service_time:
            per_op_service_overhead.append(service_time - tier_time)
        if dispatch_time:
            per_op_dispatch.append(dispatch_time)
    return {
        "self": self_time, "residual": residual, "total": total,
        "ops": len(ops), "service_overhead": per_op_service_overhead,
        "dispatch": per_op_dispatch,
    }


def durations(log: SpanLog, ops: Sequence[Tuple[float, float]],
              layer: str, name: Optional[str] = None) -> List[float]:
    """Durations of a layer's spans that start inside the timed window."""
    if not ops:
        return []
    first, last = ops[0][0], ops[-1][1]
    return [end - start for span_layer, span_name, start, end, _ in log.spans
            if span_layer == layer and (name is None or span_name == name)
            and first <= start <= last]


def report(outcome, ops: List[Tuple[float, float]], elapsed: float,
           log: SpanLog, plain_ops_per_s: float) -> None:
    """Put the span-derived per-layer metrics every workload shares.

    ``outcome`` is a :class:`common.Outcome`; ``plain_ops_per_s`` is the
    untraced pass's throughput, the base of the tracing-overhead ratio.
    """
    attributed = attribute(ops, log.spans)
    count = max(attributed["ops"], 1)
    for layer in LAYERS:
        outcome.put(f"self.{layer}",
                    1000.0 * attributed["self"][layer] / count, "ms/op")
    outcome.put("trace.residual", 1000.0 * attributed["residual"] / count,
                "ms/op")
    outcome.put("trace.residual_share",
                attributed["residual"] / attributed["total"]
                if attributed["total"] else 0.0, "ratio")
    outcome.put("trace.overhead", (len(ops) / elapsed) / plain_ops_per_s,
                "ratio")
    outcome.put("fingerprint.us_p50",
                1e6 * median(durations(log, ops, "fingerprint")), "us")
    outcome.put("dispatch.resolve_ms",
                1000.0 * median(attributed["dispatch"]), "ms")
    outcome.put("service.overhead_ms",
                1000.0 * median(attributed["service_overhead"]), "ms")
    first, last = (ops[0][0], ops[-1][1]) if ops else (0.0, 0.0)
    for tier in ("fastsim", "batchsim", "engine"):
        spans = [(end - start, trials)
                 for layer, _, start, end, trials in log.spans
                 if layer == f"tier.{tier}" and first <= start <= last]
        busy = sum(duration for duration, _ in spans)
        trials = sum(trial_count for _, trial_count in spans)
        outcome.put(f"tier.{tier}.busy_s", busy, "s")
        outcome.put(f"tier.{tier}.trials_per_s",
                    trials / busy if busy else 0.0, "1/s")
