"""Turning stream ops into service calls, and the independent oracle.

The oracle recomputes an op with a fresh :class:`TrialRunner` built
straight from the family registry — no service, cache, coalescer or
remote executor — so a digest match checks every layer in between.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Dict

from repro.experiments.registry import get_family
from repro.montecarlo import TrialRunner
from repro.serve.service import (
    SEQUENTIAL_CONFIDENCE,
    SEQUENTIAL_INITIAL_TRIALS,
    Query,
    SequentialQuery,
)

Op = Dict[str, Any]


def to_query(op: Op):
    params = op.get("params", {})
    if op["op"] == "query":
        return Query(op["scenario"], op["p"], op["n"], op["trials"],
                     op["seed"], params)
    return SequentialQuery(op["scenario"], op["p"], op["n"],
                           op["target_width"], op["max_trials"], op["seed"],
                           op["bound"], params)


async def submit(service, op: Op):
    """One op through the in-process service API."""
    if op["op"] == "query":
        return await service.submit(to_query(op))
    return await service.submit_until(to_query(op))


def oracle_digest(op: Op) -> str:
    """SHA-256 of the op's indicators, recomputed in-process directly."""
    factory, model = get_family(op["scenario"]).build(
        op["p"], op["n"], **op.get("params", {}))
    runner = TrialRunner(factory, model)
    if op["op"] == "query":
        result = runner.run(op["trials"], op["seed"])
    else:
        result = runner.run_until(
            op["target_width"], op["max_trials"], op["seed"],
            SEQUENTIAL_CONFIDENCE, bound=op["bound"],
            initial_trials=SEQUENTIAL_INITIAL_TRIALS).result
    return sha256(result.indicators.tobytes()).hexdigest()
