"""hot-wire: one NDJSON client against a ``repro.serve`` subprocess.

Closed loop, one connection, one request in flight.  Most ops repeat
a hot set (every Monte-Carlo family, ``query`` and ``run_until``) that
the server answers from its memo; a fixed share are fresh fastsim
cells that write to the memo (LRU put/evict, journal append/compact).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calls
import common
import streams
import tracing

#: Memo capacity of the deployment: holds the hot set, the drifted
#: equalizing-mp keys and a window of fresh cells, so a hot key is
#: only recomputed when its fingerprint changed.  The journal compacts
#: past ``2 x capacity`` records.
CACHE_CAPACITY = 512
SETUPS = 3
#: The first ops of the timed stream always run, whatever the clock
#: says: recompute counts are taken over exactly this prefix, so they
#: are a function of the seed alone.
DRIFT_WINDOW = 2000
#: Fresh cells re-checked against the oracle after the timed loop.
FRESH_CHECKS = 24


class WireClient:
    """Blocking NDJSON client over one TCP connection."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=120)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def call(self, request: Dict[str, Any]
             ) -> Tuple[Dict[str, Any], float, float, int]:
        """``(response, sent_at, answered_at, bytes on the wire)``."""
        line = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        sent = time.perf_counter()
        self._sock.sendall(line)
        reply = self._reader.readline()
        answered = time.perf_counter()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply), sent, answered, len(line) + len(reply)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


async def _prepare(journal: Path, seed: int) -> Dict[Tuple, str]:
    """Compute the hot set once in-process, filling the memo journal
    the deployment replays; returns the reference digest of every op."""
    from repro.serve.service import SimulationService

    service = SimulationService(cache_capacity=CACHE_CAPACITY,
                                memo_path=str(journal))
    try:
        references = {}
        for op in streams.hot_set(seed):
            answer = await calls.submit(service, op)
            references[streams.op_key(op)] = answer.indicators_digest()
        return references
    finally:
        service.close()


def _serve_command(memo: Path, spans: Optional[Path]) -> List[str]:
    args = ["serve", "--port", "0", "--executor", "in-process",
            "--cache-capacity", str(CACHE_CAPACITY), "--memo-path", str(memo)]
    if spans is None:
        return ["-m", "repro.serve", *args]
    return [str(common.ROOT / "loadbench" / "traced_server.py"), str(spans),
            "--", *args]


def _deploy(journal: Path, work: Path, attempt: int, first_op,
            spans: Optional[Path] = None
            ) -> Tuple[common.Spawned, WireClient, float]:
    """Start a server on a copy of the journal; time to its first answer."""
    memo = work / f"memo-{attempt}.ndjson"
    shutil.copyfile(journal, memo)
    server = common.spawn(_serve_command(memo, spans), common.cpus()[0])
    try:
        client = WireClient(server.host, server.port)
        response, _, answered, _ = client.call(dict(first_op, id="setup"))
    except BaseException:
        server.stop()
        raise
    if not response.get("ok"):
        client.close()
        server.stop()
        raise RuntimeError(f"setup query failed: {response}")
    return server, client, answered - server.started


def _counters(client: WireClient) -> Dict[str, float]:
    stats, _, _, _ = client.call({"op": "stats", "id": "stats"})
    metrics, _, _, _ = client.call({"op": "metrics", "id": "metrics"})
    counters = metrics["metrics"]["counters"]
    compactions = sum(entry["value"] for entry in counters
                      if entry["name"] == "serve.memo.compactions")
    return {
        "hits": stats["cache"]["hits"], "misses": stats["cache"]["misses"],
        "evictions": stats["cache"]["evictions"],
        "rejected": stats["admission"]["rejected"],
        "joined": stats["coalescer"]["joined"],
        "compactions": compactions,
    }


def _timed_loop(client: WireClient, seed: int, seconds: float,
                references: Dict[Tuple, str], outcome: common.Outcome,
                ) -> Dict[str, Any]:
    """Run the closed loop; check every answer as it arrives."""
    stream = streams.hot_stream(seed)
    ops: List[Tuple[float, float]] = []
    wire, hits, sizes = [], [], []
    recomputes: Counter = Counter()
    fresh: List[Tuple[Dict[str, Any], str]] = []
    extensions = 0
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < DRIFT_WINDOW or time.perf_counter() < deadline:
        op, is_fresh = next(stream)
        outcome.attempted += 1
        response, sent, answered, size = client.call(dict(op, id=index))
        ops.append((sent, answered))
        sizes.append(size)
        if not response.get("ok"):
            outcome.fail(f"op {index} {op['scenario']}: {response}")
        else:
            digest = response["indicators_sha256"]
            key = streams.op_key(op)
            if is_fresh:
                fresh.append((op, digest))
            elif digest != references[key]:
                outcome.fail(f"op {index} {op['scenario']}: digest differs "
                             f"from its first answer")
            elapsed = response["elapsed_ms"] / 1000.0
            wire.append(answered - sent - elapsed)
            if response["source"] == "cache":
                hits.append(elapsed)
            elif not is_fresh and index < DRIFT_WINDOW:
                recomputes[op["scenario"]] += 1
            extensions += len(response.get("steps", ()))
        index += 1
    elapsed_s = time.perf_counter() - start
    return {"ops": ops, "elapsed": elapsed_s, "wire": wire, "hits": hits,
            "sizes": sizes, "recomputes": recomputes, "fresh": fresh,
            "extensions": extensions}


def _pass(journal: Path, work: Path, seed: int, seconds: float,
          references: Dict[Tuple, str], outcome: common.Outcome,
          setups: int, spans: Optional[Path] = None) -> Dict[str, Any]:
    """Deploy (``setups`` times, keeping the last), warm, run, tear down."""
    hot = streams.hot_set(seed)
    setup_times = []
    server = client = None
    try:
        for attempt in range(setups):
            if server is not None:
                client.close()
                server.stop()
            server, client, seconds_to_answer = _deploy(
                journal, work, attempt, hot[0], spans)
            setup_times.append(seconds_to_answer)
        for index, op in enumerate(hot):   # warm: every hot op once
            response, _, _, _ = client.call(dict(op, id=f"warm{index}"))
            if not response.get("ok"):
                outcome.fail(f"warm-up {op['scenario']}: {response}")
        before = _counters(client)
        run = _timed_loop(client, seed, seconds, references, outcome)
        after = _counters(client)
        run["counters"] = {key: after[key] - before[key] for key in after}
        run["setup"] = setup_times
        run["rss"] = server.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
    return run


def _check_fresh(run: Dict[str, Any], outcome: common.Outcome) -> None:
    for op, digest in run["fresh"][:FRESH_CHECKS]:
        if calls.oracle_digest(op) != digest:
            outcome.fail(f"fresh {op['scenario']} seed {op['seed']}: wire "
                         f"digest differs from an in-process recompute")


def _journal_replay_s(journal: Path, work: Path) -> float:
    from repro.serve.persistence import MemoJournal

    times = []
    for attempt in range(5):
        copy = work / f"replay-{attempt}.ndjson"
        shutil.copyfile(journal, copy)
        memo = MemoJournal(copy)
        start = time.perf_counter()
        memo.load()
        times.append(time.perf_counter() - start)
        memo.close()
    return statistics.median(times)


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    outcome = common.Outcome()
    common.pin_self(common.cpus()[0])   # the server shares this CPU
    work = common.work_dir()
    try:
        journal = work / "memo.ndjson"
        references = asyncio.run(_prepare(journal, seed))
        plain = _pass(journal, work, seed, seconds, references, outcome,
                      SETUPS)
        _check_fresh(plain, outcome)
        counters = plain["counters"]
        if counters["rejected"]:
            outcome.fail(f"admission rejected {counters['rejected']} ops")
        common.end_to_end(outcome, plain["ops"], plain["elapsed"],
                          plain["setup"], plain["rss"])
        outcome.notes["recomputes"] = dict(plain["recomputes"])
        if not trace:
            return outcome
        spans_path = work / "spans.json"
        traced = _pass(journal, work, seed, seconds, references, outcome, 1,
                       spans=spans_path)
        log = tracing.SpanLog.load(str(spans_path))
        lookups = counters["hits"] + counters["misses"]
        outcome.put("protocol.wire_ms_p50",
                    1000.0 * common.median(plain["wire"]), "ms")
        outcome.put("protocol.bytes_per_op",
                    statistics.fmean(plain["sizes"]), "bytes")
        outcome.put("service.hit_ms_p50",
                    1000.0 * common.median(plain["hits"]), "ms")
        outcome.put("cache.hit_ratio",
                    counters["hits"] / lookups if lookups else 0.0, "ratio")
        outcome.put("cache.evictions", counters["evictions"], "count")
        outcome.put("cache.recomputes",
                    sum(plain["recomputes"].values()), "count")
        for family in streams.MONTECARLO_FAMILIES:
            outcome.put(f"cache.recomputes.{family}",
                        plain["recomputes"].get(family, 0), "count")
        outcome.put("journal.replay_s", _journal_replay_s(journal, work), "s")
        outcome.put("journal.compactions", counters["compactions"], "count")
        outcome.put("admission.rejected", counters["rejected"], "count")
        outcome.put("coalesce.joined", counters["joined"], "count")
        outcome.put("run_until.extensions", plain["extensions"], "count")
        appends = tracing.durations(log, traced["ops"], "journal", "append")
        outcome.put("journal.append_us_p50",
                    1e6 * common.median(appends), "us")
        tracing.report(outcome, traced["ops"], traced["elapsed"], log,
                       len(plain["ops"]) / plain["elapsed"])
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)

