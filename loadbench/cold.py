"""sweep-cold and remote-fanout: an in-process service, cold queries.

Closed loop, one client coroutine awaiting one ``submit`` /
``submit_until`` at a time.  Every op is distinct (fresh trial seed,
per-cycle p jitter), so every op resolves a new runner and runs its
tier kernel; the cache is never hit.  The loop runs whole cycles of the
seeded stream, so a run never ends part-way through a cycle.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

import calls
import common
import streams
import tracing

SETUPS = 3


async def _closed_loop(service, rows, seed: int, seconds: float,
                       outcome: common.Outcome) -> Dict[str, Any]:
    generator = streams.cycles(rows, seed, "timed")
    ops: List[Tuple[float, float]] = []
    first_cycle: List[Tuple[Dict[str, Any], str]] = []
    extensions = 0
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        for op in next(generator):
            outcome.attempted += 1
            sent = time.perf_counter()
            try:
                answer = await calls.submit(service, op)
            except Exception as error:  # counted, reported, run goes on
                outcome.fail(f"{op['scenario']}: {type(error).__name__}: "
                             f"{error}")
                continue
            finally:
                ops.append((sent, time.perf_counter()))
            if cycle == 0:
                first_cycle.append((op, answer.indicators_digest()))
            if op["op"] == "run_until":
                extensions += len(answer.sequential.steps)
        cycle += 1
    return {"ops": ops, "elapsed": time.perf_counter() - start,
            "first_cycle": first_cycle, "extensions": extensions}


async def _warm(service, rows, seed: int) -> None:
    for op in next(streams.cycles(rows, seed, "warm", first=96)):
        await calls.submit(service, op)


def _check(run: Dict[str, Any], outcome: common.Outcome) -> None:
    """The first cycle, recomputed by the oracle outside timing."""
    for op, digest in run["first_cycle"]:
        if calls.oracle_digest(op) != digest:
            outcome.fail(f"{op['op']} {op['scenario']} p={op['p']}: digest "
                         f"differs from an in-process recompute")


class _Deployment:
    """The service plus, for remote-fanout, its worker processes."""

    def __init__(self, remote: bool, cpus: List[int]):
        from repro.montecarlo.executors.remote import RemoteSocketExecutor

        self.workers: List[common.Spawned] = []
        self.executor = None
        if remote:
            pending = []
            try:
                for _ in range(common.worker_count(cpus)):
                    pending.append(common.spawn_start(
                        ["-m", "repro.distrib", "worker", "--port", "0"],
                        cpus[0]))
                for started in pending:
                    self.workers.append(common.await_banner(started))
            except BaseException:
                for process, _ in pending:
                    common.stop_process(process)
                raise
            self.executor = RemoteSocketExecutor(
                [(worker.host, worker.port) for worker in self.workers])

    def service(self):
        from repro.serve.service import SimulationService

        return SimulationService(shard_executor=self.executor)

    def peak_rss_mb(self) -> float:
        return common.own_peak_rss_mb() + sum(
            worker.peak_rss_mb() for worker in self.workers)

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()


async def _deploy(remote: bool, cpus: List[int], outcome: common.Outcome
                  ) -> Tuple[_Deployment, Any, List[float]]:
    """Time to first answer, :data:`SETUPS` times; keep the last deployment.

    remote-fanout: spawn the workers, build the service, answer
    :data:`streams.SETUP_QUERY` over them.  sweep-cold: a fresh
    interpreter imports the service, builds it and answers the same
    query (``cold_start.py``); the timed loop then uses a service built
    here, in the load generator's process.
    """
    times: List[float] = []
    digests = set()
    deployment: Optional[_Deployment] = None
    for _ in range(SETUPS):
        if deployment is not None:
            deployment.stop()
            deployment = None
        if not remote:
            pending = common.spawn_start(
                [str(common.ROOT / "loadbench" / "cold_start.py")], cpus[0])
            line = common.read_until(pending, "answered")
            times.append(time.perf_counter() - pending[1])
            common.stop_process(pending[0])
            digests.add(line.split()[-1])
            continue
        start = time.perf_counter()
        deployment = _Deployment(remote, cpus)
        try:
            answer = await calls.submit(deployment.service(),
                                        streams.SETUP_QUERY)
        except BaseException:
            deployment.stop()
            raise
        times.append(time.perf_counter() - start)
        digests.add(answer.indicators_digest())
    if digests != {calls.oracle_digest(streams.SETUP_QUERY)}:
        outcome.fail("set-up answers differ from an in-process recompute")
    if deployment is None:
        deployment = _Deployment(False, cpus)
    return deployment, deployment.service(), times


async def _run(remote: bool, seed: int, seconds: float,
               trace: bool) -> common.Outcome:
    from repro.obs import get_registry

    rows = streams.FANOUT_ROWS if remote else streams.SWEEP_ROWS
    outcome = common.Outcome()
    registry = get_registry()
    cpus = common.cpus()
    common.pin_self(cpus[0])
    deployment, service, setup_times = await _deploy(remote, cpus, outcome)
    try:
        await _warm(service, rows, seed)
        shards_before = registry.counter_value(
            "mc.executor.shards", backend="remote-socket")
        retries_before = registry.counter_value(
            "mc.executor.retries", backend="remote-socket")
        plain = await _closed_loop(service, rows, seed, seconds, outcome)
        shards = registry.counter_value(
            "mc.executor.shards", backend="remote-socket") - shards_before
        retries = registry.counter_value(
            "mc.executor.retries", backend="remote-socket") - retries_before
        rss = deployment.peak_rss_mb()
        stats = service.stats()
        rejected = service.admission.stats().rejected
        _check(plain, outcome)
        if rejected:
            outcome.fail(f"admission rejected {rejected} ops")
        if retries:
            outcome.fail(f"{retries} shards were retried (a worker died)")
        if remote and not shards:
            outcome.fail("no shard ran on the remote workers")
        if remote:
            outcome.notes["workers"] = len(deployment.workers)
        common.end_to_end(outcome, plain["ops"], plain["elapsed"],
                          setup_times, rss)
        if not trace:
            return outcome
        lookups = stats.cache.hits + stats.cache.misses
        outcome.put("cache.hit_ratio",
                    stats.cache.hits / lookups if lookups else 0.0, "ratio")
        outcome.put("cache.evictions", stats.cache.evictions, "count")
        outcome.put("admission.rejected", rejected, "count")
        outcome.put("coalesce.joined", stats.coalesce_joined, "count")
        outcome.put("run_until.extensions", plain["extensions"], "count")
        if remote:
            pings = []
            for _ in range(20):
                start = time.perf_counter()
                alive = deployment.executor.heartbeat()
                pings.append(time.perf_counter() - start)
                if not all(alive.values()):
                    outcome.fail(f"heartbeat: {alive}")
            outcome.put("executor.shards", shards, "count")
            outcome.put("executor.retries", retries, "count")
            outcome.put("distrib.ping_ms", 1000.0 * common.median(pings),
                        "ms")

        log = tracing.SpanLog()
        restore = tracing.install(log)
        try:
            traced = await _closed_loop(deployment.service(), rows, seed,
                                        seconds, outcome)
        finally:
            restore()
        tracing.report(outcome, traced["ops"], traced["elapsed"], log,
                       len(plain["ops"]) / plain["elapsed"])
        if remote:
            outcome.put("executor.run_sharded_ms_p50", 1000.0 * common.median(
                [wall for wall, _ in log.sharded]), "ms")
            outcome.put("executor.transport_ms", 1000.0 * common.median(
                [wall - kernel for wall, kernel in log.sharded]), "ms")
        return outcome
    finally:
        deployment.stop()


def run_sweep(seed: int, seconds: float, trace: bool) -> common.Outcome:
    return asyncio.run(_run(False, seed, seconds, trace))


def run_fanout(seed: int, seconds: float, trace: bool) -> common.Outcome:
    return asyncio.run(_run(True, seed, seconds, trace))
