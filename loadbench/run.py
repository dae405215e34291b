"""The repository benchmark: three closed-loop workloads, one command.

Run from the checkout root::

    python3 loadbench/run.py --workload hot-wire --seed 1 --seconds 10 --trace 0
    python3 loadbench/run.py --workload sweep-cold --seed 1 --trace 1
    python3 loadbench/run.py --repeat 10 --seconds 10      # steadiness table
    python3 loadbench/run.py --write-benchmark-json        # regenerate manifest

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (an untraced pass, then a traced replay of the same
seeded stream).  Every metric is printed by name with its unit, then a
``provenance`` line, then one JSON result line.  The exit status is
non-zero when any correctness check failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import common
import streams
import tracing

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("hot-wire", "repeated queries over one NDJSON connection to a "
                 "repro.serve subprocess: wire and service layers, memo "
                 "writes and the equalizing-mp fingerprint drift"),
    ("sweep-cold", "distinct p-grid sweep cells on an in-process service "
                   "across fastsim, batchsim and engine: tier kernels and "
                   "runner resolution, no wire"),
    ("remote-fanout", "cold sharded batchsim and engine cells through "
                      "repro.distrib workers: executor transport, pickling "
                      "and merging"),
)

#: ``(name, unit, better, bound)``; bound is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("answered_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("protocol.wire_ms_p50", "ms", "lower"),
    ("protocol.bytes_per_op", "bytes", "lower"),
    ("service.hit_ms_p50", "ms", "lower"),
    ("fingerprint.us_p50", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.recomputes", "count", "lower"),
    *((f"cache.recomputes.{family}", "count", "lower")
      for family in streams.MONTECARLO_FAMILIES),
    ("journal.replay_s", "s", "lower"),
    ("journal.append_us_p50", "us", "lower"),
    ("journal.compactions", "count", "lower"),
    ("admission.rejected", "count", "lower"),
    ("coalesce.joined", "count", "higher"),
    ("dispatch.resolve_ms", "ms", "lower"),
    *((f"tier.{tier}.{name}", unit, better)
      for tier in ("fastsim", "batchsim", "engine")
      for name, unit, better in (("busy_s", "s", "lower"),
                                 ("trials_per_s", "1/s", "higher"))),
    ("run_until.extensions", "count", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("executor.shards", "count", "lower"),
    ("executor.run_sharded_ms_p50", "ms", "lower"),
    ("executor.transport_ms", "ms", "lower"),
    ("executor.retries", "count", "lower"),
    ("distrib.ping_ms", "ms", "lower"),
    *((f"self.{layer}", "ms/op", "lower") for layer in tracing.LAYERS),
    ("trace.residual", "ms/op", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "higher"),
)

RUN_SECONDS = 20


def manifest() -> Dict:
    return {
        "command": ["python3", "loadbench/run.py"],
        "paths": ["loadbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(common.SRC))
    import cold
    import hot_wire

    runners = {"hot-wire": hot_wire.run, "sweep-cold": cold.run_sweep,
               "remote-fanout": cold.run_fanout}
    outcome = runners[name](seed, seconds, trace)
    if trace:
        # A layer a workload bypasses reads 0 (e.g. no executor in-process).
        idle = [metric for metric, unit, _ in PER_LAYER
                if metric not in outcome.metrics]
        for metric, unit, _ in PER_LAYER:
            if metric in idle:
                outcome.put(metric, 0.0, unit)
        outcome.notes["not_exercised"] = idle
        names = [metric for metric, _, _ in PER_LAYER]
    else:
        names = [metric for metric, _, _, _ in END_TO_END]
    return common.emit(outcome, names,
                       common.provenance(name, seed, seconds, trace))


def repeat(workloads: List[str], runs: int, first_seed: int,
           seconds: float) -> int:
    """Run each workload ``runs`` times (fresh seed each) and print the
    median, quartiles and spread of every end-to-end metric against its
    bound.  A spread under a third of the bound is marked steady."""
    status = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {name: [] for name, *_ in END_TO_END}
        for seed in range(first_seed, first_seed + runs):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=str(common.ROOT), stdout=subprocess.PIPE, text=True,
                check=False)
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if completed.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED "
                      f"({result['failed']} failed checks)")
                status = 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.4g}" for name in values),
                flush=True)
        print(f"\n{workload}: {runs} runs, {seconds} s each")
        print(f"{'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, unit, _, bound in END_TO_END:
            q1, mid, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:18s} {mid:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:8.3f} {bound:6.2f}  {unit} {verdict}")
        print(flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run each workload (or --workload) N times "
                             "and print medians and quartiles")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        path = common.ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"loadbench: no repro sources under {common.SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.repeat:
        workloads = ([args.workload] if args.workload
                     else [name for name, _ in WORKLOADS])
        return repeat(workloads, args.repeat, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    # Unwind on SIGTERM too, so every spawned process is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        common.reap_children()


def _terminate(*_) -> None:
    sys.exit(143)


if __name__ == "__main__":
    sys.exit(main())
