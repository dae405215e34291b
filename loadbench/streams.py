"""Seeded query streams for the three workloads.

Every op is a wire-format request dict (``op`` is ``query`` or
``run_until``), so one stream can be sent over the NDJSON protocol or
turned into :class:`repro.serve.service.Query` /
:class:`SequentialQuery` objects for an in-process service.  The seed
decides trial seeds, p jitter and op order; the *shape* of the work
(families, sizes, trial budgets, op mix) is fixed, so runs with
different seeds do comparable amounts of work.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

Op = Dict[str, Any]

#: Adaptive targets of the hot set, strictest first.  Wider targets are
#: answered by prefix truncation of the cached strictest run.
HOT_TARGETS = (0.11, 0.15, 0.2, 0.3)
ADAPTIVE_MAX_TRIALS = 4096

#: One cheap cell per Monte-Carlo family: ``(p, n, trials, params)``.
FAMILY_CELLS: Dict[str, Tuple[float, int, int, Dict[str, Any]]] = {
    "simple-omission": (0.3, 4, 512, {}),
    "simple-omission-radio": (0.3, 4, 512, {}),
    "hetero-omission": (0.3, 3, 256, {}),
    "simple-malicious-mp": (0.3, 3, 512, {}),
    "malicious-radio-star": (0.1, 3, 256, {}),
    "equalizing-star": (0.3, 3, 512, {}),
    "windowed-malicious": (0.2, 3, 256, {}),
    "flooding": (0.3, 16, 512, {}),
    "grid-flooding": (0.3, 4, 256, {}),
    "kucera-flip": (0.1, 4, 256, {}),
    "layered-omission": (0.3, 3, 512, {}),
    "radio-repeat": (0.3, 6, 512, {}),
    "hello": (0.3, 8, 256, {}),
    "round-robin": (0.3, 3, 256, {}),
    "prime-schedule": (0.3, 6, 256, {"rounds": 500}),
}

#: ``equalizing-mp`` cells: two runners (p values), eight seeds each.
#: Runners are shared per ``(p, n)``, so the adversary state one cell
#: leaves behind changes the fingerprint of the next (see README).
EQUALIZING_PS = (0.3, 0.45)
EQUALIZING_SEEDS_PER_P = 8
EQUALIZING_N = 4
EQUALIZING_TRIALS = 16

#: Families whose hot set also carries an adaptive (run_until) cell.
HOT_ADAPTIVE = ("simple-omission", "flooding", "radio-repeat",
                "kucera-flip", "hello", "windowed-malicious")

#: Fastsim families the hot-wire stream draws fresh (never repeated)
#: cells from — the ops that write to the memo.
FRESH_FAMILIES = ("simple-omission", "flooding", "radio-repeat",
                  "equalizing-star", "layered-omission",
                  "simple-malicious-mp")
FRESH_SHARE = 0.1
FRESH_SEED_BASE = 1 << 30

MONTECARLO_FAMILIES = tuple(sorted(list(FAMILY_CELLS) + ["equalizing-mp"]))


def query(scenario: str, p: float, n: int, trials: int, seed: int,
          params: Dict[str, Any] = None) -> Op:
    op = {"op": "query", "scenario": scenario, "p": p, "n": n,
          "trials": trials, "seed": seed}
    if params:
        op["params"] = dict(params)
    return op


def run_until(scenario: str, p: float, n: int, target: float,
              max_trials: int, seed: int,
              params: Dict[str, Any] = None) -> Op:
    op = {"op": "run_until", "scenario": scenario, "p": p, "n": n,
          "target_width": target, "max_trials": max_trials, "seed": seed,
          "bound": "hoeffding"}
    if params:
        op["params"] = dict(params)
    return op


def op_key(op: Op) -> Tuple:
    """Identity of an op: equal keys must get byte-identical answers."""
    return tuple(sorted((key, repr(value)) for key, value in op.items()))


# -- hot-wire -------------------------------------------------------------


def hot_set(seed: int) -> List[Op]:
    """The ops the hot-wire stream repeats.

    Two ``query`` cells of every family in :data:`FAMILY_CELLS`, the
    ``equalizing-mp`` cells, and each adaptive cell at every target in
    :data:`HOT_TARGETS`, strictest first, so computing the list in
    order caches the strictest run before the wider targets ask.
    """
    rng = random.Random(f"hot-set:{seed}")
    ops: List[Op] = []
    for family, (p, n, trials, params) in sorted(FAMILY_CELLS.items()):
        for _ in range(2):
            ops.append(query(family, p, n, trials, rng.randrange(1 << 20),
                             params))
    for p in EQUALIZING_PS:
        for _ in range(EQUALIZING_SEEDS_PER_P):
            ops.append(query("equalizing-mp", p, EQUALIZING_N,
                             EQUALIZING_TRIALS, rng.randrange(1 << 20)))
    for family in HOT_ADAPTIVE:
        p, n, _, params = FAMILY_CELLS[family]
        seed_of_cell = rng.randrange(1 << 20)
        for target in HOT_TARGETS:
            ops.append(run_until(family, p, n, target, ADAPTIVE_MAX_TRIALS,
                                 seed_of_cell, params))
    return ops


def hot_stream(seed: int) -> Iterator[Tuple[Op, bool]]:
    """Endless ``(op, is_fresh)`` stream: hot repeats plus fresh cells."""
    hot_ops = hot_set(seed)
    rng = random.Random(f"hot-stream:{seed}")
    fresh = 0
    while True:
        if rng.random() < FRESH_SHARE:
            family = FRESH_FAMILIES[fresh % len(FRESH_FAMILIES)]
            p, n, trials, params = FAMILY_CELLS[family]
            fresh += 1
            yield query(family, p, n, trials,
                        FRESH_SEED_BASE + seed * 1_000_003 + fresh,
                        params), True
        else:
            yield rng.choice(hot_ops), False


# -- cold sweeps ------------------------------------------------------------

#: The first query of a cold deployment (sets ``setup_s``): batchsim,
#: large enough to shard on the remote deployment.
SETUP_QUERY = query("windowed-malicious", 0.2, 3, 512, 900_001)

#: Sweep rows: ``(kind, family, n, budget, params, p grid)`` where
#: budget is the trial count of a ``query`` or ``(target, max_trials)``
#: of a ``run_until``.  Row ``r`` of cycle ``c`` runs at grid point
#: ``(c + r) % len(grid)``, so every cycle mixes the grid points and
#: cycles cost about the same.  Costs are arranged so the median op
#: sits inside a cluster of similar ones (the batchsim and engine
#: queries, tens of ms) and the slowest tenth of ops are the
#: ``equalizing-mp`` adaptive cells, whose cost does not depend on p:
#: both latency figures then move with the code, not with the draw.
SWEEP_ROWS: Tuple[Tuple[str, str, int, Any, Dict[str, Any],
                        Tuple[float, ...]], ...] = (
    ("query", "simple-omission", 4, 512, {}, (0.1, 0.2, 0.3, 0.4)),
    ("query", "flooding", 16, 512, {}, (0.1, 0.2, 0.3, 0.4)),
    ("query", "radio-repeat", 6, 512, {}, (0.1, 0.2, 0.3, 0.4)),
    ("run_until", "flooding", 16, (0.11, 4096), {}, (0.1, 0.2, 0.3, 0.4)),
    ("query", "hello", 8, 512, {}, (0.2, 0.3, 0.4, 0.45)),
    ("query", "kucera-flip", 4, 256, {}, (0.05, 0.1, 0.15, 0.2)),
    ("query", "windowed-malicious", 3, 256, {}, (0.1, 0.15, 0.2, 0.25)),
    ("query", "prime-schedule", 6, 256, {"rounds": 200},
     (0.1, 0.2, 0.3, 0.4)),
    ("query", "equalizing-mp", 4, 64, {}, (0.2, 0.3, 0.4, 0.45)),
    ("query", "equalizing-mp", 4, 64, {}, (0.2, 0.3, 0.4, 0.45)),
    ("run_until", "hello", 8, (0.11, 4096), {}, (0.2, 0.3, 0.4, 0.45)),
    ("run_until", "kucera-flip", 4, (0.11, 4096), {},
     (0.05, 0.1, 0.15, 0.2)),
    ("query", "round-robin", 3, 128, {}, (0.1, 0.2, 0.3, 0.4)),
    ("run_until", "windowed-malicious", 3, (0.11, 4096), {},
     (0.1, 0.15, 0.2, 0.25)),
    ("query", "round-robin", 3, 256, {}, (0.1, 0.2, 0.3, 0.4)),
    ("run_until", "equalizing-mp", 4, (0.15, 1024), {},
     (0.2, 0.3, 0.4, 0.45)),
    ("run_until", "equalizing-mp", 4, (0.15, 1024), {},
     (0.2, 0.3, 0.4, 0.45)),
)

#: Remote-fanout rows, arranged the same way: trial counts large enough
#: that batchsim cuts one chunk per worker (128-trial floor) and the
#: engine four shards per worker; adaptive rows shard every extension.
FANOUT_ROWS = (
    ("query", "windowed-malicious", 3, 512, {}, (0.1, 0.15, 0.2, 0.25)),
    ("query", "kucera-flip", 4, 512, {}, (0.05, 0.1, 0.15, 0.2)),
    ("query", "hello", 8, 1024, {}, (0.2, 0.3, 0.4, 0.45)),
    ("run_until", "hello", 8, (0.11, 4096), {}, (0.2, 0.3, 0.4, 0.45)),
    ("query", "equalizing-mp", 4, 64, {}, (0.2, 0.3, 0.4, 0.45)),
    ("query", "equalizing-mp", 4, 64, {}, (0.2, 0.3, 0.4, 0.45)),
    ("query", "round-robin", 3, 256, {}, (0.1, 0.2, 0.3, 0.4)),
    ("run_until", "windowed-malicious", 3, (0.11, 4096), {},
     (0.1, 0.15, 0.2, 0.25)),
    ("run_until", "equalizing-mp", 4, (0.15, 1024), {},
     (0.2, 0.3, 0.4, 0.45)),
    ("run_until", "equalizing-mp", 4, (0.15, 1024), {},
     (0.2, 0.3, 0.4, 0.45)),
)


def cycles(rows, seed: int, tag: str, first: int = 0) -> Iterator[List[Op]]:
    """Endless cycles of distinct cold ops, one per row, shuffled.

    p carries a small jitter so every op resolves a new runner; the
    jitter depends on the cycle and row only, because phase lengths and
    round counts are step functions of p and a seeded jitter would make
    the work per run depend on the seed.  The seed picks the trial
    seeds (fresh per op, so no op ever repeats) and the op order.
    ``first`` numbers the first cycle (a warm-up passes one the timed
    stream does not reach, so the timed ops still resolve new runners).
    """
    rng = random.Random(f"{tag}:{seed}")
    cycle = first
    while True:
        ops = []
        for row, (kind, family, n, budget, params, grid) in enumerate(rows):
            base = grid[(cycle + row) % len(grid)]
            p = round(base * (1.0 + 0.0001 * (cycle % 97 + 1)), 6)
            trial_seed = rng.randrange(1 << 40)
            if kind == "query":
                ops.append(query(family, p, n, budget, trial_seed, params))
            else:
                target, max_trials = budget
                ops.append(run_until(family, p, n, target, max_trials,
                                     trial_seed, params))
        rng.shuffle(ops)
        yield ops
        cycle += 1
