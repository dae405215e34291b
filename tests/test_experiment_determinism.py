"""Determinism regression tests for the experiment runners.

Two pins:

* **Golden reports** — every experiment's quick-mode report at the
  canonical seed is byte-identical to the committed golden file.  The
  goldens for E09, E11, E13 and E14 were captured *before* those
  runners were migrated onto :class:`repro.montecarlo.TrialRunner`:
  equality proves the migration preserved the historical per-trial
  streams bit for bit (TrialRunner derives trial ``i`` from
  ``root.child("mc", i)``, the ``estimate_success`` convention, and the
  fastsim dispatch hands the whole root stream to the sampler exactly
  as the old direct calls did).  The remaining goldens pin the
  post-migration reports so future refactors cannot silently change
  results.
* **Worker invariance** — quick-mode reports must be bit-identical for
  any ``workers=`` count: per-trial streams depend only on the trial
  index, never on the sharding.
"""

from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.simple_malicious import SimpleMalicious
from repro.engine.protocol import MESSAGE_PASSING
from repro.experiments import ExperimentConfig, run_experiment
from repro.failures import (
    EqualizingMpAdversary,
    MaliciousFailures,
    SlowingAdversary,
)
from repro.graphs import two_node
from repro.montecarlo import TrialRunner

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 2007
ALL_EXPERIMENTS = [f"E{i:02d}" for i in range(1, 16)]

#: Runners whose goldens predate their TrialRunner migration — for
#: these, golden equality certifies bit-exact stream preservation.
#: E11 left this set when its fastsim sampler moved to named child
#: streams (the prefix-stability contract sequential runs require):
#: the sampler's bit pattern legitimately changed, so its golden was
#: re-pinned and now certifies the post-refactor draws instead.
PRE_MIGRATION_GOLDENS = {"E09", "E13", "E14"}

#: Migrated runners cheap enough to re-run with a process pool.  They
#: all dispatch to fastsim or batchsim (E04's equalizing adversary
#: through its batched counterfactual twin), so they prove the worker
#: knob cannot leak into the sampler draws or the batched stream
#: replay; the sharded engine path is pinned by
#: ``test_engine_pinned_e04_invariant_across_workers`` below.
WORKER_INVARIANT_EXPERIMENTS = ["E04", "E05", "E06", "E08", "E11", "E13",
                                "E14"]


def _render(experiment_id: str, workers: int = 1) -> str:
    report = run_experiment(
        experiment_id,
        ExperimentConfig(seed=SEED, quick=True, workers=workers),
    )
    return report.render()


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_quick_report_matches_golden(experiment_id):
    golden_path = GOLDEN_DIR / f"{experiment_id}_quick_seed{SEED}.txt"
    golden = golden_path.read_text()
    rendered = _render(experiment_id) + "\n"
    assert rendered == golden, (
        f"{experiment_id} quick report drifted from {golden_path.name}"
        + (
            " — this golden predates the TrialRunner migration, so the "
            "drift means per-trial streams changed"
            if experiment_id in PRE_MIGRATION_GOLDENS else ""
        )
    )


@pytest.mark.parametrize("experiment_id", WORKER_INVARIANT_EXPERIMENTS)
def test_quick_report_invariant_across_workers(experiment_id):
    assert _render(experiment_id, workers=1) == \
        _render(experiment_id, workers=4)


@pytest.mark.parametrize("experiment_id", ["E09", "E14"])
def test_batchsim_promoted_report_matches_golden_under_workers(experiment_id):
    # The batchsim-promoted runners, executed with a worker pool
    # requested, must still render byte-identically to the committed
    # (pre-migration) goldens: neither the batchsim promotion nor the
    # worker plumbing may perturb the per-trial streams.
    golden_path = GOLDEN_DIR / f"{experiment_id}_quick_seed{SEED}.txt"
    assert _render(experiment_id, workers=4) + "\n" == \
        golden_path.read_text()


@pytest.mark.parametrize("p", [0.5, 0.6])
def test_engine_pinned_e04_invariant_across_workers(p):
    # E04's runner shape pinned to the scalar engine: four workers cut
    # real engine shards, and the indicators must not notice.
    adversary = EqualizingMpAdversary(source=0)
    if p > 0.5:
        adversary = SlowingAdversary(adversary, p, 0.5)
    results = [
        TrialRunner(
            partial(SimpleMalicious, two_node(), 0, 1, MESSAGE_PASSING, 15),
            MaliciousFailures(p, adversary),
            use_batchsim=False, workers=workers,
        ).run(100, SEED)
        for workers in (1, 4)
    ]
    assert [r.backend for r in results] == ["engine", "engine"]
    assert [r.workers for r in results] == [1, 4]
    np.testing.assert_array_equal(results[0].indicators,
                                  results[1].indicators)
