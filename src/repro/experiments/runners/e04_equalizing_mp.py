"""E04 — Theorem 2.3: the equalizing adversary at p >= 1/2.

Claim: for ``p >= 1/2`` no algorithm (even randomized) broadcasts
almost-safely in the message-passing model.  The proof's adversary is
constructive: whenever the source's transmitter fails, deliver what the
source *would have sent had the message been flipped* (realised here by
a counterfactual twin), slowing the failure rate down to exactly 1/2
first.  The receiver's posterior then never moves off 1/2, so over a
uniform source bit any decision rule errs half the time.

The experiment runs Simple-Malicious on the 2-node graph under this
adversary — one :class:`~repro.montecarlo.TrialRunner` batch per source
bit, on the batchsim tier (the twin is the algorithm's batch program
with the flipped bit, advanced beside the real one; indicators are
bit-identical to the scalar engine's) — and checks the success rate is
statistically indistinguishable from 1/2 — catastrophically below the
``1 - 1/n`` bar — for ``p ∈ {0.5, 0.6, 0.75}``.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.estimation import clopper_pearson
from repro.core.simple_malicious import SimpleMalicious
from repro.engine.protocol import MESSAGE_PASSING
from repro.failures.adversaries import SlowingAdversary
from repro.montecarlo import TrialRunner
from repro.failures.equalizing import EqualizingMpAdversary
from repro.failures.malicious import MaliciousFailures
from repro.graphs.builders import two_node
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


def _describe_runner() -> TrialRunner:
    return TrialRunner(
        partial(SimpleMalicious, two_node(), 0, 1, MESSAGE_PASSING, 15),
        MaliciousFailures(0.5, EqualizingMpAdversary(source=0)),
    )


@register(
    "E04",
    "Equalizing adversary pins error at 1/2 (message passing)",
    "Theorem 2.3 — not feasible for p >= 1/2 (message passing)",
    scenarios=[ScenarioSpec(
        label="equalizing mp adversary",
        build=_describe_runner,
        topology="2-node graph",
        trials="200 / 800",
        note="adaptive (history-dependent) adversary — batchsim runs "
             "its counterfactual twin as a flipped-bit batch program",
    )],
)
def run_e04(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E04")
    trials = config.scaled_trials(200 if config.quick else 800)
    phase_length = 15
    topology = two_node()
    probabilities = [0.5, 0.6] if config.quick else [0.5, 0.6, 0.75]
    table = Table([
        "p", "effective_rate", "trials", "success_rate", "ci_low", "ci_high",
        "pinned_at_half",
    ])
    passed = True
    for p in probabilities:
        successes = 0
        # Uniform source bit, as in the proof: half the budget per bit.
        for message in (0, 1):
            adversary = EqualizingMpAdversary(source=0)
            if p > 0.5:
                adversary = SlowingAdversary(adversary, p, 0.5)
            runner = TrialRunner(
                partial(SimpleMalicious, topology, 0, message,
                        MESSAGE_PASSING, phase_length),
                MaliciousFailures(p, adversary),
                workers=config.workers,
                executor=config.executor,
            )
            outcome = runner.run(
                trials // 2, stream.child("mc", p, message)
            )
            successes += outcome.successes
        rate = successes / trials
        low, high = clopper_pearson(successes, trials, confidence=0.999)
        pinned = low <= 0.5 <= high
        passed = passed and pinned
        table.add_row(
            p=p, effective_rate=0.5, trials=trials, success_rate=rate,
            ci_low=low, ci_high=high, pinned_at_half=pinned,
        )
    notes = [
        "adversary: counterfactual twin of the source initialised with the "
        "flipped bit; faulty rounds deliver the twin's transmission",
        "p > 1/2 rows use the proof's slowing reduction (stay-malicious "
        "probability (1/2)/p, effective rate exactly 1/2)",
        "pinned_at_half: the 99.9% Clopper-Pearson interval contains 1/2 — "
        "error probability ~1/2 >> 1/n, so no almost-safe algorithm exists",
    ]
    return ExperimentReport(
        experiment_id="E04",
        title="Equalizing adversary pins error at 1/2 (message passing)",
        paper_claim="Theorem 2.3: broadcasting is not almost-safe for "
                    "p >= 1/2, even randomized",
        table=table,
        notes=notes,
        passed=passed,
    )
