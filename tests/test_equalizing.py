"""Tests for the counterfactual equalizing adversaries (Thms 2.3, 2.4)."""

import pickle

import pytest

from repro.core import SimpleMalicious
from repro.engine import MESSAGE_PASSING, RADIO, run_execution
from repro.failures import (
    EqualizingMpAdversary,
    EqualizingStarAdversary,
    MaliciousFailures,
    SlowingAdversary,
)
from repro.graphs import star, two_node

from tests.helpers import ScriptedAlgorithm


def _mp_run(message, seed, p=0.5, phase_length=11, adversary=None):
    topology = two_node()
    algorithm = SimpleMalicious(
        topology, 0, message, model=MESSAGE_PASSING, phase_length=phase_length
    )
    adversary = adversary or EqualizingMpAdversary(source=0)
    failure = MaliciousFailures(p, adversary)
    return run_execution(
        algorithm, failure, seed, metadata=algorithm.metadata()
    )


class TestEqualizingMp:
    def test_faulty_rounds_deliver_flipped_message(self):
        # With Simple-Malicious the twin transmits the flipped bit, so
        # every faulty source round must deliver exactly the flip.
        result = _mp_run(message=1, seed=3)
        for record in result.trace:
            if record.round_index >= 11:
                break  # only the source's phase transmits to node 1
            payload = record.deliveries.get(1, {}).get(0)
            if 0 in record.faulty:
                assert payload == 0
            else:
                assert payload == 1

    def test_success_rate_pinned_at_half(self):
        successes = 0
        trials = 300
        for seed in range(trials):
            result = _mp_run(message=seed % 2, seed=seed)
            successes += result.is_successful_broadcast()
        rate = successes / trials
        assert 0.38 < rate < 0.62

    def test_slowed_variant_also_pins(self):
        successes = 0
        trials = 200
        for seed in range(trials):
            adversary = SlowingAdversary(
                EqualizingMpAdversary(source=0), p=0.7, target=0.5
            )
            result = _mp_run(message=seed % 2, seed=seed, p=0.7,
                             adversary=adversary)
            successes += result.is_successful_broadcast()
        assert 0.35 < successes / trials < 0.65

    def test_requires_twinnable_algorithm(self):
        topology = two_node()
        algo = ScriptedAlgorithm(topology, MESSAGE_PASSING,
                                 {0: [{1: 1}] * 40}, rounds=40)
        failure = MaliciousFailures(0.9, EqualizingMpAdversary(source=0))
        with pytest.raises(TypeError, match="counterfactual"):
            run_execution(algo, failure, 0, metadata={"source_message": 1})

    def test_requires_binary_message(self):
        topology = two_node()
        algorithm = SimpleMalicious(
            topology, 0, "not-a-bit", model=MESSAGE_PASSING, phase_length=8
        )
        failure = MaliciousFailures(0.9, EqualizingMpAdversary(source=0))
        with pytest.raises(ValueError, match="binary"):
            run_execution(algorithm, failure, 1, metadata=algorithm.metadata())


class TestEqualizingStar:
    def _run(self, delta, message, seed, p, phase_length=9, slow_to=None):
        topology = star(delta, source_is_center=False)
        algorithm = SimpleMalicious(
            topology, 0, message, model=RADIO, phase_length=phase_length
        )
        adversary = EqualizingStarAdversary(source=0, center=1)
        if slow_to is not None:
            adversary = SlowingAdversary(adversary, p=p, target=slow_to)
        failure = MaliciousFailures(p, adversary)
        return run_execution(
            algorithm, failure, seed, metadata=algorithm.metadata()
        )

    def test_rejects_source_equal_center(self):
        with pytest.raises(ValueError, match="leaf"):
            EqualizingStarAdversary(source=1, center=1)

    def test_rejects_message_passing_model(self):
        topology = star(2, source_is_center=False)
        algorithm = SimpleMalicious(
            topology, 0, 1, model=MESSAGE_PASSING, phase_length=5
        )
        failure = MaliciousFailures(
            0.9, EqualizingStarAdversary(source=0, center=1)
        )
        with pytest.raises(ValueError, match="radio"):
            run_execution(algorithm, failure, 0, metadata=algorithm.metadata())

    def test_faulty_source_rounds_deliver_flip_or_silence(self):
        from repro.analysis.thresholds import radio_malicious_threshold
        q = radio_malicious_threshold(3)
        result = self._run(3, message=1, seed=5, p=q)
        # during the source phase, the center hears either the true bit,
        # the flipped bit, or silence — never arbitrary payloads
        for record in result.trace:
            if record.round_index >= 9:
                break
            heard = record.deliveries.get(1)
            assert heard in (0, 1, None)

    def test_success_rate_collapses(self):
        from repro.analysis.thresholds import radio_malicious_threshold
        q = radio_malicious_threshold(2)
        successes = 0
        trials = 200
        for seed in range(trials):
            result = self._run(2, message=seed % 2, seed=seed, p=q)
            successes += result.is_successful_broadcast()
        # posterior pinned at 1/2 at the center; downstream decisions can
        # only lose more — far below almost-safe (1 - 1/n = 0.75)
        assert successes / trials < 0.7


@pytest.mark.parametrize("make_adversary", [
    lambda: EqualizingMpAdversary(source=0),
    lambda: EqualizingStarAdversary(source=0, center=1),
])
def test_pickled_state_leaves_out_the_twin(make_adversary):
    # The twin (and the trace it holds) belongs to the last execution:
    # pickles of a used adversary match those of a fresh one, so memo
    # keys stay put and shard workers receive no stale history.
    used = make_adversary()
    topology = star(2, source_is_center=False)
    algorithm = SimpleMalicious(topology, 0, 1, model=RADIO, phase_length=5)
    run_execution(algorithm, MaliciousFailures(0.9, used), 3,
                  metadata=algorithm.metadata())
    assert used._twin is not None
    assert pickle.dumps(used) == pickle.dumps(make_adversary())
    assert pickle.loads(pickle.dumps(used))._twin is None
