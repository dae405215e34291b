"""Catalog completeness: every experiment servable, every family live.

The invariant this file pins (so it cannot rot as families are added
or renamed):

* the registered family set is **exactly** the sample table below —
  adding a family without extending the table fails, as does removing
  or renaming one;
* every experiment E01–E15 is tagged by at least one family;
* every family **serves**: its sample query resolves, fingerprints,
  answers over the in-process API on the expected backend, and the
  answer is bit-identical to a direct :class:`TrialRunner` run of the
  same resolved scenario (the exact family is checked against its
  ``compute`` verdict instead);
* unregistered scenario names are refused with a structured
  ``unknown-scenario`` error, never a crash or a silent empty answer.

No pytest-asyncio in the environment, so async scenarios run under
``asyncio.run`` inside plain test functions.
"""

import asyncio

import numpy as np
import pytest

from repro.experiments.registry import (
    FAMILY_EXACT,
    all_experiments,
    all_families,
    families_for_experiment,
    get_family,
    resolve_scenario,
)
from repro.montecarlo import TrialRunner
from repro.serve import Query, QueryError, SimulationService

#: One known-good sample per registered family:
#: ``name -> (p, n, params, expected backend)``.  Kept tiny so the
#: whole catalog serves in well under a second.
SAMPLES = {
    "simple-omission": (0.3, 2, {}, "fastsim:simple-omission"),
    "simple-omission-radio": (0.3, 2, {}, "fastsim:simple-omission"),
    "hetero-omission": (0.5, 2, {}, "fastsim:simple-omission"),
    "simple-malicious-mp": (0.2, 2, {}, "fastsim:simple-malicious-mp"),
    "equalizing-mp": (0.3, 6, {}, "batchsim"),
    "malicious-radio-star": (0.1, 4, {}, "fastsim:simple-malicious-radio"),
    "equalizing-star": (0.3, 4, {}, "fastsim:equalizing-star"),
    "windowed-malicious": (0.25, 2, {}, "batchsim"),
    "flooding": (0.1, 5, {}, "fastsim:flooding"),
    "grid-flooding": (0.1, 3, {}, "fastsim:flooding"),
    "kucera-flip": (0.3, 4, {}, "batchsim"),
    "layered-opt": (0.0, 3, {}, "exact"),
    "layered-omission": (0.3, 3, {}, "fastsim:layered-omission"),
    "radio-repeat": (0.2, 5, {}, "fastsim:radio-repeat-omission"),
    "hello": (0.2, 4, {}, "batchsim"),
    "round-robin": (0.3, 2, {}, "batchsim"),
    "prime-schedule": (0.3, 5, {"rounds": 200}, "batchsim"),
}

EXPERIMENT_IDS = tuple(f"E{index:02d}" for index in range(1, 16))

TRIALS = 16
SEED = 7


def run(coro):
    return asyncio.run(coro)


class TestCatalogShape:
    def test_registered_families_are_exactly_the_samples(self):
        assert {family.name for family in all_families()} == set(SAMPLES)

    def test_every_experiment_is_servable(self):
        registered = {exp.experiment_id for exp in all_experiments()}
        assert registered == set(EXPERIMENT_IDS)
        missing = [experiment_id for experiment_id in EXPERIMENT_IDS
                   if not families_for_experiment(experiment_id)]
        assert missing == []

    def test_family_tags_reference_real_experiments(self):
        registered = {exp.experiment_id for exp in all_experiments()}
        for family in all_families():
            assert family.experiments, f"{family.name} tags no experiment"
            assert set(family.experiments) <= registered

    def test_exactly_one_exact_family(self):
        exact = [family.name for family in all_families()
                 if family.kind == FAMILY_EXACT]
        assert exact == ["layered-opt"]

    def test_unregistered_scenario_is_refused(self):
        with pytest.raises(KeyError):
            get_family("no-such-family")
        with pytest.raises(QueryError) as excinfo:
            run(SimulationService().submit(
                Query("no-such-family", 0.1, 2, 8)))
        assert excinfo.value.code == "unknown-scenario"


class TestEveryFamilyServes:
    def test_all_samples_round_trip(self):
        async def scenario():
            service = SimulationService()
            answers = {}
            for name, (p, n, params, _) in SAMPLES.items():
                family = get_family(name)
                if family.kind == FAMILY_EXACT:
                    query = Query(name, p, n, 1, seed=0, params=params)
                else:
                    query = Query(name, p, n, TRIALS, seed=SEED,
                                  params=params)
                assert service.fingerprint(query)  # resolves + keys
                answers[name] = await service.submit(query)
            return answers

        answers = run(scenario())
        for name, (p, n, params, backend) in SAMPLES.items():
            answer = answers[name]
            assert answer.backend == backend, name
            family = get_family(name)
            if family.kind == FAMILY_EXACT:
                compute, model = family.build(p, n, **params)
                assert model is None
                assert answer.result.indicators.tolist() == [compute()]
                continue
            factory, model = resolve_scenario(name, p, n, params)
            direct = TrialRunner(factory, model).run(TRIALS, SEED)
            assert np.array_equal(answer.result.indicators,
                                  direct.indicators), name
            assert answer.result.backend == direct.backend, name
