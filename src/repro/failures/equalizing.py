"""The impossibility-proof "equalizing" adversaries (Theorems 2.3, 2.4).

Both proofs run the same play: whenever the source's transmitter
fails, the adversary makes it behave *exactly as it would have behaved
had the source message been the opposite bit*.  When the failure rate
matches the success rate of legitimate receptions, the receiver's
posterior over the source message stays at 1/2 forever, so any
algorithm errs with probability 1/2.

To behave "as if the message were flipped", the adversary maintains a
*counterfactual twin* of the source protocol: an identical protocol
instance initialised with the flipped source message and fed the very
same deliveries the real source receives.  Because the paper's
algorithms are deterministic, the twin's intent in round ``t`` is
exactly ``A_{1-Ms}(σ)`` from the proofs.

Algorithms that want to face these adversaries implement
:class:`SourceTwinnable` so the adversary can construct the twin.

The message-passing adversary also runs on the vectorised
:mod:`repro.batchsim` tier.  There the twin is the algorithm's own
batch program built with the flipped source message
(``counterfactual_batch_program``); the batched execution advances it
beside the real program on the same deliveries, and
:meth:`EqualizingMpAdversary.batch_rewrite` reads the source column of
its intents.  The scalar :class:`CounterfactualTwin` stays the engine
tier's reference.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Protocol as TypingProtocol

import numpy as np

from repro.engine.protocol import MESSAGE_PASSING, RADIO, Protocol
from repro.failures.malicious import Adversary

__all__ = [
    "SourceTwinnable",
    "CounterfactualTwin",
    "EqualizingMpAdversary",
    "EqualizingStarAdversary",
]


class SourceTwinnable(TypingProtocol):
    """Algorithms able to spawn a counterfactual twin of their source.

    The twin must be a fresh protocol instance for the source node,
    identical in every respect except for carrying ``flipped_message``
    as the source message.
    """

    def counterfactual_source(self, flipped_message: Any) -> Protocol:
        """Build the source protocol with the flipped message."""
        ...  # pragma: no cover - typing protocol


class CounterfactualTwin:
    """Runs a twin source protocol one round behind the real execution.

    The twin is lazily caught up: before asking for its round-``t``
    intent, all deliveries the real source received in rounds
    ``< t`` (read from the trace) are replayed into it.
    """

    def __init__(self, twin: Protocol, source: int, model: str,
                 trace=None):
        self._twin = twin
        self._source = source
        self._model = model
        self._rounds_fed = 0
        #: The execution trace this twin replays (identity marks the
        #: execution the twin belongs to; see ``_ensure_twin``).
        self.trace = trace

    def intent(self, round_index: int, view) -> Any:
        """The twin's intent for ``round_index`` (``A_{1-Ms}(σ)``)."""
        self._catch_up(view)
        if self._rounds_fed != round_index:
            raise RuntimeError(
                f"counterfactual twin out of sync: fed {self._rounds_fed} "
                f"rounds, asked for round {round_index}"
            )
        return self._twin.intent(round_index)

    def _catch_up(self, view) -> None:
        """Replay completed-round deliveries into the twin."""
        trace = view.trace
        while self._rounds_fed < len(trace):
            record = trace[self._rounds_fed]
            if self._model == MESSAGE_PASSING:
                delivered = record.deliveries.get(self._source, {})
            else:
                delivered = record.deliveries.get(self._source)
            self._twin.deliver(record.round_index, delivered)
            self._rounds_fed += 1


class _TwinningAdversary(Adversary):
    """The scalar twin plumbing both equalizing adversaries share.

    The twin belongs to the execution in flight, not to the adversary's
    description, so it is left out of the pickled state: scenario
    fingerprints (the service's memo keys) and the failure models
    shipped to shard workers must not depend on which trial ran last.
    """

    _source: int
    _twin: Optional[CounterfactualTwin]

    @property
    def source(self) -> int:
        """The twinned source node ``s``."""
        return self._source

    def _ensure_twin(self, view) -> CounterfactualTwin:
        self._twin = _fresh_twin_for(self._twin, self._source, view)
        return self._twin

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_twin"] = None
        return state


class EqualizingMpAdversary(_TwinningAdversary):
    """The Theorem 2.3 adversary for the two-node message-passing graph.

    Whenever the source is faulty, it transmits what the counterfactual
    twin (opposite source message) would transmit — including speaking
    out of turn when the twin speaks and the real source is silent, and
    staying silent when the twin is silent.  At ``p = 1/2`` this makes
    the delivered transcript distribution identical under both source
    messages, so the receiver errs with probability exactly 1/2.  For
    ``p > 1/2``, wrap in :class:`~repro.failures.adversaries.SlowingAdversary`
    with target ``1/2``.

    Non-source faulty nodes are made to behave fault-free (the proof
    assumes the reverse channel is fully reliable).
    """

    #: Deterministic given the twin, so the slowing reduction's
    #: batched coin replay can wrap it.
    consumes_adversary_stream = False

    def __init__(self, source: int = 0):
        self._source = source
        self._twin = None

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        replacements: Dict[int, Any] = {}
        for node in faulty:
            if node == self._source:
                twin_intent = self._ensure_twin(view).intent(round_index, view)
                if twin_intent is not None:
                    replacements[node] = twin_intent
            else:
                # Reverse channel stays effectively reliable.
                intent = intents.get(node)
                if intent is not None:
                    replacements[node] = intent
        return replacements

    # -- batched execution ----------------------------------------------
    def supports_batch(self, model: str) -> bool:
        return True

    def batch_twin(self, algorithm, codec, metadata: Dict[str, Any]):
        """The algorithm's batch program with the flipped source message.

        ``None`` — leaving the scenario to the engine tier, whose twin
        raises the same errors it always did — when the algorithm has
        no batched counterfactual, its source is not the twinned node,
        or the source message is not a bit.
        """
        hook = getattr(algorithm, "counterfactual_batch_program", None)
        message = metadata.get("source_message")
        if (not callable(hook) or getattr(algorithm, "source", None)
                != self._source or message not in (0, 1)):
            return None
        return hook(_flip(message), codec)

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str, *,
                      twin: Optional[np.ndarray] = None) -> np.ndarray:
        # A faulty source plays the twin's code (speaking or keeping
        # silent as the twin does); every other faulty node keeps its
        # own code, since the reverse channel stays reliable.
        replacements = codes.copy()
        replacements[:, self._source] = twin[:, self._source]
        return replacements


class EqualizingStarAdversary(_TwinningAdversary):
    """The Theorem 2.4 adversary on the star (source = a leaf).

    Let ``S`` be the set of steps in which the algorithm instructs the
    source ``s`` to transmit while the star root ``v`` and all of its
    other neighbours keep silent.  The policy (proof of Claim 2.3),
    assuming the effective failure rate has been slowed to
    ``q = (1-p)^{Δ+1}``:

    * step outside ``S`` — every faulty node behaves as if fault-free;
    * step in ``S``, source faulty — all other faulty nodes keep
      silent and the source transmits the counterfactual twin's
      message (opposite source message);
    * step in ``S``, source fault-free — every faulty node transmits a
      non-empty noise message (colliding with the source at ``v``).

    The net effect: ``v`` hears the *flipped* message with the same
    probability it hears the true one, and silence with equal
    probability under either message, so its posterior never moves.

    Use with a star topology whose root is ``center`` and whose source
    is a leaf; wrap in a slowing adversary when ``p > (1-p)^{Δ+1}``.
    """

    def __init__(self, source: int, center: int, noise: Any = "JAM"):
        if source == center:
            raise ValueError("source must be a leaf, not the star center")
        if noise is None:
            raise ValueError("noise payload must not be None (None is silence)")
        self._source = source
        self._center = center
        self._noise = noise
        self._twin = None

    @property
    def center(self) -> int:
        """The star root ``v`` whose posterior the attack pins."""
        return self._center

    def _in_critical_set(self, intents: Dict[int, Any], view) -> bool:
        """Whether this step belongs to the set ``S`` of the proof."""
        if self._source not in intents:
            return False
        if self._center in intents:
            return False
        other_neighbours = [
            node for node in view.topology.neighbors(self._center)
            if node != self._source
        ]
        return all(node not in intents for node in other_neighbours)

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        if view.model != RADIO:
            raise ValueError("EqualizingStarAdversary only applies to radio")
        twin = self._ensure_twin(view)
        twin_intent = twin.intent(round_index, view)
        replacements: Dict[int, Any] = {}
        if not self._in_critical_set(intents, view):
            # Outside S: faulty nodes behave exactly as fault-free.
            for node in faulty:
                intent = intents.get(node)
                if intent is not None:
                    replacements[node] = intent
            return replacements
        if self._source in faulty:
            # Source faulty: it plays the twin; other faulty nodes silent.
            if twin_intent is not None:
                replacements[self._source] = twin_intent
        else:
            # Source fault-free: every faulty node jams.
            for node in faulty:
                replacements[node] = self._noise
        return replacements


def _fresh_twin_for(current: Optional[CounterfactualTwin], source: int,
                    view) -> CounterfactualTwin:
    """``current`` if it belongs to this execution, else a new twin.

    One adversary instance may serve a whole Monte-Carlo batch (the
    :class:`repro.montecarlo.TrialRunner` shares the failure model
    across trials), so the twin must restart whenever a new execution
    begins.  Executions are told apart by the identity of their trace
    object; the twin keeps a strong reference to it, so the id cannot
    be recycled while the comparison matters.
    """
    if current is not None and current.trace is view.trace:
        return current
    algorithm = view.algorithm
    if not hasattr(algorithm, "counterfactual_source"):
        raise TypeError(
            f"{type(algorithm).__name__} does not support "
            f"counterfactual twinning (needs counterfactual_source())"
        )
    true_message = view.metadata["source_message"]
    twin_protocol = algorithm.counterfactual_source(_flip(true_message))
    return CounterfactualTwin(twin_protocol, source, view.model,
                              trace=view.trace)


def _flip(message: Any) -> Any:
    """Flip a binary source message."""
    if message == 0:
        return 1
    if message == 1:
        return 0
    raise ValueError(
        f"equalizing adversaries need a binary source message, got {message!r}"
    )
