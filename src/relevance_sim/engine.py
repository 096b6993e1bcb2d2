"""Time-slotted round-robin communication loop.

Each slot one vehicle transmits: it refreshes its local perception snapshot,
the active scheme picks at most gamma variables, and the message reaches every
other vehicle over an error-free channel.  A received message stays valid for
one full communication cycle (N slots).

Knowledge is held once, as int bitmasks over object ids (K is small):
`local[v]` is vehicle v's latest snapshot and `sent[s]` sender s's latest
message.  Every receiver hears every message, and under round-robin a message
expires exactly when its sender transmits again, so:

- vehicle v knows `local[v] | OR(sent[s] for s != v)`;
- the channel estimate of what the receivers know is `OR(sent[s] for s != tx)`;
- expiry clears `sent[tx]` at the start of tx's own slot.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .metrics import MetricsAccumulator, MetricsRecord
from .relevance import RelevanceFunction, RelevanceParams, build_relevance_functions
from .scenario import (
    MobilityMode,
    SceneConfig,
    Scenario,
    advance_mobility,
    detection_probability_vector,
    place_objects,
    sample_hits,
    spawn_vehicles,
)
from .schemes import (
    EstimationModel,
    SchemeKind,
    estimate_receiver_known,
    estimation_error,
    mask_of,
    select_baseline,
    select_ideal_semantic,
    select_irc,
    select_rm,
    select_semantic,
)


class Mode(Enum):
    UNICAST = "unicast"
    BROADCAST = "broadcast"


@dataclass(slots=True)
class KnowledgeBase:
    """Every vehicle's knowledge in one episode, as masks over object ids.

    `local[v]` is vehicle v's latest perception snapshot; `sent[s]` is sender
    s's latest message, or 0 once it has expired.
    """

    local: list[int]
    sent: list[int]

    def known_mask(self, v: int) -> int:
        """Vehicle v's snapshot united with every other sender's valid message."""
        mask = self.local[v]
        for s, m in enumerate(self.sent):
            if s != v:
                mask |= m
        return mask


@dataclass(slots=True)
class SimState:
    slot: int
    scenario: Scenario
    relevance: list[RelevanceFunction]
    knowledge: KnowledgeBase
    scheme: SchemeKind
    gamma: int
    mode: Mode
    estimation: EstimationModel
    s_min: float
    # Hot-loop cache: per-vehicle detection probabilities (static positions).
    _probs: list[np.ndarray] = field(default_factory=list, repr=False)

    def validate(self) -> None:
        n = len(self.scenario.vehicles)
        if self.mode is Mode.UNICAST and n != 2:
            raise ValueError("unicast requires exactly 2 vehicles")
        if self.mode is Mode.BROADCAST and n < 3:
            raise ValueError("broadcast requires at least 3 vehicles")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")


def new_sim_state(
    scenario: Scenario,
    relevance: list[RelevanceFunction],
    scheme: SchemeKind,
    gamma: int,
    mode: Mode,
    estimation: EstimationModel,
    s_min: float,
) -> SimState:
    n = len(scenario.vehicles)
    # Dense object ids double as bit positions and value-vector indices.
    assert all(o.id == i for i, o in enumerate(scenario.objects))
    state = SimState(
        slot=0,
        scenario=scenario,
        relevance=relevance,
        knowledge=KnowledgeBase(local=[0] * n, sent=[0] * n),
        scheme=scheme,
        gamma=gamma,
        mode=mode,
        estimation=estimation,
        s_min=s_min,
        _probs=[
            detection_probability_vector(v.position, scenario.objects, v.perception_coeffs)
            for v in scenario.vehicles
        ],
    )
    state.validate()
    return state


def run_slot(
    state: SimState, rng: np.random.Generator
) -> tuple[list[int], list[tuple[float, ...]], list[int], float | None]:
    """Advance `state` one slot in place: expiry, local refresh, selection, delivery.

    Returns what the metrics need about the message: the selected ids
    (ascending), the receivers' value rows and their known masks just before
    delivery (both in receiver order), and the estimation error if the scheme
    used it, else None.
    """
    t = state.slot
    n = len(state.scenario.vehicles)
    tx = t % n
    kb = state.knowledge
    kb.sent[tx] = 0  # one full cycle old: expires before tx sends again

    if state.scenario.config.mobility_mode is MobilityMode.CONSTANT_VELOCITY:
        state.scenario = advance_mobility(state.scenario, 1)
        v = state.scenario.vehicles[tx]
        state._probs[tx] = detection_probability_vector(
            v.position, state.scenario.objects, v.perception_coeffs
        )

    local = mask_of(sample_hits(state._probs[tx], rng))
    kb.local[tx] = local

    receivers = [r for r in range(n) if r != tx]
    values = [state.relevance[r].values for r in receivers]
    known = [kb.known_mask(r) for r in receivers]
    est_known = estimate_receiver_known(kb.sent, tx)
    gamma, s_min = state.gamma, state.s_min

    eps = None
    if state.scheme is SchemeKind.BASELINE:
        selected = select_baseline(local, gamma, rng)
    elif state.scheme is SchemeKind.IRC:
        selected = select_irc(local, est_known, gamma, rng)
    elif state.scheme is SchemeKind.RM:
        selected = select_rm(local, est_known, gamma, rng)
    elif state.scheme is SchemeKind.SEMANTIC:
        eps = estimation_error(kb.known_mask(tx).bit_count(), state.estimation)
        delta = state.estimation.value_range_width * eps
        selected = select_semantic(local, est_known, values, gamma, s_min, delta, rng)
    else:
        selected = select_ideal_semantic(local, known, values, gamma, s_min)

    sent = mask_of(selected)
    assert len(selected) <= gamma and sent & ~local == 0
    kb.sent[tx] = sent
    state.slot = t + 1
    return selected, values, known, eps


@dataclass(frozen=True)
class EpisodeConfig:
    scene: SceneConfig
    relevance: RelevanceParams
    estimation: EstimationModel
    scheme: SchemeKind
    gamma: int
    mode: Mode
    slots: int
    sv_aggregation: str = "max"


def run_episode_accumulator(config: EpisodeConfig, rng: np.random.Generator) -> MetricsAccumulator:
    """Build one scenario, run the slot loop, accumulate metrics.

    The first N slots are warm-up — every vehicle transmits once so estimated
    redundancy and expiry reach steady state — and contribute no samples.
    """
    n = config.scene.vehicle_count
    if config.slots < 2 * n:
        raise ValueError("episode needs at least two full communication cycles")
    scenario = Scenario(
        config=config.scene,
        objects=place_objects(config.scene, rng),
        vehicles=spawn_vehicles(config.scene, rng),
    )
    relevance = build_relevance_functions(scenario, config.relevance, rng)
    state = new_sim_state(
        scenario, relevance, config.scheme, config.gamma, config.mode,
        config.estimation, config.relevance.s_min,
    )
    acc = MetricsAccumulator(s_min=config.relevance.s_min, sv_aggregation=config.sv_aggregation)
    record_tx = acc.record_transmission
    record_hrr = acc.record_awareness_snapshot
    knowledge = state.knowledge
    for t in range(config.slots):
        selected, values, known, eps = run_slot(state, rng)
        if t < n:
            continue
        record_tx(selected, values, known, config.gamma, eps)
        for v, rel in enumerate(relevance):
            record_hrr(knowledge.known_mask(v), rel)
        acc.slots_counted += 1
    return acc


def run_episode(config: EpisodeConfig, rng: np.random.Generator) -> MetricsRecord:
    """One independent replication, reduced to its metrics record."""
    return run_episode_accumulator(config, rng).finalize()
