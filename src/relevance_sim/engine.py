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

The episode's vehicles are held once, as the `Fleet` that `spawn_vehicles`
returns; the relevance functions are built from its spawn positions before
the first slot.  Geometry is cached per episode in the form the slot loop
uses: the (K, 2) array of object positions, built once, and each vehicle's
detection probabilities.  In a constant-velocity episode every slot first
moves all vehicles one step in place (`advance_mobility` on the fleet) and
then computes the transmitter's probabilities, which are never needed
before; static episodes compute them once, before the first slot.  The
detection curve and the mobility mode are read from the episode's
`SceneConfig`.  Each transmitter's `ReceiverView` (its receivers, their
value rows, and the ids below s_min for all of them) is built once too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .metrics import MetricsAccumulator
from .relevance import RelevanceFunction, RelevanceParams, build_relevance_functions
from .scenario import (
    Fleet,
    MobilityMode,
    ObjectPoint,
    SceneConfig,
    advance_mobility,
    detection_probability_vector,
    object_coordinates,
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


@dataclass(frozen=True)
class EpisodeConfig:
    scene: SceneConfig
    relevance: RelevanceParams
    estimation: EstimationModel
    scheme: SchemeKind
    gamma: int
    slots: int
    sv_aggregation: str = "max"


class ReceiverView(NamedTuple):
    """What a transmitter's message meets, fixed for the episode: the other
    vehicles in ascending order, their value rows in that order, and the ids
    valued below s_min by every one of them."""

    receivers: tuple[int, ...]
    values: list[tuple[float, ...]]
    low: int

    @staticmethod
    def of(tx: int, relevance: list[RelevanceFunction]) -> ReceiverView:
        receivers = tuple(r for r in range(len(relevance)) if r != tx)
        low = -1
        for r in receivers:
            low &= relevance[r].low_mask
        return ReceiverView(receivers, [relevance[r].values for r in receivers], low)


@dataclass(slots=True)
class SimState:
    """One episode in progress; the vehicles' current positions live in `fleet`."""

    slot: int
    config: EpisodeConfig
    knowledge: KnowledgeBase
    fleet: Fleet
    # Hot-loop caches: the object positions as one (K, 2) array, each
    # vehicle's detection probabilities in a static episode (empty in a
    # moving one), and each transmitter's receiver view.
    _xy: np.ndarray = field(repr=False)
    _probs: list[np.ndarray] = field(repr=False)
    _views: list[ReceiverView] = field(repr=False)


def new_sim_state(
    objects: list[ObjectPoint],
    fleet: Fleet,
    relevance: list[RelevanceFunction],
    config: EpisodeConfig,
) -> SimState:
    n = len(fleet.positions)
    # Dense object ids double as bit positions and value-vector indices.
    assert all(o.id == i for i, o in enumerate(objects))
    xy = object_coordinates(objects)
    coeffs = config.scene.detection_coeffs
    # A moving vehicle's probabilities are computed in run_slot, before each draw.
    static = config.scene.mobility_mode is MobilityMode.STATIC_EPISODE
    probs = [detection_probability_vector(p, xy, coeffs) for p in fleet.positions] if static else []
    return SimState(
        slot=0,
        config=config,
        knowledge=KnowledgeBase(local=[0] * n, sent=[0] * n),
        fleet=fleet,
        _xy=xy,
        _probs=probs,
        _views=[ReceiverView.of(tx, relevance) for tx in range(n)],
    )


def run_slot(
    state: SimState, rng: np.random.Generator
) -> tuple[int, list[tuple[float, ...]], list[int], int, float | None]:
    """Advance `state` one slot in place: expiry, local refresh, selection, delivery.

    Returns what the metrics need about the message: the mask of selected
    ids, the receivers' value rows and their known masks just before
    delivery (both in receiver order), the mask of ids below s_min for every
    receiver, and the estimation error if the scheme used it, else None.
    """
    t = state.slot
    config = state.config
    kb = state.knowledge
    tx = t % len(kb.sent)
    kb.sent[tx] = 0  # one full cycle old: expires before tx sends again

    scene = config.scene
    if scene.mobility_mode is MobilityMode.CONSTANT_VELOCITY:
        advance_mobility(state.fleet, 1)
        probs = detection_probability_vector(
            state.fleet.positions[tx], state._xy, scene.detection_coeffs
        )
    else:
        probs = state._probs[tx]

    local = mask_of(sample_hits(probs, rng))
    kb.local[tx] = local

    receivers, values, low = state._views[tx]
    known = [kb.known_mask(r) for r in receivers]
    est_known = estimate_receiver_known(kb.sent, tx)
    scheme, gamma, s_min = config.scheme, config.gamma, config.relevance.s_min

    eps = None
    if scheme is SchemeKind.BASELINE:
        selected = select_baseline(local, gamma, rng)
    elif scheme is SchemeKind.IRC:
        selected = select_irc(local, est_known, gamma, rng)
    elif scheme is SchemeKind.RM:
        selected = select_rm(local, est_known, gamma, rng)
    elif scheme is SchemeKind.SEMANTIC:
        # tx's known mask: its snapshot plus every other sender's valid message.
        eps = estimation_error((local | est_known).bit_count(), config.estimation)
        delta = config.estimation.value_range_width * eps
        selected = select_semantic(local, est_known, values, gamma, s_min, delta, rng)
    else:
        selected = select_ideal_semantic(local, known, values, gamma, s_min)

    sent = mask_of(selected)
    assert len(selected) <= gamma and sent & ~local == 0
    kb.sent[tx] = sent
    state.slot = t + 1
    return sent, values, known, low, eps


def run_episode_accumulator(config: EpisodeConfig, rng: np.random.Generator) -> MetricsAccumulator:
    """Build one episode's scene, run the slot loop, accumulate metrics.

    The first N slots are warm-up — every vehicle transmits once so estimated
    redundancy and expiry reach steady state — and contribute no samples.
    After delivery a receiver knows what it knew before plus the message, so
    only the transmitter's known mask is looked up again for the awareness
    snapshots.
    """
    n = config.scene.vehicle_count
    objects = place_objects(config.scene, rng)
    fleet = spawn_vehicles(config.scene, rng)
    relevance = build_relevance_functions(len(objects), fleet.positions, config.relevance, rng)
    state = new_sim_state(objects, fleet, relevance, config)
    acc = MetricsAccumulator(config.sv_aggregation)
    record_tx = acc.record_transmission
    record_hrr = acc.record_awareness_snapshot
    knowledge = state.knowledge
    for t in range(config.slots):
        sent, values, known, low, eps = run_slot(state, rng)
        if t < n:
            continue
        record_tx(sent, values, known, low, config.gamma, eps)
        tx = t % n
        after = [mask | sent for mask in known]
        after.insert(tx, knowledge.known_mask(tx))
        for mask, rel in zip(after, relevance):
            record_hrr(mask, rel)
    return acc
