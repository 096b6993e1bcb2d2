"""Time-slotted round-robin communication loop.

The episode loop owns the schedule: slot t belongs to vehicle t % N, and the
first N slots are warm-up.  `run_slot(state, tx, rng)` knows neither: tx
refreshes its local perception snapshot, the active scheme picks at most
gamma variables, and the message reaches every other vehicle over an
error-free channel.  A received message stays valid for one full
communication cycle (N slots).

Knowledge is held once, on the episode's `SimState`, as int bitmasks over
object ids (K is small): `state.local[v]` is vehicle v's latest snapshot and
`state.sent[s]` sender s's latest message.  Every receiver hears every
message, and under round-robin a message expires exactly when its sender
transmits again, so the channel is `OR(sent)` and one rule gives knowledge:

- vehicle v knows `local[v] | OR(sent)`;
- v's own valid message lies inside its snapshot, so counting it changes nothing;
- the transmitter's estimate of what its receivers know is `OR(sent)` once
  its own message has expired at the start of its slot.

The episode's vehicles are its own copy of the `Fleet` that `spawn_vehicles`
returns, so a run leaves its inputs unchanged; the relevance functions are
built from the spawn positions before the first slot.  The scene's objects are
the record array `place_objects` returns; its `position` field is the (K, 2)
array of object positions, row k for object k, so object ids are row indices,
bit positions and value-vector indices alike.  Geometry is cached per episode:
that array, and each vehicle's detection probabilities at its current
position, computed in its slot when its draw first needs them.  A
constant-velocity slot first moves all vehicles one step (`advance_mobility`
on the episode's fleet) and drops every cached vector; a static episode
computes each vehicle's once.  The detection curve and the mobility mode,
which no other module reads, come from the run's `SceneConfig`.  Each
transmitter's view of its receivers is built once too; `run_slot` returns only
what the slot decided, and the loop reads the view.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .metrics import MetricsAccumulator
from .relevance import RelevanceFunction, build_relevance_functions
from .scenario import (
    Fleet,
    MobilityMode,
    advance_mobility,
    detection_probability_vector,
    place_objects,
    sample_hits,
    spawn_vehicles,
)
from .schemes import (
    SchemeKind,
    estimation_error,
    mask_of,
    select_baseline,
    select_ideal_semantic,
    select_irc,
    select_rm,
    select_semantic,
)

if TYPE_CHECKING:
    from .harness import ExperimentSpec


@dataclass(frozen=True)
class EpisodeConfig:
    """One (scheme, gamma) cell of a run; every other setting is read from `spec`."""

    spec: ExperimentSpec
    scheme: SchemeKind
    gamma: int


@dataclass(slots=True)
class SimState:
    """One episode in progress: the vehicles' current positions live in `fleet`,
    and their knowledge in `local` (vehicle v's latest snapshot) and `sent`
    (sender s's latest message, or 0 once it has expired)."""

    config: EpisodeConfig
    local: list[int]
    sent: list[int]
    fleet: Fleet
    # Hot-loop caches: the object positions as one (K, 2) array, each vehicle's
    # detection probabilities at its current position (filled by its slot,
    # emptied when the fleet moves), and per transmitter what its message meets,
    # fixed for the episode: the other vehicles in ascending order, their value
    # rows in that order, and the mask of ids valued below s_min by every one.
    _xy: np.ndarray = field(repr=False)
    _probs: dict[int, np.ndarray] = field(repr=False)
    _views: list[tuple[tuple[int, ...], list[tuple[float, ...]], int]] = field(repr=False)

    def known_mask(self, v: int) -> int:
        """Vehicle v's snapshot united with every valid message on the channel."""
        return self.local[v] | estimate_receiver_known(self.sent)


def estimate_receiver_known(sent: list[int]) -> int:
    """The channel: the union of `sent`, each sender's latest message (0 once
    expired).  As a transmitter's estimate of what its receivers know, it
    excludes receiver-local detections nobody has transmitted; that blind
    spot is what separates the semantic scheme from its ideal variant."""
    mask = 0
    for m in sent:
        mask |= m
    return mask


def new_sim_state(
    objects: np.recarray,
    fleet: Fleet,
    relevance: list[RelevanceFunction],
    config: EpisodeConfig,
) -> SimState:
    n = len(fleet.positions)
    views = []
    for tx in range(n):
        receivers = tuple(r for r in range(n) if r != tx)
        low = -1
        for r in receivers:
            low &= relevance[r].low_mask
        views.append((receivers, [relevance[r].values for r in receivers], low))
    return SimState(
        config=config,
        local=[0] * n,
        sent=[0] * n,
        fleet=Fleet(list(fleet.positions), fleet.tracks),
        _xy=objects.position,
        _probs={},
        _views=views,
    )


def run_slot(state: SimState, tx: int, rng: np.random.Generator) -> tuple[int, list[int], float | None]:
    """Run vehicle tx's slot on `state` in place: expiry, refresh, selection, delivery.

    Returns what the slot decided: the mask of selected ids, the receivers'
    known masks just before delivery (in receiver order), and the estimation
    error if the scheme used it, else None.
    """
    config = state.config
    state.sent[tx] = 0  # one full cycle old: expires before tx sends again

    spec = config.spec
    scene = spec.scene
    if scene.mobility_mode is MobilityMode.CONSTANT_VELOCITY:
        advance_mobility(state.fleet)
        state._probs.clear()
    probs = state._probs.get(tx)
    if probs is None:
        probs = state._probs[tx] = detection_probability_vector(
            state.fleet.positions[tx], state._xy, scene.detection_coeffs
        )

    local = mask_of(sample_hits(probs, rng))
    state.local[tx] = local

    receivers, values, _ = state._views[tx]
    known = [state.known_mask(r) for r in receivers]
    est_known = estimate_receiver_known(state.sent)
    scheme, gamma, s_min = config.scheme, config.gamma, spec.relevance.s_min

    eps = None
    if scheme is SchemeKind.BASELINE:
        selected = select_baseline(local, gamma, rng)
    elif scheme is SchemeKind.IRC:
        selected = select_irc(local, est_known, gamma, rng)
    elif scheme is SchemeKind.RM:
        selected = select_rm(local, est_known, gamma, rng)
    elif scheme is SchemeKind.SEMANTIC:
        # tx's known mask: its snapshot plus the channel.
        eps = estimation_error((local | est_known).bit_count(), spec.estimation)
        selected = select_semantic(local, est_known, values, gamma, s_min, eps, rng)
    else:
        selected = select_ideal_semantic(local, known, values, gamma, s_min)

    sent = mask_of(selected)
    assert len(selected) <= gamma and sent & ~local == 0
    state.sent[tx] = sent
    return sent, known, eps


def run_episode(objects: np.recarray, fleet: Fleet, relevance: list[RelevanceFunction],
                config: EpisodeConfig, rng: np.random.Generator) -> MetricsAccumulator:
    """Run the slot loop on the scene given and accumulate metrics.

    The scene is what `place_objects`, `spawn_vehicles` and
    `build_relevance_functions` return; the episode moves its own copy of
    `fleet`, so the inputs are left unchanged.
    The first N slots are warm-up — every vehicle transmits once so estimated
    redundancy and expiry reach steady state — and contribute no samples.
    After delivery a receiver knows what it knew before plus the message, so
    only the transmitter's known mask is looked up again for the awareness
    snapshots.
    """
    spec = config.spec
    n = len(fleet.positions)
    state = new_sim_state(objects, fleet, relevance, config)
    acc = MetricsAccumulator()
    aggregation = spec.sv_aggregation
    record_tx = acc.record_transmission
    record_hrr = acc.record_awareness_snapshot
    views = state._views
    for t in range(spec.slots):
        tx = t % n
        sent, known, eps = run_slot(state, tx, rng)
        if t < n:
            continue
        _, values, low = views[tx]
        record_tx(sent, values, known, low, config.gamma, aggregation, eps)
        after = [mask | sent for mask in known]
        after.insert(tx, state.known_mask(tx))
        for mask, rel in zip(after, relevance):
            record_hrr(mask, rel)
    return acc


def run_episode_accumulator(config: EpisodeConfig, rng: np.random.Generator) -> MetricsAccumulator:
    """Draw one episode's scene from `rng` (objects, vehicles, then relevance) and run it."""
    objects = place_objects(config.spec.scene, rng)
    fleet = spawn_vehicles(config.spec.scene, rng)
    relevance = build_relevance_functions(len(objects), fleet.positions, config.spec.relevance, rng)
    return run_episode(objects, fleet, relevance, config, rng)
