"""Communication loop: round-robin turns, expiry, delivery, knowledge updates."""

import numpy as np
import pytest

from relevance_sim import ExperimentSpec, SchemeKind, engine
from relevance_sim.engine import (
    EpisodeConfig,
    new_sim_state,
    run_episode,
    run_episode_accumulator,
    run_slot,
)
from relevance_sim.metrics import MetricsAccumulator
from relevance_sim.relevance import RelevanceFunction, RelevanceParams, build_relevance_functions
from relevance_sim.scenario import MobilityMode, SceneConfig, place_objects, spawn_vehicles
from relevance_sim.schemes import EstimationModel, estimation_error, ids_of

PARAMS = RelevanceParams()


def _draw_scene(spec, rng):
    # The scene as `run_episode_accumulator` draws it: objects, vehicles, relevance.
    objects, fleet = place_objects(spec.scene, rng), spawn_vehicles(spec.scene, rng)
    return objects, fleet, build_relevance_functions(len(objects), fleet.positions,
                                                     spec.relevance, rng)


def _fresh_state(seed, scheme=SchemeKind.BASELINE, gamma=10, vehicles=2,
                 relevance_params=PARAMS, mobility=MobilityMode.STATIC_EPISODE):
    rng = np.random.default_rng(seed)
    spec = ExperimentSpec(scene=SceneConfig(vehicle_count=vehicles, mobility_mode=mobility),
                          relevance=relevance_params, slots=400)
    objects, fleet, relevance = _draw_scene(spec, rng)
    config = EpisodeConfig(spec, scheme, gamma)
    return new_sim_state(objects, fleet, relevance, config), rng, relevance


def _semantic_state(detected, receiver_local, receiver_sent, k=30, width=1.0,
                    scheme=SchemeKind.SEMANTIC):
    # Two static vehicles over k objects, both valuing every object at 0.9.
    # Vehicle 0 transmits first under `scheme` with a budget of one and
    # detects exactly the ids in `detected` (detection probabilities of 0
    # and 1); vehicle 1 holds the snapshot `receiver_local` and the
    # still-valid message `receiver_sent`.
    rng = np.random.default_rng(47)
    spec = ExperimentSpec(scene=SceneConfig(object_count=k, vehicle_count=2),
                          estimation=EstimationModel(value_range_width=width))
    values = np.full(k, 0.9)
    relevance = [RelevanceFunction.from_values(values, spec.relevance.s_min)] * 2
    objects, fleet = place_objects(spec.scene, rng), spawn_vehicles(spec.scene, rng)
    state = new_sim_state(objects, fleet, relevance, EpisodeConfig(spec, scheme, 1))
    state._probs[0] = np.isin(np.arange(k), detected).astype(float)
    state.local[1] = receiver_local
    state.sent[1] = receiver_sent
    return state, rng


def test_semantic_does_not_see_the_receivers_unsent_snapshot():
    # Object 0 is in both snapshots but was never transmitted, so the channel
    # estimate cannot know the receiver holds it: Semantic still sends it.
    state, rng = _semantic_state(detected=[0], receiver_local=1, receiver_sent=0, width=1e-9)
    sent, known, _ = run_slot(state, 0, rng)
    assert known == [1]
    assert sent == 1


def test_semantic_eps_counts_the_transmitters_whole_known_set():
    # The transmitter knows its one detection plus the 29 ids of the
    # receiver's valid message, none of which it detected itself.
    heard = (1 << 30) - 2
    state, rng = _semantic_state(detected=[0], receiver_local=heard, receiver_sent=heard)
    _, _, eps = run_slot(state, 0, rng)
    model = state.config.spec.estimation
    assert eps == estimation_error(30, model)
    assert eps != estimation_error(1, model)


# Object 0 is only in the receiver's unsent snapshot; object 1 is also in its
# valid message, so the channel estimate holds 1 but not 0.
UNSENT_AND_HEARD = dict(detected=[0, 1], receiver_local=0b11, receiver_sent=0b10)


@pytest.mark.parametrize("scheme", [SchemeKind.RM, SchemeKind.IRC])
def test_agnostic_schemes_treat_an_unsent_snapshot_id_as_fresh(scheme):
    # RM drops the heard id 1; IRC, one over budget, sheds it first.  Both
    # send 0, which the receiver already holds.
    state, rng = _semantic_state(**UNSENT_AND_HEARD, scheme=scheme)
    sent, known, _ = run_slot(state, 0, rng)
    assert known == [0b11]
    assert sent == 0b01


def test_ideal_semantic_skips_what_the_receiver_holds():
    # The receiver's true known mask covers both ids, so nothing is worth sending.
    state, rng = _semantic_state(**UNSENT_AND_HEARD, scheme=SchemeKind.IDEAL_SEMANTIC)
    sent, known, _ = run_slot(state, 0, rng)
    assert known == [0b11]
    assert sent == 0


def _receivers(tx, n):
    return [r for r in range(n) if r != tx]


def test_round_robin_transmitter_order(monkeypatch):
    # The episode loop alone owns the schedule: slot t goes to vehicle t % n,
    # which is the only one to refresh its snapshot.
    slot = engine.run_slot
    for vehicles in (2, 4):
        txs = []

        def recording_slot(state, tx, rng):
            before = list(state.local)
            result = slot(state, tx, rng)
            txs.append(tx)
            for v in _receivers(tx, vehicles):
                assert state.local[v] == before[v]
            return result

        monkeypatch.setattr(engine, "run_slot", recording_slot)
        spec = ExperimentSpec(scene=SceneConfig(vehicle_count=vehicles), relevance=PARAMS,
                              slots=3 * vehicles)
        run_episode_accumulator(EpisodeConfig(spec, SchemeKind.BASELINE, 10),
                                np.random.default_rng(31))
        assert txs == [t % vehicles for t in range(3 * vehicles)]
    # In particular, slot 7 of a 4-vehicle run belongs to vehicle 3.
    assert txs[7] == 3


def test_expiry_boundary_is_one_full_cycle():
    n = 4
    state, rng, _ = _fresh_state(30, vehicles=n, gamma=10)
    messages = {}
    uncovered = 0
    for t in range(4 * n):
        tx = t % n
        if tx in messages:
            # One slot short of a full cycle: the previous message is still
            # in every receiver's known mask.
            assert state.sent[tx] == messages[tx]
            for r in _receivers(tx, n):
                assert messages[tx] & ~state.known_mask(r) == 0
        _, known, _ = run_slot(state, tx, rng)
        # Exactly one cycle old: gone at the start of the sender's slot, so
        # each receiver's mask before delivery holds only its own snapshot and
        # the other senders' messages.
        for r, mask in zip(_receivers(tx, n), known):
            others = 0
            for s, m in messages.items():
                if s not in (r, tx):
                    others |= m
            assert mask == state.local[r] | others
            uncovered |= messages.get(tx, 0) & ~mask
        messages[tx] = state.sent[tx]
    assert uncovered  # some expired id was known only through its message


def test_delivery_is_lossless_and_history_matches():
    state, rng, _ = _fresh_state(32, vehicles=4, gamma=5)
    for t in range(12):
        tx = t % 4
        sent, _, _ = run_slot(state, tx, rng)
        assert state.sent[tx] == sent
        for r in _receivers(tx, 4):
            assert state.sent[tx] & ~state.known_mask(r) == 0


def test_sender_entry_changes_only_on_its_own_slots():
    state, rng, _ = _fresh_state(33, vehicles=4, gamma=3)
    for t in range(24):
        before = list(state.sent)
        run_slot(state, t % 4, rng)
        for sender in range(4):
            if sender != t % 4:
                assert state.sent[sender] == before[sender]


def test_budget_and_locality_hold_every_slot():
    for scheme in SchemeKind:
        state, rng, _ = _fresh_state(34, scheme=scheme, gamma=4, vehicles=2)
        for t in range(40):
            sent, _, _ = run_slot(state, t % 2, rng)
            assert sent.bit_count() <= 4
            assert sent & ~state.local[t % 2] == 0


def test_known_set_is_local_union_valid_entries():
    state, rng, _ = _fresh_state(35, vehicles=4, gamma=6)
    n = 4
    history = {}  # sender -> (message ids, slot)
    for t in range(20):
        sent, _, _ = run_slot(state, t % n, rng)
        history[t % n] = (ids_of(sent), t)
        for v in range(n):
            valid = set(ids_of(state.local[v]))
            for sender, (ids, slot) in history.items():
                if sender != v and t - slot < n:
                    valid |= set(ids)
            assert set(ids_of(state.known_mask(v))) == valid


def test_redundancy_flags_match_receiver_state_before_delivery():
    state, rng, _ = _fresh_state(36, vehicles=2, gamma=8)
    n = 2
    for t in range(16):
        # Receiver state before delivery: its snapshot plus the messages of
        # senders other than itself and the (now expiring) transmitter.
        tx = t % n
        snapshot = []
        for r in _receivers(tx, n):
            mask = state.local[r]
            for s in range(n):
                if s not in (r, tx):
                    mask |= state.sent[s]
            snapshot.append(mask)
        _, known, _ = run_slot(state, tx, rng)
        assert known == snapshot


def _recorded_transmissions(monkeypatch, seed, vehicles, gamma, slots):
    # One episode's relevance functions and, per counted slot, its transmitter
    # with the value rows and low mask the loop hands `record_transmission`.
    calls = []
    record = MetricsAccumulator.record_transmission

    def capturing_record(acc, sent, values, known, low, *rest):
        # Counted slot i is slot n + i, which belongs to vehicle i % n.
        calls.append((len(calls) % vehicles, values, low))
        return record(acc, sent, values, known, low, *rest)

    monkeypatch.setattr(MetricsAccumulator, "record_transmission", capturing_record)
    spec = ExperimentSpec(scene=SceneConfig(vehicle_count=vehicles), relevance=PARAMS,
                          slots=slots)
    rng = np.random.default_rng(seed)
    objects, fleet, rels = _draw_scene(spec, rng)
    run_episode(objects, fleet, rels, EpisodeConfig(spec, SchemeKind.BASELINE, gamma), rng)
    assert len(calls) == slots - vehicles  # the warm-up cycle records nothing
    return rels, calls


def test_receiver_view_and_knowledge_after_delivery(monkeypatch):
    # A receiver's awareness after delivery is its known mask before delivery
    # plus the message ...
    n = 4
    state, rng, _ = _fresh_state(44, vehicles=n, gamma=5)
    for t in range(12):
        sent, known, _ = run_slot(state, t % n, rng)
        for r, mask in zip(_receivers(t % n, n), known):
            assert mask | sent == state.known_mask(r)
    # ... and the loop hands the metrics the ids below s_min for every receiver.
    rels, calls = _recorded_transmissions(monkeypatch, 44, n, 5, 12)
    for tx, _, low in calls:
        want = [k for k in range(len(rels[0].values))
                if all(rels[r].values[k] < PARAMS.s_min for r in _receivers(tx, n))]
        assert ids_of(low) == want


def test_true_values_are_receiver_relevances(monkeypatch):
    rels, calls = _recorded_transmissions(monkeypatch, 37, 4, 5, 12)
    for tx, values, _ in calls:
        assert values == [rels[r].values for r in _receivers(tx, 4)]


def test_eps_reported_only_for_estimating_scheme():
    for scheme, expect in ((SchemeKind.SEMANTIC, True), (SchemeKind.BASELINE, False),
                           (SchemeKind.IDEAL_SEMANTIC, False)):
        state, rng, _ = _fresh_state(38, scheme=scheme)
        _, _, eps = run_slot(state, 0, rng)
        assert (eps is not None) == expect


def test_all_low_relevance_yields_empty_messages():
    # Every object in the low class: the ideal scheme finds nothing worth
    # sending, and the (empty) message replaces the sender's previous one.
    params = RelevanceParams(delta_L=1.0)
    state, rng, _ = _fresh_state(39, scheme=SchemeKind.IDEAL_SEMANTIC,
                              relevance_params=params)
    for t in range(6):
        sent, _, _ = run_slot(state, t % 2, rng)
        assert sent == 0
        assert state.sent[t % 2] == 0


def test_episode_is_deterministic():
    cfg = EpisodeConfig(ExperimentSpec(relevance=PARAMS, slots=120),
                        SchemeKind.SEMANTIC, 7)
    a = run_episode_accumulator(cfg, np.random.default_rng(40)).finalize()
    b = run_episode_accumulator(cfg, np.random.default_rng(40)).finalize()
    assert a == b
    c = run_episode_accumulator(cfg, np.random.default_rng(41)).finalize()
    assert a != c  # different stream, different sampled world


def test_warm_up_excludes_first_cycle():
    cfg = EpisodeConfig(ExperimentSpec(relevance=PARAMS, slots=200),
                        SchemeKind.BASELINE, 5)
    acc = run_episode_accumulator(cfg, np.random.default_rng(42))
    # 200 slots minus a 2-slot warm-up: 99 counted messages per vehicle.
    assert acc.messages == 198


def test_unconstrained_baseline_sends_whole_local_set():
    # gamma = 25 exceeds typical local-set sizes, so the mean message size
    # reproduces the mean detection count (~15 objects).
    cfg = EpisodeConfig(ExperimentSpec(relevance=PARAMS, slots=400),
                        SchemeKind.BASELINE, 25)
    # Per-episode means swing widely with vehicle placement (a corner vehicle
    # sees far fewer objects), so average over a batch of scenes.
    sizes = []
    for seed in range(30):
        acc = run_episode_accumulator(cfg, np.random.default_rng(100 + seed))
        sizes.append(acc.variables / acc.messages)
    assert 13.0 <= float(np.mean(sizes)) <= 17.0


def test_constant_velocity_vehicles_move_during_episode():
    state, rng, _ = _fresh_state(45, vehicles=2, mobility=MobilityMode.CONSTANT_VELOCITY)
    start = list(state.fleet.positions)
    assert start == [track[:2] for track in state.fleet.tracks]  # each at its origin
    for t in range(50):
        run_slot(state, t % 2, rng)
    assert all(a != b for a, b in zip(state.fleet.positions, start))


def test_a_static_episode_never_moves_its_fleet():
    # Every track steps 1.4 m per slot, but only a constant-velocity episode moves.
    state, rng, _ = _fresh_state(45, vehicles=3)
    start = list(state.fleet.positions)
    assert all(track[5] == 14.0 * 0.1 for track in state.fleet.tracks)
    for t in range(60):
        run_slot(state, t % 3, rng)
    assert state.fleet.positions == start


@pytest.mark.parametrize("mobility", list(MobilityMode))
def test_run_episode_on_a_scene_drawn_by_hand_equals_run_episode_accumulator(mobility):
    # Drawn in the order run_episode_accumulator draws it, the scene leaves
    # the stream where the slot loop starts, so the two runs are one episode.
    spec = ExperimentSpec(scene=SceneConfig(vehicle_count=3, mobility_mode=mobility),
                          relevance=PARAMS, slots=24)
    config = EpisodeConfig(spec, SchemeKind.SEMANTIC, 4)
    rng = np.random.default_rng(50)
    by_hand = run_episode(*_draw_scene(spec, rng), config, rng)
    drawn = run_episode_accumulator(config, np.random.default_rng(50))
    assert by_hand.finalize() == drawn.finalize()
    assert by_hand == drawn


def test_a_moving_scene_runs_alike_twice_on_one_fleet():
    # The episode moves its own copy of the fleet, so the scene's fleet stays
    # at its spawn positions and a second run on it is the same episode.
    spec = ExperimentSpec(
        scene=SceneConfig(vehicle_count=3, mobility_mode=MobilityMode.CONSTANT_VELOCITY),
        relevance=PARAMS, slots=24)
    config = EpisodeConfig(spec, SchemeKind.SEMANTIC, 4)
    objects, fleet, relevance = _draw_scene(spec, np.random.default_rng(51))
    spawned = list(fleet.positions)
    runs = [run_episode(objects, fleet, relevance, config, np.random.default_rng(52))
            for _ in range(2)]
    assert fleet.positions == spawned
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mobility", list(MobilityMode))
def test_detection_vectors_computed_only_where_drawn(monkeypatch, mobility):
    # A vehicle's vector is computed in its slot, just before its draw, when
    # none is cached for its position: once per vehicle in a static episode,
    # and in every slot of a moving one, whose move drops the cache.  Every
    # draw gets the very array a call returned.
    n, slots = 4, 16
    computed, drawn = [], []
    detect, draw = engine.detection_probability_vector, engine.sample_hits

    def counting_detect(*args):
        computed.append(detect(*args))
        return computed[-1]

    def recording_draw(probs, rng):
        drawn.append(probs)
        return draw(probs, rng)

    monkeypatch.setattr(engine, "detection_probability_vector", counting_detect)
    monkeypatch.setattr(engine, "sample_hits", recording_draw)
    spec = ExperimentSpec(scene=SceneConfig(vehicle_count=n, mobility_mode=mobility),
                          relevance=PARAMS, slots=slots)
    cfg = EpisodeConfig(spec, SchemeKind.BASELINE, 5)
    run_episode_accumulator(cfg, np.random.default_rng(46))
    assert len(drawn) == slots
    if mobility is MobilityMode.STATIC_EPISODE:
        assert len(computed) == n
        assert all(probs is computed[t % n] for t, probs in enumerate(drawn))
    else:
        assert len(computed) == slots
        assert all(probs is fresh for probs, fresh in zip(drawn, computed))
