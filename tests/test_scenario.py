"""Scenario generation: detection model, object placement, vehicle kinematics."""
import math
import warnings

import numpy as np
import pytest

from reference import detection_probability, sample_local_set
from relevance_sim.scenario import (
    Fleet,
    MobilityMode,
    SceneConfig,
    advance_mobility,
    detection_probability_vector,
    place_objects,
    spawn_vehicles,
)

COEFFS = SceneConfig().detection_coeffs


def test_detection_probability_reference_points():
    # Logistic curve pinned at three distances.
    assert detection_probability(60.0, COEFFS) == pytest.approx(0.92593, abs=1e-5)
    assert detection_probability(0.0, COEFFS) == pytest.approx(0.99934, abs=1e-5)
    assert detection_probability(150.0, COEFFS) == pytest.approx(0.00925, abs=1e-5)


def test_detection_probability_strictly_decreasing():
    d = np.arange(0.0, 500.0, 1.0)
    p = np.array([detection_probability(x, COEFFS) for x in d])
    assert np.all(np.diff(p) < 0)
    assert np.all((p > 0) & (p < 1))


def test_detection_probability_vector_matches_scalar_curve():
    cfg = SceneConfig()
    xy = place_objects(cfg, np.random.default_rng(8)).position
    assert xy.shape == (cfg.object_count, 2)
    position = (313.25, 71.5)
    probs = detection_probability_vector(position, xy, COEFFS)
    for (x, y), p in zip(xy.tolist(), probs):
        d = math.hypot(x - position[0], y - position[1])
        assert abs(p - detection_probability(d, COEFFS)) <= 1e-15
    assert detection_probability_vector(position, np.empty((0, 2)), COEFFS).shape == (0,)


def test_detection_curve_takes_its_limit_where_the_exponential_overflows():
    # Objects 10, 100, 700 and 800 m away; with a2 = -100 the exponential
    # overflows a float beyond about 67 m, and with a1 = 1e10 the product
    # a1 * exp(d) overflows at 700 m although exp(700) does not.
    xy = np.array([[10.0, 0.0], [100.0, 0.0], [700.0, 0.0], [800.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = detection_probability_vector((0.0, 0.0), xy, (0.0, -100.0, 60.0))
        cliff = detection_probability_vector((0.0, 0.0), xy, (0.08, -100.0, 60.0))
        steep = detection_probability_vector((0.0, 0.0), xy, (1e10, -1.0, 0.0))
    assert flat.tolist() == [1.0, 1.0, 1.0, 1.0]  # a1 = 0: P = 1 at every distance
    assert cliff.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert steep[2:].tolist() == [0.0, 0.0] and 0.0 < steep[0] < 1e-9


def test_place_objects_bounds_count_and_determinism():
    cfg = SceneConfig()
    objs = place_objects(cfg, np.random.default_rng(7))
    assert len(objs) == cfg.object_count
    xy = objs.position
    assert xy.shape == (cfg.object_count, 2) and xy.flags.c_contiguous
    assert np.all((xy >= 0.0) & (xy <= (cfg.width, cfg.height)))
    # Each record's position is its row of the field: object k is row k.
    assert [tuple(o.position) for o in objs] == [tuple(row) for row in xy]
    again = place_objects(cfg, np.random.default_rng(7))
    assert np.array_equal(again.position, xy)


def test_place_objects_draws_xs_then_ys():
    # Draw contract: all x coordinates, then all y coordinates.
    cfg = SceneConfig(object_count=5)
    rng = np.random.default_rng(9)
    xs, ys = rng.uniform(0.0, cfg.width, 5), rng.uniform(0.0, cfg.height, 5)
    got_rng = np.random.default_rng(9)
    xy = place_objects(cfg, got_rng).position
    assert xy[:, 0].tolist() == xs.tolist() and xy[:, 1].tolist() == ys.tolist()
    assert got_rng.bit_generator.state == rng.bit_generator.state
    assert place_objects(SceneConfig(object_count=0), got_rng).position.shape == (0, 2)


def test_place_objects_uniform_mean_x():
    # Mean x over ~10^4 placements should sit within 3 sigma of the uniform
    # mean W/2, with sigma = (W/sqrt(12)) / sqrt(n).
    cfg = SceneConfig()
    rng = np.random.default_rng(11)
    xs = []
    while len(xs) < 10_000:
        xs.extend(place_objects(cfg, rng).position[:, 0].tolist())
    xs = np.array(xs)
    sigma = (cfg.width / math.sqrt(12.0)) / math.sqrt(len(xs))
    assert abs(xs.mean() - cfg.width / 2) < 3 * sigma


def test_spawn_vehicles_fields_and_determinism():
    # Every track steps speed x 0.1 s per slot; whether it moves is the engine's call.
    for mobility in MobilityMode:
        cfg = SceneConfig(vehicle_count=4, mobility_mode=mobility)
        fleet = spawn_vehicles(cfg, np.random.default_rng(3))
        assert len(fleet.positions) == len(fleet.tracks) == 4
        for position, (ox, oy, dx, dy, seg_len, v_step) in zip(fleet.positions, fleet.tracks):
            assert position == (ox, oy)  # vehicles start at their origin
            assert (dx, dy) != (0.0, 0.0)
            assert seg_len == math.hypot(dx, dy)
            assert v_step == 14.0 * 0.1
            for x, y in ((ox, oy), (ox + dx, oy + dy)):
                assert 0.0 <= x <= cfg.width and 0.0 <= y <= cfg.height
        again = spawn_vehicles(cfg, np.random.default_rng(3))
        assert again == fleet


def test_spawn_draws_match_scalar_uniform_draws():
    # Draw contract: each vehicle's coordinates are the doubles, in the order
    # and with the stream state, of four scalar `uniform` calls.
    for cfg in (SceneConfig(vehicle_count=4), SceneConfig(width=0.3, height=1e6)):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(cfg.vehicle_count):
                ox, oy, x, y = [float(rng.uniform(0.0, s)) for s in (cfg.width, cfg.height) * 2]
                want.append((ox, oy, x - ox, y - oy))
            got_rng = np.random.default_rng(seed)
            got = [track[:4] for track in spawn_vehicles(cfg, got_rng).tracks]
            assert got == want
            assert got_rng.bit_generator.state == rng.bit_generator.state


def _expected_local_size_quadrature(cfg, position):
    # Independent oracle for E[|local set|]: K / (W*H) * integral of P(d) over
    # the rectangle, evaluated by midpoint quadrature on a fine grid.
    xs = np.linspace(0.25, cfg.width - 0.25, 1600)
    ys = np.linspace(0.25, cfg.height - 0.25, 400)
    gx, gy = np.meshgrid(xs, ys)
    d = np.hypot(gx - position[0], gy - position[1])
    a1, a2, a3 = cfg.detection_coeffs
    p = 1.0 / (1.0 + a1 * np.exp(-a2 * (d - a3)))
    return cfg.object_count * p.mean()


def test_local_set_size_matches_quadrature_for_centred_vehicle():
    rng = np.random.default_rng(19)
    cfg = SceneConfig()
    place_objects(cfg, rng)  # discarded; keeps this seed's draws for the snapshots below
    position = (cfg.width / 2, cfg.height / 2)
    expected = _expected_local_size_quadrature(cfg, position)
    sizes = []
    for _ in range(400):
        xy = place_objects(cfg, rng).position
        sizes.append(len(sample_local_set(position, xy, cfg.detection_coeffs, rng)))
    mean = np.mean(sizes)
    sem = np.std(sizes, ddof=1) / math.sqrt(len(sizes))
    assert abs(mean - expected) < 4 * sem


def test_object_at_vehicle_position_nearly_always_detected():
    # One object at distance zero: inclusion frequency ~ P(0) = 0.99934.
    xy = np.array([[100.0, 100.0]])
    rng = np.random.default_rng(23)
    hits = sum(0 in sample_local_set((100.0, 100.0), xy, COEFFS, rng) for _ in range(10_000))
    assert hits / 10_000 == pytest.approx(0.99934, abs=0.005)


def _line_fleet():
    # Two vehicles on (0, 0) -> (100, 0) at 10 m/s * 0.1 s/slot = 1 m per slot along +x.
    return Fleet([(0.0, 0.0)] * 2, [(0.0, 0.0, 100.0, 0.0, 100.0, 10.0 * 0.1)] * 2)


def test_advance_mobility_constant_velocity_moves_and_clamps():
    step = _line_fleet()
    for _ in range(30):
        advance_mobility(step)
    assert step.positions[0] == pytest.approx((30.0, 0.0))
    # Far beyond the segment end: clamp exactly at the destination, no overshoot.
    clamped = _line_fleet()
    for _ in range(10_000):
        advance_mobility(clamped)
    assert clamped.positions == [(100.0, 0.0), (100.0, 0.0)]


def _moving_fleet(seed, speed=100.0):
    cfg = SceneConfig(vehicle_count=4, mobility_mode=MobilityMode.CONSTANT_VELOCITY,
                      vehicle_speed=speed)
    return spawn_vehicles(cfg, np.random.default_rng(seed))


def test_advance_mobility_keeps_vehicles_on_their_segments():
    for seed in range(20):
        fleet = _moving_fleet(seed)
        travelled = [0.0] * 4
        for _ in range(100):  # 10 m per slot: most vehicles clamp on the way
            advance_mobility(fleet)
            for v, (x, y) in enumerate(fleet.positions):
                ox, oy, dx, dy, seg_len, _ = fleet.tracks[v]
                along = ((x - ox) * dx + (y - oy) * dy) / seg_len
                assert abs((x - ox) * dy - (y - oy) * dx) / seg_len < 1e-9
                assert -1e-9 <= along <= seg_len + 1e-9
                assert along >= travelled[v] - 1e-9
                travelled[v] = along


def test_clamped_vehicle_sits_exactly_at_its_segment_end():
    for seed in range(20):
        fleet = _moving_fleet(seed)
        for _ in range(83):  # 830 m: longer than the scene diagonal
            advance_mobility(fleet)
        for position, (ox, oy, dx, dy, _, _) in zip(fleet.positions, fleet.tracks):
            # origin + 1.0 * (destination - origin), which is the destination
            # up to the rounding of that sum.
            assert position == (ox + dx, oy + dy)
        # Once clamped, further steps stay put.
        before = list(fleet.positions)
        for _ in range(41):
            advance_mobility(fleet)
        assert fleet.positions == before
