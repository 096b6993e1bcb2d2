"""Relevance functions: two-class values, distance-correlated class membership."""
import math

import numpy as np
import pytest

from relevance_sim import (
    RelevanceParams,
    SceneConfig,
    Scenario,
    VehicleKinematics,
    build_relevance_functions,
    correlation_coefficient,
    place_objects,
)
from relevance_sim.scenario import ObjectPoint
from relevance_sim.schemes import ids_of


def _two_vehicle_scenario(separation, n_objects=110, rng=None):
    cfg = SceneConfig(object_count=n_objects, width=1000.0, height=200.0)
    objs = place_objects(cfg, rng) if rng is not None else [
        ObjectPoint(k, (0.0, 0.0)) for k in range(n_objects)
    ]
    vehicles = []
    for vid, x in enumerate((0.0, separation)):
        vehicles.append(VehicleKinematics(
            id=vid, origin=(x, 0.0), destination=(x + 1.0, 0.0),
            position=(x, 0.0), speed=0.0, perception_coeffs=cfg.detection_coeffs,
        ))
    return Scenario(cfg, objs, vehicles)


def test_correlation_reference_points():
    p = RelevanceParams()
    assert correlation_coefficient(50.0, p) == pytest.approx(0.9)
    assert correlation_coefficient(400.0, p) == pytest.approx(0.0)
    assert correlation_coefficient(250.0, p) == pytest.approx(0.45)
    # Continuous at the near edge, zero beyond the far edge.
    assert correlation_coefficient(100.0, p) == pytest.approx(0.9)
    assert correlation_coefficient(1000.0, p) == 0.0


def test_correlation_monotone_in_distance():
    p = RelevanceParams()
    d = np.arange(0.0, 450.0, 5.0)
    rho = [correlation_coefficient(x, p) for x in d]
    assert all(a >= b for a, b in zip(rho, rho[1:]))


def test_params_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        RelevanceParams(delta_L=1.4).validate()
    with pytest.raises(ValueError):
        RelevanceParams(rho_near=-0.1).validate()
    with pytest.raises(ValueError):
        RelevanceParams(d_near=400.0, d_far=100.0).validate()
    with pytest.raises(ValueError):
        RelevanceParams(high_range=(0.0, 1.2)).validate()


def test_values_are_zero_or_in_high_range():
    params = RelevanceParams()
    scenario = _two_vehicle_scenario(50.0)
    rels = build_relevance_functions(scenario, params, np.random.default_rng(2))
    lo, hi = params.high_range
    for rel in rels:
        assert len(rel.values) == len(scenario.objects)
        for k, w in enumerate(rel.values):
            assert w == 0.0 or lo <= w <= hi
            assert bool(rel.high_mask >> k & 1) == (w > 0.0)


def test_all_low_class_when_delta_is_one():
    params = RelevanceParams(delta_L=1.0)
    scenario = _two_vehicle_scenario(50.0)
    rels = build_relevance_functions(scenario, params, np.random.default_rng(4))
    for rel in rels:
        assert rel.high_mask == 0
        assert all(w == 0.0 for w in rel.values)


def test_high_class_marginal_preserved_for_every_vehicle():
    # Both the independent and the correlated-copy branches must leave the
    # per-vehicle chance of a high-class object at 1 - delta_L = 0.3.
    params = RelevanceParams()
    scenario = _two_vehicle_scenario(150.0)
    rng = np.random.default_rng(8)
    seeds = 300
    k = len(scenario.objects)
    highs = np.zeros(2)
    for _ in range(seeds):
        rels = build_relevance_functions(scenario, params, rng)
        for v in range(2):
            highs[v] += rels[v].high_mask.bit_count()
    n = seeds * k
    p_hat = highs / n
    sigma = math.sqrt(0.3 * 0.7 / n)
    for v in range(2):
        assert abs(p_hat[v] - 0.3) < 3 * sigma
    # Mean high count per vehicle ~ 110 * 0.3 = 33.
    assert highs[0] / seeds == pytest.approx(33.0, abs=3.0)


def _class_agreement(separation, params, seeds, seed):
    rng = np.random.default_rng(seed)
    scenario = _two_vehicle_scenario(separation)
    k = len(scenario.objects)
    agree = 0
    for _ in range(seeds):
        rels = build_relevance_functions(scenario, params, rng)
        for a, b in zip(rels[0].values, rels[1].values):
            agree += (a > 0) == (b > 0)
    return agree / (seeds * k)


def test_class_agreement_matches_mixture_formula():
    # With the independent-redraw coin disabled, two vehicles at distance d
    # share an object's class with probability
    #   rho(d) + (1 - rho(d)) * (p_high^2 + p_low^2).
    params = RelevanceParams(randomization_p=0.0)
    rho = correlation_coefficient(50.0, params)
    expected = rho + (1 - rho) * (0.3**2 + 0.7**2)
    got = _class_agreement(50.0, params, seeds=250, seed=31)
    n = 250 * 110
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(got - expected) < 4 * sigma


def test_class_agreement_decays_with_distance():
    params = RelevanceParams(randomization_p=0.0)
    near = _class_agreement(50.0, params, seeds=120, seed=37)
    far = _class_agreement(380.0, params, seeds=120, seed=41)
    assert near > far + 0.2  # 0.958 vs ~0.60 in expectation


def test_high_values_redrawn_per_vehicle():
    # Correlation acts on class membership only; the value of a shared
    # high-class object is an independent draw for each vehicle.
    params = RelevanceParams(randomization_p=0.0)
    scenario = _two_vehicle_scenario(10.0)
    rng = np.random.default_rng(13)
    rels = build_relevance_functions(scenario, params, rng)
    shared = ids_of(rels[0].high_mask & rels[1].high_mask)
    assert shared  # 10 m apart, rho = 0.9: plenty of shared high ids
    assert any(rels[0].values[k] != rels[1].values[k] for k in shared)


def test_build_is_deterministic():
    params = RelevanceParams()
    scenario = _two_vehicle_scenario(75.0)
    a = build_relevance_functions(scenario, params, np.random.default_rng(99))
    b = build_relevance_functions(scenario, params, np.random.default_rng(99))
    assert [r.values for r in a] == [r.values for r in b]

