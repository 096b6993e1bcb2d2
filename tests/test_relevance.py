"""Relevance functions: two-class values, distance-correlated class membership."""
import math

import numpy as np
import pytest

from relevance_sim.relevance import (
    RelevanceFunction,
    RelevanceParams,
    build_relevance_functions,
    correlation_coefficient,
)
from relevance_sim.schemes import ids_of

K = 110  # objects per scene


def _two_vehicles(separation):
    # Spawn positions of a reference vehicle and one `separation` metres away.
    return [(0.0, 0.0), (separation, 0.0)]


def test_derived_masks_cannot_be_left_out():
    # Built without its masks, a function would have no high or low ids.
    with pytest.raises(TypeError):
        RelevanceFunction((0.9, 0.0))
    rel = RelevanceFunction.from_values(np.array([0.9, 0.0, 0.03]), 0.05)
    assert (rel.high_mask, rel.high_count, rel.low_mask) == (0b101, 2, 0b110)


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


def test_values_are_zero_or_in_high_range():
    params = RelevanceParams()
    rels = build_relevance_functions(K, _two_vehicles(50.0), params, np.random.default_rng(2))
    lo, hi = params.high_range
    for rel in rels:
        assert len(rel.values) == K
        for k, w in enumerate(rel.values):
            assert w == 0.0 or lo <= w <= hi
            assert bool(rel.high_mask >> k & 1) == (w > 0.0)


def test_all_low_class_when_delta_is_one():
    params = RelevanceParams(delta_L=1.0)
    rels = build_relevance_functions(K, _two_vehicles(50.0), params, np.random.default_rng(4))
    for rel in rels:
        assert rel.high_mask == 0
        assert all(w == 0.0 for w in rel.values)


def test_high_class_marginal_preserved_for_every_vehicle():
    # Both the independent and the correlated-copy branches must leave the
    # per-vehicle chance of a high-class object at 1 - delta_L = 0.3.
    params = RelevanceParams()
    rng = np.random.default_rng(8)
    seeds = 300
    highs = np.zeros(2)
    for _ in range(seeds):
        rels = build_relevance_functions(K, _two_vehicles(150.0), params, rng)
        for v in range(2):
            highs[v] += rels[v].high_mask.bit_count()
    n = seeds * K
    p_hat = highs / n
    sigma = math.sqrt(0.3 * 0.7 / n)
    for v in range(2):
        assert abs(p_hat[v] - 0.3) < 3 * sigma
    # Mean high count per vehicle ~ 110 * 0.3 = 33.
    assert highs[0] / seeds == pytest.approx(33.0, abs=3.0)


def _class_agreement(separation, params, seeds, seed):
    rng = np.random.default_rng(seed)
    agree = 0
    for _ in range(seeds):
        rels = build_relevance_functions(K, _two_vehicles(separation), params, rng)
        for a, b in zip(rels[0].values, rels[1].values):
            agree += (a > 0) == (b > 0)
    return agree / (seeds * K)


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
    rng = np.random.default_rng(13)
    rels = build_relevance_functions(K, _two_vehicles(10.0), params, rng)
    shared = ids_of(rels[0].high_mask & rels[1].high_mask)
    assert shared  # 10 m apart, rho = 0.9: plenty of shared high ids
    assert any(rels[0].values[k] != rels[1].values[k] for k in shared)


def test_build_is_deterministic():
    params = RelevanceParams()
    a = build_relevance_functions(K, _two_vehicles(75.0), params, np.random.default_rng(99))
    b = build_relevance_functions(K, _two_vehicles(75.0), params, np.random.default_rng(99))
    assert [r.values for r in a] == [r.values for r in b]

