"""Selection schemes: estimation model, the five selectors, and the brute-force
cross-check for the ideal selector."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import sample_estimated_value
from relevance_sim.schemes import (
    EstimationModel,
    _random_subset,
    estimation_error,
    exhaustive_best_selection,
    ids_of,
    mask_of,
    oracle_mismatch_count,
    random_selection_instance,
    select_baseline,
    select_ideal_semantic,
    select_irc,
    select_rm,
    select_semantic,
)

MODEL = EstimationModel()
S_MIN = 0.05


_m = mask_of  # short name for the many literal masks below


def _width(known_size):
    # Noise width the engine hands the semantic selector for a transmitter
    # that knows `known_size` objects.
    return MODEL.value_range_width * estimation_error(known_size, MODEL)


# --- estimation model -------------------------------------------------------

def test_estimation_error_reference_points():
    assert estimation_error(26, MODEL) == pytest.approx(0.5)
    assert estimation_error(0, MODEL) == pytest.approx(0.9999977, abs=1e-6)
    assert estimation_error(40, MODEL) == pytest.approx(0.000911, abs=1e-5)


def test_estimation_error_strictly_decreasing():
    eps = [estimation_error(c, MODEL) for c in range(0, 60)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    assert all(0.0 < e < 1.0 for e in eps)


def test_estimation_error_saturates_where_the_exponential_overflows():
    # exp(-a5 * (c - a6)) overflows a float at every count listed: below a6 for
    # a5 > 0, above it for a5 < 0.
    for a5, counts in ((1000.0, (0, 1, 25)), (-1000.0, (27, 110, 10**6))):
        steep = EstimationModel(a4=1.0, a5=a5, a6=26.0)
        assert [estimation_error(c, steep) for c in counts] == [0.0] * 3
        flat = EstimationModel(a4=0.0, a5=a5, a6=26.0)
        assert [estimation_error(c, flat) for c in counts] == [1.0] * 3
    # Where the exponential is 1 or underflows to 0, the formula is unchanged.
    assert estimation_error(26, EstimationModel(a4=3.0, a5=1000.0, a6=26.0)) == 0.25
    assert estimation_error(10**6, EstimationModel(a4=1.0, a5=1000.0, a6=26.0)) == 1.0


def test_estimated_value_zero_error_is_identity():
    rng = np.random.default_rng(1)
    for w in (0.0, 0.05, 0.31, 1.0):
        assert sample_estimated_value(w, 0.0, MODEL, rng) == w


def test_estimated_value_contained_and_centred():
    rng = np.random.default_rng(2)
    for w, eps in ((0.7, 0.4), (0.2, 1.0), (0.0, 1.0), (1.0, 0.3)):
        half = MODEL.value_range_width * eps / 2
        draws = np.array([sample_estimated_value(w, eps, MODEL, rng) for _ in range(4000)])
        assert draws.min() >= w - half
        assert draws.max() <= w + half
        # Centred on the true value: the interval is not folded back into
        # [0, 1], so the sample mean stays at w even at the range edges.
        assert abs(draws.mean() - w) < 4 * (half / math.sqrt(3 * len(draws)))


def test_estimated_value_uniform_on_interval():
    # true 0.7, eps 0.4 -> uniform on [0.5, 0.9]; one-sample KS check.
    rng = np.random.default_rng(3)
    n = 10_000
    draws = np.sort([sample_estimated_value(0.7, 0.4, MODEL, rng) for _ in range(n)])
    cdf = (draws - 0.5) / 0.4
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d_stat = max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo))
    assert d_stat < 1.63 / math.sqrt(n)  # alpha = 0.01 critical value


# --- content-agnostic selectors ---------------------------------------------

def test_baseline_under_budget_sends_everything():
    rng = np.random.default_rng(4)
    assert select_baseline(_m({3, 7, 9}), 5, rng) == [3, 7, 9]
    assert select_baseline(0, 5, rng) == []


def test_baseline_over_budget_uniform_subset():
    local = set(range(10))
    rng = np.random.default_rng(5)
    counts = {k: 0 for k in local}
    for _ in range(10_000):
        out = select_baseline(_m(local), 4, rng)
        assert len(out) == 4 and set(out) <= local
        for k in out:
            counts[k] += 1
    # Each element is kept with probability gamma/|local| = 0.4.
    for k, c in counts.items():
        assert abs(c / 10_000 - 0.4) < 0.03


def test_irc_removes_redundant_only_while_over_budget():
    local, red = _m({0, 1, 2, 3}), {1, 3}
    rng = np.random.default_rng(6)
    saw = set()
    for _ in range(200):
        out = set(select_irc(local, _m(red), 3, rng))
        assert len(out) == 3 and {0, 2} <= out
        saw |= out & red
    assert saw == red  # removal among redundant ids is randomised
    assert select_irc(local, _m(red), 2, rng) == [0, 2]
    assert select_irc(_m({0, 1}), _m(red), 5, rng) == [0, 1]


def test_irc_falls_back_to_non_redundant_subset():
    # Dropping every redundant id still leaves too much: random budget-sized
    # subset of the non-redundant remainder.
    local = set(range(8))
    red = {6, 7}
    rng = np.random.default_rng(7)
    for _ in range(100):
        out = select_irc(_m(local), _m(red), 3, rng)
        assert len(out) == 3
        assert set(out) <= local - red


def test_rm_drops_all_estimated_redundant():
    rng = np.random.default_rng(8)
    assert select_rm(_m({0, 1, 2, 3}), _m({1, 3}), 3, rng) == [0, 2]
    assert select_rm(_m({0, 1}), _m({0, 1}), 3, rng) == []
    for _ in range(100):
        out = select_rm(_m(range(9)), 0, 2, rng)
        assert len(out) == 2 and set(out) <= set(range(9))


def _rm_written_out(local, est_known, gamma, rng):
    # RM with its own random-subset rule, as it read before it became Baseline
    # over the non-redundant ids.
    candidate = ids_of(local & ~est_known)
    return candidate if len(candidate) <= gamma else _random_subset(candidate, gamma, rng)


def test_rm_is_baseline_over_non_redundant_and_irc_falls_back_to_rm():
    # Same draws and same generator state on random instances: RM equals
    # Baseline over `local & ~est_known`, and IRC equals RM whenever the
    # non-redundant ids alone exceed the budget.
    instances = np.random.default_rng(41)
    fallbacks = 0
    for seed in range(600):
        local = int(instances.integers(0, 2**40))
        est = int(instances.integers(0, 2**40))
        gamma = int(instances.integers(1, 13))
        rngs = [np.random.default_rng(seed) for _ in range(4)]
        rm = select_rm(local, est, gamma, rngs[0])
        assert rm == select_baseline(local & ~est, gamma, rngs[1])
        assert rm == _rm_written_out(local, est, gamma, rngs[2])
        states = [rngs[0].bit_generator.state, rngs[1].bit_generator.state,
                  rngs[2].bit_generator.state]
        if (local & ~est).bit_count() > gamma:
            fallbacks += 1
            assert select_irc(local, est, gamma, rngs[3]) == rm
            states.append(rngs[3].bit_generator.state)
        assert all(state == states[0] for state in states)
    assert 100 <= fallbacks <= 500  # both branches of RM and the IRC fallback ran


# --- semantic selector -------------------------------------------------------

def _values_for(n_receivers, table):
    # table: id -> per-receiver tuple (or scalar applied to all receivers);
    # one value row per receiver.
    values = [[0.0] * 40 for _ in range(n_receivers)]
    for k, v in table.items():
        for i in range(n_receivers):
            values[i][k] = v[i] if isinstance(v, tuple) else v
    return values


def test_semantic_selection_contract():
    rng = np.random.default_rng(9)
    local = set(range(12))
    for _ in range(1000):
        values = [rng.uniform(0.0, 1.0, 40).tolist()]
        out = select_semantic(_m(local), 0, values, 5, S_MIN, _width(28), rng)
        assert len(out) <= 5
        assert set(out) <= local
        assert out == sorted(out)


def test_semantic_scores_redundant_as_zero():
    # Estimated-redundant ids can never outrank the threshold, whatever the noise.
    rng = np.random.default_rng(10)
    values = _values_for(1, {k: 0.9 for k in range(6)})
    local = _m(range(6))
    assert select_semantic(local, local, values, 6, S_MIN, _width(6), rng) == []


def test_semantic_zero_error_degenerates_to_ideal():
    rng = np.random.default_rng(11)
    values = _values_for(2, {0: (0.9, 0.1), 1: (0.2, 0.7), 2: 0.04, 3: 0.6, 4: 0.0})
    local, est = _m({0, 1, 2, 3, 4}), _m({3})
    for gamma in (1, 2, 3):
        # A known-set size far beyond the logistic midpoint forces eps ~ 0.
        got = select_semantic(local, est, values, gamma, S_MIN, _width(500), rng)
        assert got == select_ideal_semantic(local, [est, est], values, gamma, S_MIN)


def test_semantic_all_below_threshold_sends_nothing():
    rng = np.random.default_rng(12)
    values = _values_for(1, {0: 0.04, 1: 0.01, 2: 0.0})
    assert select_semantic(_m({0, 1, 2}), 0, values, 3, S_MIN, _width(500), rng) == []


def test_semantic_draw_order_matches_scalar_sampling():
    # The selector consumes exactly one uniform per (variable, receiver) pair,
    # variables in ascending id order, receivers in row order; replaying
    # the same stream through sample_estimated_value must reproduce it.
    seed = 13
    local = {2, 5, 7, 11}
    rng = np.random.default_rng(seed)
    values = [rng.uniform(0.0, 1.0, 40).tolist() for _ in range(2)]
    got = select_semantic(_m(local), _m({5}), values, 2, S_MIN, _width(20),
                          np.random.default_rng(seed + 1))

    replay = np.random.default_rng(seed + 1)
    eps = estimation_error(20, MODEL)
    scored = []
    for k in sorted(local - {5}):
        best = max(sample_estimated_value(row[k], eps, MODEL, replay) for row in values)
        if best > S_MIN:
            scored.append((-best, k))
    expected = sorted(k for _, k in sorted(scored)[:2])
    assert got == expected


# --- ideal selector and its oracle -------------------------------------------

def test_ideal_picks_top_true_values():
    values = _values_for(1, {0: 0.8, 1: 0.5, 2: 0.6, 3: 0.03})
    # id 1 redundant for the sole receiver
    assert select_ideal_semantic(_m({0, 1, 2, 3}), [_m({1})], values, 2, S_MIN) == [0, 2]


def test_ideal_empty_local_and_tie_break():
    values = _values_for(1, {0: 0.9, 1: 0.9})
    assert select_ideal_semantic(0, [0], values, 2, S_MIN) == []
    out = select_ideal_semantic(_m({0, 1}), [0], values, 1, S_MIN)
    assert out == [0]  # equal scores: lower id wins


def test_ideal_uses_best_value_over_receivers():
    # Known to receiver 1 but fresh and valuable to receiver 2: still selected.
    values = _values_for(2, {0: (0.9, 0.8), 1: (0.3, 0.2)})
    local = _m({0, 1})
    assert select_ideal_semantic(local, [_m({0}), 0], values, 1, S_MIN) == [0]
    # Redundant for every receiver: worthless, never selected.
    assert select_ideal_semantic(local, [_m({0}), _m({0})], values, 2, S_MIN) == [1]


def test_exhaustive_reference_selector():
    scores = {4: 0.5, 9: 0.5, 2: 0.04, 7: 0.9}
    assert exhaustive_best_selection(scores, gamma=2, s_min=0.05) == {4, 7}
    assert exhaustive_best_selection(scores, gamma=1, s_min=0.05) == {7}
    # Ties prefer the lexicographically smallest id tuple.
    assert exhaustive_best_selection({1: 0.5, 2: 0.5}, gamma=1, s_min=0.05) == {1}
    assert exhaustive_best_selection({}, gamma=3, s_min=0.05) == set()


def test_ideal_matches_brute_force_on_random_instances():
    assert oracle_mismatch_count(instances=200, seed=5) == 0


# --- cross-cutting properties -------------------------------------------------

UNIVERSE = 30
# Values on a 1/64 grid, so equal scores (and tie-breaks) occur and sums of
# scores are exact in binary floating point.
_row = st.lists(st.integers(0, 64), min_size=UNIVERSE, max_size=UNIVERSE).map(
    lambda row: [i / 64.0 for i in row])
_mask = st.integers(0, 2**UNIVERSE - 1)


@st.composite
def _instances(draw, max_local=UNIVERSE):
    """(local, est_known, receivers' known masks, their value rows, gamma, s_min)."""
    n_receivers = draw(st.integers(1, 3))
    local = draw(st.sets(st.integers(0, UNIVERSE - 1), max_size=max_local).map(_m))
    est_known = draw(_mask)
    known = [draw(_mask) for _ in range(n_receivers)]
    values = [draw(_row) for _ in range(n_receivers)]
    gamma = draw(st.integers(1, 8))
    return local, est_known, known, values, gamma, draw(st.sampled_from([0.0, S_MIN, 0.5]))


@settings(max_examples=300, deadline=None)
@given(_instances(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_every_selector_respects_budget_and_locality(instance, width, seed):
    local, est, known, values, gamma, s_min = instance
    rng = np.random.default_rng(seed)
    outputs = [
        select_baseline(local, gamma, rng),
        select_irc(local, est, gamma, rng),
        select_rm(local, est, gamma, rng),
        select_semantic(local, est, values, gamma, s_min, width, rng),
        select_ideal_semantic(local, known, values, gamma, s_min),
    ]
    for out in outputs:
        assert len(out) <= gamma
        assert _m(out) & ~local == 0
        assert out == sorted(set(out))
    # The redundancy-mitigation output shares nothing with the estimate.
    assert _m(outputs[2]) & est == 0


@settings(max_examples=300, deadline=None)
@given(_instances(max_local=12))
def test_ideal_equals_exhaustive_search_property(instance):
    local, _, known, values, gamma, s_min = instance
    scores = {
        k: max(0.0 if mask >> k & 1 else row[k] for mask, row in zip(known, values))
        for k in ids_of(local)
    }
    want = sorted(exhaustive_best_selection(scores, gamma, s_min))
    assert select_ideal_semantic(local, known, values, gamma, s_min) == want


def test_selectors_are_pure_given_stream_state():
    rng_a = np.random.default_rng(15)
    rng_b = np.random.default_rng(15)
    local, _, values, gamma, s_min = random_selection_instance(np.random.default_rng(16))
    est = _m({1, 4})
    assert select_baseline(local, gamma, rng_a) == select_baseline(local, gamma, rng_b)
    for select in (select_irc, select_rm):
        assert select(local, est, gamma, rng_a) == select(local, est, gamma, rng_b)
    width = _width(local.bit_count())
    assert (select_semantic(local, est, values, gamma, s_min, width, rng_a)
            == select_semantic(local, est, values, gamma, s_min, width, rng_b))


def test_shuffled_subset_matches_permutation_prefix():
    # Draw contract: shuffling the ascending ids keeps the subset, and the
    # generator state, of indexing them through a permutation prefix.
    for n in range(1, 111):
        items = sorted(np.random.default_rng(n).choice(200, size=n, replace=False).tolist())
        for seed in range(30):
            size = 1 + (seed * 7 + n) % n
            rng_shuffle = np.random.default_rng([seed, n])
            rng_perm = np.random.default_rng([seed, n])
            got = _random_subset(list(items), size, rng_shuffle)
            want = sorted(items[i] for i in rng_perm.permutation(n)[:size].tolist())
            assert got == want
            assert rng_shuffle.bit_generator.state == rng_perm.bit_generator.state
