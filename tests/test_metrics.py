"""Metric accumulation: per-message semantic value, low-relevance and usage
ratios, awareness snapshots, and shard merging."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relevance_sim import MetricsAccumulator
from relevance_sim.relevance import RelevanceFunction
from relevance_sim.schemes import mask_of

S_MIN = 0.05


def _message(variables, true_values, redundant, gamma, eps=None, receivers=(1,)):
    """Arguments of `record_transmission` for one message from vehicle 0, from
    per-variable rows of true values and redundancy flags (one entry per
    receiver): the sent mask, each receiver's value row, its known mask
    holding exactly the variables flagged redundant for it, and the mask of
    variables below s_min for every receiver."""
    width = max(variables, default=0) + 1
    rows = [np.zeros(width) for _ in receivers]
    known = [0] * len(receivers)
    for k, row, flags in zip(variables, true_values, redundant):
        for i, (w, red) in enumerate(zip(row, flags)):
            rows[i][k] = w
            if red:
                known[i] |= 1 << k
    values = [tuple(row.tolist()) for row in rows]
    return mask_of(variables), values, known, _low_mask(rows), gamma, eps


def test_redundant_variable_contributes_zero_value():
    acc = MetricsAccumulator()
    # Two variables to one receiver: 0.7 fresh, 0.6 but already known.
    acc.record_transmission(*_message([3, 4], [(0.7,), (0.6,)], [(False,), (True,)], gamma=5))
    rec = acc.finalize()
    assert rec.mean_sv == pytest.approx(0.7)
    assert rec.se == pytest.approx(0.35)  # 0.7 over 2 transmitted variables
    assert rec.lrr == 0.0  # both true values clear the threshold


def test_low_relevance_fraction():
    acc = MetricsAccumulator()
    values = [(0.5,), (0.8,), (0.02,), (0.6,)]
    red = [(False,)] * 4
    acc.record_transmission(*_message([0, 1, 2, 3], values, red, gamma=4))
    assert acc.finalize().lrr == pytest.approx(0.25)


def test_low_needs_every_receiver_below_threshold():
    acc = MetricsAccumulator()
    # Below s_min for receiver A but relevant to receiver B: not low.
    acc.record_transmission(*_message([0], [(0.03, 0.5)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    # Below for both receivers: low, even though it was fresh for both.
    acc.record_transmission(*_message([1], [(0.03, 0.04)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().lrr == pytest.approx(0.5)


def test_value_is_best_over_receivers():
    acc = MetricsAccumulator()
    # Redundant where it was valuable, fresh where it is mediocre.
    acc.record_transmission(*_message([0], [(0.9, 0.4)], [(True, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().mean_sv == pytest.approx(0.4)


def test_mean_aggregation_averages_over_receivers():
    acc = MetricsAccumulator(sv_aggregation="mean")
    acc.record_transmission(*_message([0], [(0.7, 0.3)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().mean_sv == pytest.approx(0.5)
    with pytest.raises(ValueError):
        MetricsAccumulator(sv_aggregation="median")


def test_empty_message_counts_but_adds_nothing():
    acc = MetricsAccumulator()
    acc.record_transmission(*_message([], [], [], gamma=5))
    rec = acc.finalize()
    assert acc.messages == 1 and acc.variables == 0
    assert rec.usage == 0.0
    assert rec.mean_sv == 0.0
    assert rec.lrr is None and rec.se is None  # no variables, no ratio


def test_usage_saturates_at_full_budget():
    acc = MetricsAccumulator()
    for _ in range(5):
        acc.record_transmission(*_message([0, 1, 2], [(0.5,)] * 3, [(False,)] * 3, gamma=3))
    assert acc.finalize().usage == pytest.approx(1.0)


def test_efficiency_times_variables_equals_total_value():
    rng = np.random.default_rng(21)
    acc = MetricsAccumulator()
    for message in _random_stream(rng, 60):
        acc.record_transmission(*message)
    rec = acc.finalize()
    assert rec.se * acc.variables == pytest.approx(acc.sv_total, rel=1e-9)
    # 20 variables of value 0.5 each: se is their mean value.
    flat = MetricsAccumulator()
    for _ in range(10):
        flat.record_transmission(*_message([0, 1], [(0.5,), (0.5,)],
                                           [(False,), (False,)], gamma=2))
    assert flat.finalize().se == pytest.approx(0.5)


def test_awareness_snapshot_ratio():
    acc = MetricsAccumulator()
    rel = RelevanceFunction.from_values(np.array([0.6, 0.8, 0.0, 0.0]), S_MIN)
    acc.record_awareness_snapshot(0b1001, rel)  # knows ids 0 and 3, high {0,1}
    assert acc.finalize() .hrr is None  # no messages yet -> whole record is "no data"
    acc.record_transmission(*_message([], [], [], gamma=1))
    assert acc.finalize().hrr == pytest.approx(0.5)
    acc.record_awareness_snapshot(0b0011, rel)  # knows both high ids
    assert acc.finalize().hrr == pytest.approx(0.75)


def test_vehicle_without_high_class_contributes_no_snapshot():
    acc = MetricsAccumulator()
    rel = RelevanceFunction.from_values(np.zeros(4), S_MIN)
    acc.record_awareness_snapshot(0b1111, rel)
    acc.record_transmission(*_message([], [], [], gamma=1))
    assert acc.finalize().hrr is None


def test_mean_eps_only_over_estimating_messages():
    acc = MetricsAccumulator()
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1, eps=0.4))
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1))
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1, eps=0.2))
    assert acc.finalize().mean_eps == pytest.approx(0.3)


def test_transmission_multiplicity():
    acc = MetricsAccumulator()
    acc.record_transmission(*_message([1, 2], [(0.5,)] * 2, [(False,)] * 2, gamma=2))
    acc.record_transmission(*_message([2, 3], [(0.5,)] * 2, [(False,)] * 2, gamma=2))
    # 4 transmission events over 3 distinct ids.
    assert acc.finalize().tx_multiplicity == pytest.approx(4 / 3)


def test_empty_accumulator_reports_no_data():
    rec = MetricsAccumulator().finalize()
    for name in ("hrr", "mean_sv", "lrr", "usage", "se", "mean_eps", "tx_multiplicity"):
        assert getattr(rec, name) is None


def _random_stream(rng, n):
    out = []
    for _ in range(n):
        n_recv = int(rng.integers(1, 4))
        n_vars = int(rng.integers(0, 6))
        ids = sorted(rng.choice(25, size=n_vars, replace=False).tolist())
        values = [tuple(rng.uniform(0.0, 1.0, n_recv).tolist()) for _ in ids]
        red = [tuple((rng.random(n_recv) < 0.3).tolist()) for _ in ids]
        eps = float(rng.uniform(0, 1)) if rng.random() < 0.5 else None
        out.append(_message(ids, values, red, gamma=int(rng.integers(max(1, n_vars), 8)),
                            eps=eps, receivers=tuple(range(1, n_recv + 1))))
    return out


def _random_snapshots(rng, n):
    # Awareness samples over 25 objects, each high with probability 1/2.
    out = []
    for _ in range(n):
        values = np.where(rng.random(25) < 0.5, rng.uniform(0.1, 1.0, 25), 0.0)
        out.append((int(rng.integers(0, 2**25)), RelevanceFunction.from_values(values, S_MIN)))
    return out


def _fold(stream, snapshots=()):
    acc = MetricsAccumulator()
    for message in stream:
        acc.record_transmission(*message)
    for known, rel in snapshots:
        acc.record_awareness_snapshot(known, rel)
    return acc


def _assert_totals_match(a, b):
    # Two accumulators: counts match exactly; the metrics built from float
    # totals may differ by summation order only.
    for name in ("messages", "variables"):
        assert getattr(a, name) == getattr(b, name)
    ra, rb = a.finalize(), b.finalize()
    for name in ("hrr", "mean_sv", "lrr", "usage", "se", "mean_eps", "tx_multiplicity"):
        va, vb = getattr(ra, name), getattr(rb, name)
        if va is None:
            assert vb is None
        else:
            assert va == pytest.approx(vb, rel=1e-12)


def test_merge_equals_concatenated_stream():
    rng = np.random.default_rng(22)
    stream = _random_stream(rng, 80)
    snapshots = _random_snapshots(rng, 80)
    whole = _fold(stream, snapshots)
    for cut in (0, 1, 40, 79, 80):
        merged = _fold(stream[:cut], snapshots[:cut]).merge(
            _fold(stream[cut:], snapshots[cut:]))
        _assert_totals_match(merged, whole)
        # Every total, so a field that `merge` drops or mis-combines fails here.
        for f in dataclasses.fields(MetricsAccumulator):
            got, want = getattr(merged, f.name), getattr(whole, f.name)
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-12), f.name
            else:
                assert got == want, f.name


def test_merge_is_commutative_and_associative():
    rng = np.random.default_rng(23)
    a, b, c = (_fold(_random_stream(rng, 30)) for _ in range(3))
    _assert_totals_match(a.merge(b), b.merge(a))
    _assert_totals_match(a.merge(b).merge(c), a.merge(b.merge(c)))


def test_merge_rejects_mismatched_settings():
    with pytest.raises(ValueError):
        MetricsAccumulator().merge(MetricsAccumulator(sv_aggregation="mean"))


# --- property checks --------------------------------------------------------

UNIVERSE = 20


def _reference_fold(acc, ids, values, known, gamma, eps):
    """The per-id fold `record_transmission` replaces: every transmitted id,
    every receiver, redundant values added as 0.0, and the low class read
    from the value rows against s_min."""
    acc.messages += 1
    acc.variables += len(ids)
    acc.usage_sum += len(ids) / gamma
    if eps is not None:
        acc.eps_sum += eps
        acc.eps_count += 1
    for k in ids:
        acc.tx_seen_mask |= 1 << k
        total = 0.0
        best = 0.0
        low = True
        for row, mask in zip(values, known):
            w = row[k]
            s = 0.0 if mask >> k & 1 else w
            total += s
            if s > best:
                best = s
            if w >= S_MIN:
                low = False
        acc.sv_total += total / len(values) if acc.sv_aggregation == "mean" else best
        if low:
            acc.low_count += 1


# Values at and around s_min, the two class levels, and arbitrary floats in
# [0, 1] whose sums round.
_value = st.one_of(st.sampled_from([0.0, 0.03, S_MIN, 0.5, 1.0]), st.floats(0.0, 1.0))
_mask = st.integers(0, 2**UNIVERSE - 1)


@st.composite
def _messages(draw):
    n_recv = draw(st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        rows = [draw(st.lists(_value, min_size=UNIVERSE, max_size=UNIVERSE))
                for _ in range(n_recv)]
        known = [draw(_mask) for _ in range(n_recv)]
        sent = draw(_mask)
        gamma = draw(st.integers(1, UNIVERSE))
        eps = draw(st.none() | st.floats(0.0, 1.0))
        out.append((sent, rows, known, gamma, eps))
    return out


def _low_mask(rows):
    # The ids every receiver values below s_min: the AND of their low masks.
    low = -1
    for row in rows:
        low &= RelevanceFunction.from_values(np.array(row), S_MIN).low_mask
    return low


@settings(max_examples=200, deadline=None)
@given(_messages(), st.sampled_from(["max", "mean"]))
def test_mask_fold_equals_per_id_reference(stream, aggregation):
    acc = MetricsAccumulator(sv_aggregation=aggregation)
    ref = MetricsAccumulator(sv_aggregation=aggregation)
    for sent, rows, known, gamma, eps in stream:
        acc.record_transmission(sent, rows, known, _low_mask(rows), gamma, eps)
        ids = [k for k in range(UNIVERSE) if sent >> k & 1]
        _reference_fold(ref, ids, rows, known, gamma, eps)
    # Exact equality, float totals included: the same additions in the same order.
    assert dataclasses.astuple(acc) == dataclasses.astuple(ref)


def _accumulator(stream):
    acc = MetricsAccumulator()
    for sent, rows, known, gamma, eps in stream:
        acc.record_transmission(sent, rows, known, _low_mask(rows), gamma, eps)
    return acc


@settings(max_examples=60, deadline=None)
@given(_messages(), _messages(), _messages())
def test_merge_is_associative_and_commutative_property(s1, s2, s3):
    a, b, c = _accumulator(s1), _accumulator(s2), _accumulator(s3)
    # Each field is a sum, a count or a union: swapping operands is exact.
    assert dataclasses.astuple(a.merge(b)) == dataclasses.astuple(b.merge(a))
    # Regrouping is exact for counts and masks; float sums may differ in
    # their last bits.
    left, right = a.merge(b).merge(c), a.merge(b.merge(c))
    for f in dataclasses.fields(MetricsAccumulator):
        lv, rv = getattr(left, f.name), getattr(right, f.name)
        if isinstance(lv, float):
            assert lv == pytest.approx(rv, rel=1e-12, abs=1e-12)
        else:
            assert lv == rv
