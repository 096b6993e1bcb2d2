"""Metric accumulation: per-message semantic value, low-relevance and usage
ratios, awareness snapshots, and shard merging."""
import numpy as np
import pytest

from relevance_sim import MetricsAccumulator
from relevance_sim.relevance import RelevanceFunction

S_MIN = 0.05


def _message(variables, true_values, redundant, gamma, eps=None, receivers=(1,)):
    """Arguments of `record_transmission` for one message, from per-variable
    rows of true values and redundancy flags (one entry per receiver): each
    receiver's value row, and its known mask holding exactly the variables
    flagged redundant for it."""
    width = max(variables, default=0) + 1
    values = [[0.0] * width for _ in receivers]
    known = [0] * len(receivers)
    for k, row, flags in zip(variables, true_values, redundant):
        for i, (w, red) in enumerate(zip(row, flags)):
            values[i][k] = w
            if red:
                known[i] |= 1 << k
    return list(variables), values, known, gamma, eps


def test_redundant_variable_contributes_zero_value():
    acc = MetricsAccumulator(s_min=S_MIN)
    # Two variables to one receiver: 0.7 fresh, 0.6 but already known.
    acc.record_transmission(*_message([3, 4], [(0.7,), (0.6,)], [(False,), (True,)], gamma=5))
    rec = acc.finalize()
    assert rec.mean_sv == pytest.approx(0.7)
    assert rec.se == pytest.approx(0.35)  # 0.7 over 2 transmitted variables
    assert rec.lrr == 0.0  # both true values clear the threshold


def test_low_relevance_fraction():
    acc = MetricsAccumulator(s_min=S_MIN)
    values = [(0.5,), (0.8,), (0.02,), (0.6,)]
    red = [(False,)] * 4
    acc.record_transmission(*_message([0, 1, 2, 3], values, red, gamma=4))
    assert acc.finalize().lrr == pytest.approx(0.25)


def test_low_needs_every_receiver_below_threshold():
    acc = MetricsAccumulator(s_min=S_MIN)
    # Below s_min for receiver A but relevant to receiver B: not low.
    acc.record_transmission(*_message([0], [(0.03, 0.5)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    # Below for both receivers: low, even though it was fresh for both.
    acc.record_transmission(*_message([1], [(0.03, 0.04)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().lrr == pytest.approx(0.5)


def test_value_is_best_over_receivers():
    acc = MetricsAccumulator(s_min=S_MIN)
    # Redundant where it was valuable, fresh where it is mediocre.
    acc.record_transmission(*_message([0], [(0.9, 0.4)], [(True, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().mean_sv == pytest.approx(0.4)


def test_mean_aggregation_averages_over_receivers():
    acc = MetricsAccumulator(s_min=S_MIN, sv_aggregation="mean")
    acc.record_transmission(*_message([0], [(0.7, 0.3)], [(False, False)],
                                      gamma=1, receivers=(1, 2)))
    assert acc.finalize().mean_sv == pytest.approx(0.5)
    with pytest.raises(ValueError):
        MetricsAccumulator(s_min=S_MIN, sv_aggregation="median")


def test_empty_message_counts_but_adds_nothing():
    acc = MetricsAccumulator(s_min=S_MIN)
    acc.record_transmission(*_message([], [], [], gamma=5))
    rec = acc.finalize()
    assert rec.messages == 1 and rec.variables == 0
    assert rec.usage == 0.0
    assert rec.mean_sv == 0.0
    assert rec.lrr is None and rec.se is None  # no variables, no ratio


def test_usage_saturates_at_full_budget():
    acc = MetricsAccumulator(s_min=S_MIN)
    for _ in range(5):
        acc.record_transmission(*_message([0, 1, 2], [(0.5,)] * 3, [(False,)] * 3, gamma=3))
    assert acc.finalize().usage == pytest.approx(1.0)


def test_efficiency_times_variables_equals_total_value():
    rng = np.random.default_rng(21)
    acc = MetricsAccumulator(s_min=S_MIN)
    for message in _random_stream(rng, 60):
        acc.record_transmission(*message)
    rec = acc.finalize()
    assert rec.se * rec.variables == pytest.approx(acc.sv_total, rel=1e-9)
    # 20 variables of value 0.5 each: se is their mean value.
    flat = MetricsAccumulator(s_min=S_MIN)
    for _ in range(10):
        flat.record_transmission(*_message([0, 1], [(0.5,), (0.5,)],
                                           [(False,), (False,)], gamma=2))
    assert flat.finalize().se == pytest.approx(0.5)


def test_awareness_snapshot_ratio():
    acc = MetricsAccumulator(s_min=S_MIN)
    rel = RelevanceFunction.from_values(np.array([0.6, 0.8, 0.0, 0.0]))
    acc.record_awareness_snapshot(0b1001, rel)  # knows ids 0 and 3, high {0,1}
    assert acc.finalize() .hrr is None  # no messages yet -> whole record is "no data"
    acc.record_transmission(*_message([], [], [], gamma=1))
    assert acc.finalize().hrr == pytest.approx(0.5)
    acc.record_awareness_snapshot(0b0011, rel)  # knows both high ids
    assert acc.finalize().hrr == pytest.approx(0.75)


def test_vehicle_without_high_class_contributes_no_snapshot():
    acc = MetricsAccumulator(s_min=S_MIN)
    rel = RelevanceFunction.from_values(np.zeros(4))
    acc.record_awareness_snapshot(0b1111, rel)
    acc.record_transmission(*_message([], [], [], gamma=1))
    assert acc.finalize().hrr is None


def test_mean_eps_only_over_estimating_messages():
    acc = MetricsAccumulator(s_min=S_MIN)
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1, eps=0.4))
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1))
    acc.record_transmission(*_message([0], [(0.5,)], [(False,)], gamma=1, eps=0.2))
    assert acc.finalize().mean_eps == pytest.approx(0.3)


def test_transmission_multiplicity():
    acc = MetricsAccumulator(s_min=S_MIN)
    acc.record_transmission(*_message([1, 2], [(0.5,)] * 2, [(False,)] * 2, gamma=2))
    acc.record_transmission(*_message([2, 3], [(0.5,)] * 2, [(False,)] * 2, gamma=2))
    # 4 transmission events over 3 distinct ids.
    assert acc.finalize().tx_multiplicity == pytest.approx(4 / 3)


def test_empty_accumulator_reports_no_data():
    rec = MetricsAccumulator(s_min=S_MIN).finalize()
    assert rec.messages == 0
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


def _fold(stream):
    acc = MetricsAccumulator(s_min=S_MIN)
    for message in stream:
        acc.record_transmission(*message)
    return acc


def _assert_records_match(a, b):
    # Counts match exactly; float totals may differ by summation order only.
    for name in ("messages", "variables", "slots"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("hrr", "mean_sv", "lrr", "usage", "se", "mean_eps", "tx_multiplicity"):
        va, vb = getattr(a, name), getattr(b, name)
        if va is None:
            assert vb is None
        else:
            assert va == pytest.approx(vb, rel=1e-12)


def test_merge_equals_concatenated_stream():
    rng = np.random.default_rng(22)
    stream = _random_stream(rng, 80)
    whole = _fold(stream).finalize()
    for cut in (0, 1, 40, 79, 80):
        merged = _fold(stream[:cut]).merge(_fold(stream[cut:])).finalize()
        _assert_records_match(merged, whole)


def test_merge_is_commutative_and_associative():
    rng = np.random.default_rng(23)
    a, b, c = (_fold(_random_stream(rng, 30)) for _ in range(3))
    _assert_records_match(a.merge(b).finalize(), b.merge(a).finalize())
    _assert_records_match(a.merge(b).merge(c).finalize(), a.merge(b.merge(c)).finalize())


def test_merge_rejects_mismatched_settings():
    with pytest.raises(ValueError):
        MetricsAccumulator(s_min=0.05).merge(MetricsAccumulator(s_min=0.1))
    with pytest.raises(ValueError):
        MetricsAccumulator(s_min=0.05).merge(
            MetricsAccumulator(s_min=0.05, sv_aggregation="mean"))
