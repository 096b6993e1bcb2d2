"""The statistical-equivalence guard's comparison, on hand-edited rows."""
import copy
import math
from pathlib import Path

import pytest

from equivalence import CI_METRICS, K, RELATIVE_TOLERANCE, Z_BOUND, compare, pooled, read_cells

REFERENCE = read_cells((Path(__file__).parent / "data" / "reference_fig5.csv")
                       .read_text(encoding="utf-8"))
CELL = ("Semantic", 5)


def _failures(rows):
    return [text for score, text in compare(REFERENCE, rows) if score > 1]


def _shifted(metric, delta):
    rows = copy.deepcopy(REFERENCE)
    rows[CELL][metric] += delta
    return rows


def test_the_reference_agrees_with_itself():
    scores = compare(REFERENCE, REFERENCE)
    assert len(REFERENCE) == 125
    # Six metrics per cell, and `mean_eps` on Semantic's 25 cells only.
    assert len(scores) == 125 * 6 + 25 and scores[0][0] == 0.0


@pytest.mark.parametrize("metric", CI_METRICS)
def test_a_shift_just_past_the_ci_bound_is_flagged(metric):
    ci = REFERENCE[CELL][f"{metric}_ci"]
    bound = K * math.hypot(ci, ci)
    assert bound > 0
    assert not _failures(_shifted(metric, -0.99 * bound))
    failures = _failures(_shifted(metric, 1.01 * bound))
    assert len(failures) == 1 and failures[0].startswith(f"Semantic Γ=5 {metric}:")


@pytest.mark.parametrize("metric", sorted(RELATIVE_TOLERANCE))
def test_a_shift_just_past_the_relative_tolerance_is_flagged(metric):
    bound = RELATIVE_TOLERANCE[metric] * REFERENCE[CELL][metric]
    assert not _failures(_shifted(metric, 0.99 * bound))
    failures = _failures(_shifted(metric, -1.01 * bound))
    assert len(failures) == 1 and failures[0].startswith(f"Semantic Γ=5 {metric}:")


def test_the_reference_pools_to_zero_on_every_curve():
    curves = pooled(REFERENCE, REFERENCE)
    assert len(curves) == 5 * len(CI_METRICS) and curves[0][0] == 0.0


@pytest.mark.parametrize("metric", CI_METRICS)
def test_a_curve_leaning_one_way_inside_every_cell_fails_the_pooled_check(metric):
    # Every budget of Semantic's curve moves by 0.6 of its per-cell bound:
    # z = 0.6 * K * 1.96 = 2.94 at each, so Z = 2.94 * sqrt(n) is far past Z_BOUND.
    rows = copy.deepcopy(REFERENCE)
    n = 0
    for (scheme, _), row in rows.items():
        ci = row[f"{metric}_ci"]
        if scheme == CELL[0] and ci:
            row[metric] += 0.6 * K * math.hypot(ci, ci)
            n += 1
    assert not _failures(rows)
    curves = pooled(REFERENCE, rows)
    assert curves[0][1].startswith(f"Semantic {metric} over {n} budgets: ")
    assert curves[0][0] * Z_BOUND == pytest.approx(0.6 * K * 1.96 * math.sqrt(n))
    assert curves[0][0] > 1 and curves[1][0] == 0.0


def test_a_missing_cell_or_metric_is_flagged_worst_first():
    rows = _shifted("hrr", 0.5)
    del rows[("RM", 3)]
    rows[CELL]["mean_eps"] = None
    failures = _failures(rows)
    assert failures[0] == "RM Γ=3: in one sweep only"
    assert failures[1].startswith("Semantic Γ=5 mean_eps: ") and failures[1].endswith(" vs None")
    assert failures[2].startswith("Semantic Γ=5 hrr: ") and len(failures) == 3


def test_an_empty_cell_is_none_and_a_header_comment_is_skipped():
    text = ("# relevance-sim run --preset fig5\n"
            "mode,scheme,gamma,replications,hrr,hrr_ci,mean_sv,mean_sv_ci,lrr,lrr_ci,"
            "usage,usage_ci,se,se_ci,mean_eps,tx_multiplicity\n"
            "unicast,RM,3,200,0.5,0.01,0.4,0.02,0.3,0.03,0.9,0.01,0.2,0.01,,2.5\n")
    cell = read_cells(text)[("RM", 3)]
    assert cell["mean_eps"] is None and cell["tx_multiplicity"] == 2.5
    assert cell["replications"] == "200"
