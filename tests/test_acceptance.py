"""Full-scale acceptance checks.

Each numbered test covers one behavioural requirement, prints a single
PASS/FAIL line with the measured values straight to the terminal, and then
asserts; the last test compares both sweeps with their reference files. The
two full sweeps (five schemes x 25 budgets x 200 replications x 400 slots,
for the two-vehicle and four-vehicle topologies) are shared module-scoped
fixtures; expect several minutes of wall time on one core.
"""
import itertools
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equivalence import compare, pooled, read_cells
from reference import sample_estimated_value, sample_local_set
from relevance_sim import SchemeKind, preset, run_sweep
from relevance_sim.harness import render_csv
from relevance_sim.relevance import (
    RelevanceParams,
    build_relevance_functions,
    correlation_coefficient,
)
from relevance_sim.scenario import SceneConfig, place_objects, spawn_vehicles
from relevance_sim.schemes import (
    EstimationModel,
    estimation_error,
    mask_of,
    oracle_mismatch_count,
    select_baseline,
    select_ideal_semantic,
    select_irc,
    select_rm,
    select_semantic,
)

pytestmark = pytest.mark.acceptance

GAMMAS = tuple(range(1, 26))
AGNOSTIC = (SchemeKind.BASELINE, SchemeKind.IRC, SchemeKind.RM)


@pytest.fixture(scope="module")
def unicast():
    rows = run_sweep(preset("fig5"))
    return {(r.scheme, r.gamma): r for r in rows}


@pytest.fixture(scope="module")
def broadcast():
    rows = run_sweep(preset("fig8"))
    return {(r.scheme, r.gamma): r for r in rows}


def _report(capsys, num: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {text}")


def test_criterion_01_ideal_low_relevance_rate_is_zero(unicast, broadcast, capsys):
    bad = []
    for label, table in (("unicast", unicast), ("broadcast", broadcast)):
        for g in GAMMAS:
            lrr = table[(SchemeKind.IDEAL_SEMANTIC, g)].lrr
            if lrr != 0.0:
                bad.append((label, g, lrr))
    _report(capsys, 1, not bad,
            "ideal scheme transmits zero below-threshold variables in all "
            f"{2 * len(GAMMAS)} cells" + (f"; violations: {bad[:5]}" if bad else ""))
    assert not bad


def test_criterion_02_mean_snapshot_size(capsys):
    # Ensemble average of one perception snapshot under the default scene,
    # fresh objects and vehicle placements each draw.
    cfg = SceneConfig()
    rng = np.random.default_rng(20260816)
    sizes = []
    for _ in range(2000):
        xy = place_objects(cfg, rng).position
        position = spawn_vehicles(cfg, rng).positions[0]
        sizes.append(len(sample_local_set(position, xy, cfg.detection_coeffs, rng)))
    mean = statistics.fmean(sizes)
    ok = 13.0 <= mean <= 17.0
    _report(capsys, 2, ok, f"mean snapshot size {mean:.2f} in [13, 17] "
                           f"({len(sizes)} scenes)")
    assert ok


def test_criterion_03_unicast_efficiency_ratio_band(unicast, capsys):
    # Known-red band at tight budgets: with one or two slots per message the
    # score-ranked selector's edge over uniform-random picking exceeds 2.5x
    # (measured ~3.8x at budget 1, decaying to ~2.4x by budget 5). The band
    # holds from budget 5 upward; the low-budget excess is a property of the
    # selection rules themselves, so the check is left strict rather than
    # widened to pass.
    ratios = {g: unicast[(SchemeKind.SEMANTIC, g)].se
                 / unicast[(SchemeKind.BASELINE, g)].se for g in GAMMAS}
    bad = {g: round(r, 3) for g, r in ratios.items() if not 1.5 <= r <= 2.5}
    _report(capsys, 3, not bad,
            "unicast efficiency ratio (estimating/unconstrained) in [1.5, 2.5] "
            f"for every budget; min {min(ratios.values()):.3f}, "
            f"max {max(ratios.values()):.3f}"
            + (f"; out of band: {bad}" if bad else ""))
    assert not bad, f"out of band: {bad}"


def test_criterion_04_usage_ratios_at_large_budget(unicast, capsys):
    bad = []
    ratios = []
    for g in range(21, 26):
        rm = unicast[(SchemeKind.RM, g)].usage
        ideal = unicast[(SchemeKind.IDEAL_SEMANTIC, g)].usage
        sem = unicast[(SchemeKind.SEMANTIC, g)].usage
        r_ideal, r_sem = rm / ideal, rm / sem
        ratios.append((g, round(r_ideal, 2), round(r_sem, 2)))
        if not 3.9 * 0.7 <= r_ideal <= 3.9 * 1.3:
            bad.append(("rm/ideal", g, r_ideal))
        if not 1.6 * 0.7 <= r_sem <= 1.6 * 1.3:
            bad.append(("rm/semantic", g, r_sem))
    _report(capsys, 4, not bad,
            "unicast usage ratios at budgets 21-25 within 30% of 3.9 (vs ideal) "
            f"and 1.6 (vs estimating): {ratios}"
            + (f"; out of band: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_05_broadcast_estimation_error_lower(unicast, broadcast, capsys):
    # Four vehicles refresh the channel twice as often as two, so the
    # estimating scheme should operate at a smaller average error everywhere.
    bad = []
    worst = None
    for g in GAMMAS:
        uni = unicast[(SchemeKind.SEMANTIC, g)].mean_eps
        bc = broadcast[(SchemeKind.SEMANTIC, g)].mean_eps
        if worst is None or bc - uni > worst[1] - worst[2]:
            worst = (g, bc, uni)
        if not bc < uni:
            bad.append((g, bc, uni))
    _report(capsys, 5, not bad,
            "mean estimation error lower in broadcast than unicast at every "
            f"budget; tightest at budget {worst[0]} "
            f"({worst[1]:.4f} vs {worst[2]:.4f})"
            + (f"; violations: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_06_usage_checkpoints(unicast, broadcast, capsys):
    checks = [
        ("unicast", unicast, SchemeKind.SEMANTIC, 10, 0.79),
        ("unicast", unicast, SchemeKind.SEMANTIC, 15, 0.55),
        ("broadcast", broadcast, SchemeKind.SEMANTIC, 10, 0.66),
        ("broadcast", broadcast, SchemeKind.SEMANTIC, 15, 0.45),
        ("unicast", unicast, SchemeKind.IDEAL_SEMANTIC, 10, 0.35),
        ("unicast", unicast, SchemeKind.IDEAL_SEMANTIC, 15, 0.23),
        ("broadcast", broadcast, SchemeKind.IDEAL_SEMANTIC, 10, 0.58),
        ("broadcast", broadcast, SchemeKind.IDEAL_SEMANTIC, 15, 0.39),
    ]
    bad = []
    diffs = []
    for label, table, scheme, g, target in checks:
        got = table[(scheme, g)].usage
        diffs.append(round(got - target, 3))
        if abs(got - target) > 0.10:
            bad.append((label, scheme.value, g, round(got, 3), target))
    _report(capsys, 6, not bad,
            f"8 usage checkpoints within ±0.10; deviations {diffs}"
            + (f"; out of band: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_07_awareness_ordering(unicast, broadcast, capsys):
    # (a) Two-vehicle topology, budgets 1-10: the estimating scheme beats
    # every content-agnostic scheme outright; the ideal scheme is at least as
    # good up to the joint confidence interval; the three agnostic schemes are
    # statistically indistinguishable from one another. (The clustering claim
    # belongs to this topology — with four vehicles redundancy avoidance gives
    # IRC/RM a real, visible edge over Baseline at moderate budgets.)
    bad = []
    for g in range(1, 11):
        sem = unicast[(SchemeKind.SEMANTIC, g)]
        ideal = unicast[(SchemeKind.IDEAL_SEMANTIC, g)]
        ags = [unicast[(s, g)] for s in AGNOSTIC]
        top_ag = max(a.hrr for a in ags)
        if not sem.hrr > top_ag:
            bad.append(("estimating<=agnostic", g, sem.hrr, top_ag))
        if not ideal.hrr >= sem.hrr - (ideal.hrr_ci + sem.hrr_ci):
            bad.append(("ideal<estimating-ci", g, ideal.hrr, sem.hrr))
        for a, b in itertools.combinations(ags, 2):
            if abs(a.hrr - b.hrr) > a.hrr_ci + b.hrr_ci:
                bad.append(("agnostics split", g, a.scheme.value, b.scheme.value))
    # (b) The peak relative awareness gain over budgets 1-5 lands in [25%, 50%].
    gains = []
    for g in range(1, 6):
        ag_mean = statistics.fmean(broadcast[(s, g)].hrr for s in AGNOSTIC)
        gains.append((broadcast[(SchemeKind.SEMANTIC, g)].hrr - ag_mean) / ag_mean)
    peak = max(gains)
    if not 0.25 <= peak <= 0.50:
        bad.append(("peak gain", round(peak, 4)))
    _report(capsys, 7, not bad,
            "unicast awareness ordering holds at budgets 1-10 and peak "
            f"broadcast low-budget gain {peak * 100:.1f}% in [25%, 50%]"
            + (f"; violations: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_08_broadcast_efficiency_ratios(broadcast, capsys):
    bad = []
    per_gamma = {"ideal/rm": [], "semantic/rm": []}
    for g in GAMMAS:
        rm = broadcast[(SchemeKind.RM, g)].se
        ideal = broadcast[(SchemeKind.IDEAL_SEMANTIC, g)].se
        sem = broadcast[(SchemeKind.SEMANTIC, g)].se
        per_gamma["ideal/rm"].append(ideal / rm)
        per_gamma["semantic/rm"].append(sem / rm)
        if not 1.5 <= ideal / rm <= 2.5:
            bad.append(("ideal/rm", g, round(ideal / rm, 3)))
        if not 1.35 <= sem / rm <= 2.25:
            bad.append(("semantic/rm", g, round(sem / rm, 3)))
    peak_vs_baseline = max(broadcast[(SchemeKind.IDEAL_SEMANTIC, g)].se
                           / broadcast[(SchemeKind.BASELINE, g)].se for g in GAMMAS)
    peak_vs_irc = max(broadcast[(SchemeKind.IDEAL_SEMANTIC, g)].se
                      / broadcast[(SchemeKind.IRC, g)].se for g in GAMMAS)
    if not 2.1 <= peak_vs_baseline <= 3.5:
        bad.append(("peak ideal/baseline", round(peak_vs_baseline, 3)))
    if not 1.8 <= peak_vs_irc <= 3.0:
        bad.append(("peak ideal/irc", round(peak_vs_irc, 3)))
    _report(capsys, 8, not bad,
            "broadcast efficiency ratios: ideal/rm in "
            f"[{min(per_gamma['ideal/rm']):.2f}, {max(per_gamma['ideal/rm']):.2f}] "
            "(band [1.5, 2.5]), semantic/rm in "
            f"[{min(per_gamma['semantic/rm']):.2f}, {max(per_gamma['semantic/rm']):.2f}] "
            f"(band [1.35, 2.25]), peak ideal/unconstrained {peak_vs_baseline:.2f} "
            f"(band [2.1, 3.5]), peak ideal/collision-avoiding {peak_vs_irc:.2f} "
            "(band [1.8, 3.0])"
            + (f"; violations: {bad}" if bad else ""))
    assert not bad, bad


def test_criterion_09_ideal_selection_oracle(capsys):
    mismatches = oracle_mismatch_count(1000, 2024)
    _report(capsys, 9, mismatches == 0,
            f"ideal selection matches exhaustive search on 1000 random "
            f"instances ({mismatches} mismatches)")
    assert mismatches == 0


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    env = dict(os.environ, RELEVANCE_SIM_THREADS="1")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "relevance_sim", "run", "--preset", "fig5",
             "--out", str(out), "--replications", "3", "--slots", "40", "--quiet"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "results.csv").read_bytes())
    ok = outs[0] == outs[1]
    _report(capsys, 10, ok,
            "two fresh-process runs of the same experiment produce "
            f"byte-identical CSV ({len(outs[0])} bytes)")
    assert ok


def _random_instance(rng: np.random.Generator):
    """(local, est_known, known, values, known_set_size, gamma) with masks
    for the sets; values is one row per receiver."""
    universe = 40
    local = mask_of(rng.choice(universe, size=int(rng.integers(1, 25)),
                               replace=False).tolist())
    est_known = mask_of(rng.choice(universe, size=int(rng.integers(0, 12)),
                                   replace=False).tolist())
    receivers = range(1, int(rng.integers(2, 5)))
    values = [rng.integers(0, 65, size=universe).astype(float) / 64.0
              for _ in receivers]
    known = [mask_of(rng.choice(universe, size=int(rng.integers(0, 12)),
                                replace=False).tolist()) for _ in receivers]
    known_set_size = int(rng.integers(1, 60))
    return local, est_known, known, values, known_set_size, int(rng.integers(1, 9))


def test_criterion_11_structural_properties(capsys):
    rng = np.random.default_rng(424242)
    model = EstimationModel()
    s_min = 0.05
    # 1) every selector respects the budget and picks only locally held ids;
    #    the redundancy-avoiding scheme never picks an estimated-known id.
    for _ in range(200):
        local, est_known, known, values, known_set_size, gamma = _random_instance(rng)
        eps = estimation_error(known_set_size, model)
        picks = {
            "baseline": select_baseline(local, gamma, rng),
            "irc": select_irc(local, est_known, gamma, rng),
            "rm": select_rm(local, est_known, gamma, rng),
            "semantic": select_semantic(local, est_known, values, gamma, s_min, eps, rng),
            "ideal": select_ideal_semantic(local, known, values, gamma, s_min),
        }
        for name, sel in picks.items():
            assert len(sel) <= gamma, name
            assert mask_of(sel) & ~local == 0, name
        assert not mask_of(picks["rm"]) & est_known
    # 2) estimation error is strictly decreasing in the known-set size.
    errors = [estimation_error(c, model) for c in range(0, 61)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    # 3) estimated values stay inside the half-width interval around the true
    #    value, and collapse onto it when the error is zero.
    for _ in range(500):
        w = float(rng.integers(0, 65)) / 64.0
        eps = estimation_error(int(rng.integers(0, 60)), model)
        w_hat = sample_estimated_value(w, eps, rng)
        assert w - eps / 2 - 1e-12 <= w_hat <= w + eps / 2 + 1e-12
    assert sample_estimated_value(0.3, 0.0, rng) == 0.3
    # 4) the high/low relevance split hits its marginal rate.
    params = RelevanceParams()
    cfg = SceneConfig()
    highs = []
    for seed in range(200):
        r = np.random.default_rng(seed)
        objects, fleet = place_objects(cfg, r), spawn_vehicles(cfg, r)
        rels = build_relevance_functions(len(objects), fleet.positions, params, r)
        highs.append(rels[0].high_mask.bit_count() / 110)
    margin = 3 * (0.3 * 0.7 / (110 * 200)) ** 0.5
    assert abs(statistics.fmean(highs) - 0.3) < margin
    # 5) inter-vehicle agreement decays with distance and hits its endpoints.
    ds = np.linspace(0, 500, 101)
    cs = [correlation_coefficient(float(d), params) for d in ds]
    assert all(a >= b for a, b in zip(cs, cs[1:]))
    assert cs[0] == 0.9 and correlation_coefficient(400.0, params) == 0.0
    _report(capsys, 11, True,
            "structural properties hold: budget/locality for all five "
            "selectors, redundancy disjointness, monotone estimation error, "
            "estimate interval containment, 30% high-relevance marginal, "
            "monotone agreement decay")


def test_sweeps_match_the_seed_contract_1_reference(unicast, broadcast, capsys):
    # Not a numbered criterion: the statistical-equivalence guard of
    # tests/equivalence.py, which sets its bounds.  Both sides are read
    # through the same 6-digit CSV.
    scores, curves = [], []
    for name, table in (("fig5", unicast), ("fig8", broadcast)):
        path = Path(__file__).parent / "data" / f"reference_{name}.csv"
        reference = read_cells(path.read_text(encoding="utf-8"))
        rows = read_cells(render_csv(list(table.values())))
        scores += [(score, f"{name} {text}") for score, text in compare(reference, rows)]
        curves += [(score, f"{name} {text}") for score, text in pooled(reference, rows)]
    scores.sort(key=lambda item: -item[0])
    curves.sort(key=lambda item: -item[0])
    failed = [text for score, text in scores + curves if score > 1]
    with capsys.disabled():
        print(f"\n[equivalence] {'FAIL' if failed else 'PASS'} — {len(scores)} comparisons "
              f"and {len(curves)} pooled curves with the seed-contract-1 reference, "
              f"{len(failed)} outside their bound; worst |Δ|/bound {scores[0][0]:.3g}: "
              f"{scores[0][1]}; worst |Z|/bound {curves[0][0]:.3g}: {curves[0][1]}")
    assert not failed, f"{len(failed)} outside their bound, worst first: {failed[:10]}"
