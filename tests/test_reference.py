"""The engine against an independent implementation of the model: static
unicast episodes at a budget of one (`reference.unicast_budget_one`)."""
import math
from dataclasses import replace

from reference import unicast_budget_one
from relevance_sim import ExperimentSpec, SchemeKind, run_sweep

SCHEMES = (SchemeKind.BASELINE, SchemeKind.SEMANTIC, SchemeKind.IDEAL_SEMANTIC)
# A scheme agrees when its two pooled `se` differ by at most K times the
# 95% half-width of their difference, sqrt(ci_engine^2 + ci_ref^2): about
# 2.9 standard errors.  Fixed before the first comparison.
K = 1.5


def _pooled_se(value, variables):
    # The pooled se and the 95% half-width over per-replication se values,
    # as the sweep reports them.
    per_rep = [v / n for v, n in zip(value, variables) if n]
    mean = sum(per_rep) / len(per_rep)
    var = sum((x - mean) ** 2 for x in per_rep) / (len(per_rep) - 1)
    return value.sum() / variables.sum(), 1.96 * math.sqrt(var / len(per_rep))


def test_unicast_budget_one_se_matches_the_independent_reference(capsys):
    # The default spec is the fig5 preset, so the engine's cells are the
    # Gamma = 1 cells criterion 03 reads.
    spec = replace(ExperimentSpec(), schemes=SCHEMES, gammas=(1,))
    engine = {row.scheme: (row.se, row.se_ci) for row in run_sweep(spec)}
    ref = {s: _pooled_se(*unicast_budget_one(s.value, spec.replications,
                                             spec.slots, spec.seed))
           for s in SCHEMES}
    parts, bad = [], []
    for s in SCHEMES:
        (se_e, ci_e), (se_r, ci_r) = engine[s], ref[s]
        diff, limit = abs(se_e - se_r), K * math.hypot(ci_e, ci_r)
        within = diff <= limit
        parts.append(f"{s.value} {se_e:.3f} vs {se_r:.3f} "
                     f"(|d| {diff:.3f} {'<=' if within else '>'} {limit:.3f})")
        if not within:
            bad.append(s.value)
    ratio = {side: se[SchemeKind.SEMANTIC][0] / se[SchemeKind.BASELINE][0]
             for side, se in (("engine", engine), ("reference", ref))}
    with capsys.disabled():
        print(f"\n[reference] {'FAIL' if bad else 'PASS'} — unicast Gamma = 1 se, engine vs "
              f"reference: {'; '.join(parts)}; Semantic/Baseline engine "
              f"{ratio['engine']:.3f}, reference {ratio['reference']:.3f}")
    assert not bad, bad
