"""Statistical equivalence of two sweeps of one spec.

The golden CSV guards changes that keep the random stream byte for byte.
This guards a change that draws differently but simulates the same model:
its sweep must agree with a reference sweep of the same spec, cell by cell,
within sampling noise.  `tests/data/reference_fig5.csv` and
`reference_fig8.csv` are the two preset sweeps as drawn under seed contract 1.

The bounds are fixed here, from the sampling noise alone:

* A metric with a CI column (`hrr`, `mean_sv`, `lrr`, `usage`, `se`) passes
  when |Δ| <= K * sqrt(ci_a**2 + ci_b**2).  Each ci is a 95% half-width,
  1.96 standard errors, so for two independent sweeps the bound is
  K * 1.96 = 4.9 standard deviations of Δ.  A normal Δ leaves that band
  with probability 9.6e-7, so over the 1250 such comparisons of the two
  grids (2 x 125 cells x 5 metrics) the family-wise false-alarm rate is at
  most 1.2e-3, however the metrics correlate (Bonferroni).
* `mean_eps` and `tx_multiplicity` have no CI column, so they get a
  relative tolerance with the same 4.9 standard deviations of Δ.  Their
  per-replication spread, measured on both grids at Γ = 1, 2, 5, 10, 15,
  20, 25 with 60 replications of an unrelated seed, puts the standard error
  of a 200-replication cell at most 9.5% of its value for `mean_eps` (fig8
  Semantic at Γ >= 10, where ε is small and swings with the scene) and 2.7%
  for `tx_multiplicity`.  With 20% added for the error of a 60-replication
  estimate, 4.9 * sqrt(2) * (11.4%, 3.3%) gives the tolerances below.
* Each (scheme, CI metric) curve is also pooled over its budgets:
  Z = sum(z_i) / sqrt(n) with z_i = Δ_i / sqrt(se_a**2 + se_b**2) and
  se = ci / 1.96, over the n budgets whose denominator is nonzero (the
  per-cell check already holds the others to Δ = 0).  Each budget draws
  from its own stream, so for two equivalent sweeps Z is standard normal,
  and a shift that stays inside every cell's bound but leans one way along
  the curve adds up.  A curve passes when |Z| <= Z_BOUND = 4.1: probability
  4.1e-5 per curve, a family-wise false-alarm rate of 2e-3 over the 50
  curves of the two grids (2 x 5 schemes x 5 metrics).
"""
from __future__ import annotations

import csv
import math

K = 2.5
Z_BOUND = 4.1
CI_METRICS = ("hrr", "mean_sv", "lrr", "usage", "se")
RELATIVE_TOLERANCE = {"mean_eps": 0.8, "tx_multiplicity": 0.25}
LABELS = ("mode", "scheme", "gamma", "replications")


def read_cells(text: str) -> dict[tuple[str, int], dict[str, object]]:
    """The rows of a results CSV, `#` lines skipped, keyed by (scheme, gamma);
    metrics are floats and empty cells None."""
    rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    return {(row["scheme"], int(row["gamma"])): {
        name: value if name in LABELS else float(value) if value else None
        for name, value in row.items()} for row in rows}


def compare(reference: dict, rows: dict) -> list[tuple[float, str]]:
    """Every comparison as (|Δ| / bound, description), worst first.

    A score above 1 is a failure.  A cell or label that differs, or a metric
    present on one side only, scores infinity.
    """
    out = []
    for cell in sorted(reference.keys() ^ rows.keys()):
        out.append((math.inf, f"{cell[0]} Γ={cell[1]}: in one sweep only"))
    for cell in sorted(reference.keys() & rows.keys()):
        a, b = reference[cell], rows[cell]
        name = f"{cell[0]} Γ={cell[1]}"
        for label in LABELS:
            if a[label] != b[label]:
                out.append((math.inf, f"{name} {label}: {a[label]} vs {b[label]}"))
        bounds = {m: K * math.hypot(a[f"{m}_ci"] or 0.0, b[f"{m}_ci"] or 0.0) for m in CI_METRICS}
        for metric, rtol in RELATIVE_TOLERANCE.items():
            bounds[metric] = rtol * abs(a[metric] or 0.0)
        for metric, bound in bounds.items():
            x, y = a[metric], b[metric]
            if x is None or y is None:
                if x is not y:
                    out.append((math.inf, f"{name} {metric}: {x} vs {y}"))
                continue
            delta = abs(y - x)
            score = delta / bound if bound else (math.inf if delta else 0.0)
            out.append((score, f"{name} {metric}: {x:.6g} vs {y:.6g} (|Δ| {delta:.3g}, bound {bound:.3g})"))
    out.sort(key=lambda item: -item[0])
    return out


def pooled(reference: dict, rows: dict) -> list[tuple[float, str]]:
    """Every (scheme, CI metric) curve as (|Z| / Z_BOUND, description), worst
    first; a score above 1 is a failure.  Only cells in both sweeps count, and
    a curve with no budget to pool reads Z = 0."""
    z: dict[tuple[str, str], list[float]] = {}
    for cell in sorted(reference.keys() & rows.keys()):
        a, b = reference[cell], rows[cell]
        for metric in CI_METRICS:
            terms = z.setdefault((cell[0], metric), [])
            spread = math.hypot(a[f"{metric}_ci"] or 0.0, b[f"{metric}_ci"] or 0.0) / 1.96
            if spread and None not in (a[metric], b[metric]):
                terms.append((b[metric] - a[metric]) / spread)
    out = []
    for (scheme, metric), terms in z.items():
        total = sum(terms) / math.sqrt(len(terms)) if terms else 0.0
        out.append((abs(total) / Z_BOUND,
                    f"{scheme} {metric} over {len(terms)} budgets: Z {total:+.3g} (bound {Z_BOUND})"))
    out.sort(key=lambda item: -item[0])
    return out
