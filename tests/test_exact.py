"""Whole episodes against their exact expectations on tiny static scenes.

`reference.exact_episode_totals` carries the distribution of every vehicle's
(snapshot, message) pair through the slots, so it gives each metric total's
exact expectation.  `engine.run_episode` runs the same hand-built scene many
times, and each total's mean must agree with its expectation within sampling
noise: expiry, warm-up, redundancy and all five totals, beyond two vehicles
and a budget of one.  The episode count and the number of comparisons are
fixed here, before the first comparison.

Every case runs under the steep estimation curve `ESTIMATION`, which only
Semantic reads: its noise width ε falls from 0.95 to 0.05 as the
transmitter's known set grows from 0 to 4 objects.  Under the default curve
ε moves by about 1e-5 over those sizes, too little for any total to show
what the known set is counted over.

The bound is family-wise.  Each comparison is a z score, the mean's distance
from the expectation in standard errors.  There are 150 of them: two scenes,
five schemes, budgets 1 to 3 and five totals.  A standard normal z leaves
|z| <= Z_BOUND = 4.51 with probability 6.5e-6, so the chance that any of the
150 does is at most 0.1% (Bonferroni), however the totals correlate.  A total
that never varies over the episodes must equal its expectation to rounding.
`messages` and `hrr_count` do not depend on the draws, so every episode must
match them exactly.
"""
import math

import numpy as np

from reference import detection_probability, exact_episode_totals
from relevance_sim import ExperimentSpec, SchemeKind
from relevance_sim.engine import EpisodeConfig, run_episode
from relevance_sim.metrics import Aggregation
from relevance_sim.relevance import RelevanceFunction
from relevance_sim.scenario import Fleet, SceneConfig
from relevance_sim.schemes import EstimationModel

Z_BOUND = 4.51
EPISODES = 1000
SEED = 2718
S_MIN = 0.05
ESTIMATION = {"a4": 1.0, "a5": -1.5, "a6": 2.0, "value_range_width": 1.0}
SCHEMES = ("Baseline", "IRC", "RM", "Semantic", "IdealSemantic")
GAMMAS = (1, 2, 3)
TOTALS = ("sv_total", "variables", "usage_sum", "low_count", "hrr_sum")
EXACT_TOTALS = ("messages", "hrr_count")

# Detection chances between 0.12 and 0.99 under the default curve.  No value
# appears twice, so IdealSemantic never breaks a tie.  In the three-vehicle
# scene vehicle 2 values no object, so it has no awareness sample, and the
# per-message value is the mean over the two receivers.
SCENES = {
    "two vehicles, four objects, max": dict(
        vehicles=[(0.0, 0.0), (140.0, 0.0)],
        objects=[(50.0, 10.0), (95.0, -5.0), (70.0, 30.0), (110.0, 20.0)],
        values=[(0.9, 0.0, 0.6, 0.75), (0.0, 0.8, 0.55, 0.95)],
        aggregation="max", slots=12),
    "three vehicles, three objects, mean": dict(
        vehicles=[(0.0, 0.0), (150.0, 0.0), (75.0, 80.0)],
        objects=[(60.0, 0.0), (100.0, 30.0), (45.0, 50.0)],
        values=[(0.7, 0.0, 0.85), (0.65, 0.9, 0.0), (0.0, 0.0, 0.0)],
        aggregation="mean", slots=9),
}


def _probabilities(scene):
    return [[detection_probability(math.dist(v, o), SceneConfig().detection_coeffs)
             for o in scene["objects"]] for v in scene["vehicles"]]


def _engine_totals(scene, scheme, gamma):
    """Per-episode totals of `run_episode` on `scene`, one row per episode."""
    n, k = len(scene["vehicles"]), len(scene["objects"])
    objects = np.rec.fromarrays([np.array(scene["objects"])], dtype=[("position", float, (2,))])
    # A static episode never moves its fleet, so every episode can share it.
    fleet = Fleet(list(scene["vehicles"]),
                  [(x, y, 1.0, 0.0, 1.0, 0.0) for x, y in scene["vehicles"]])
    relevance = [RelevanceFunction.from_values(np.array(row), S_MIN) for row in scene["values"]]
    spec = ExperimentSpec(scene=SceneConfig(object_count=k, vehicle_count=n),
                          estimation=EstimationModel(**ESTIMATION),
                          slots=scene["slots"], sv_aggregation=Aggregation(scene["aggregation"]))
    config = EpisodeConfig(spec, SchemeKind(scheme), gamma)
    rng = np.random.default_rng(SEED)
    accs = [run_episode(objects, fleet, relevance, config, rng) for _ in range(EPISODES)]
    return {name: np.array([getattr(a, name) for a in accs], dtype=float)
            for name in TOTALS + EXACT_TOTALS}


def _z(sample, expected):
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    gap = sample.mean() - expected
    if se < 1e-9:  # a total that never varies, up to rounding
        return 0.0 if abs(gap) < 1e-9 else math.inf
    return gap / se


def test_oracle_on_a_scene_without_chance():
    # Every object always detected and a budget that fits all three: each of
    # the four counted messages carries every object, one of which its
    # receiver values at zero.  The receiver holds all three in its own
    # snapshot, so they add no value, and awareness is complete.
    values = [(0.6, 0.0, 0.8), (0.0, 0.7, 0.9)]
    totals = exact_episode_totals([[1.0] * 3] * 2, values, "Baseline", 3, 6, "max", S_MIN)
    assert totals == {"messages": 4, "hrr_count": 8, "variables": 12.0, "usage_sum": 4.0,
                      "low_count": 4.0, "sv_total": 0.0, "hrr_sum": 8.0}
    # IdealSemantic sends nothing to a receiver that knows it all.
    totals = exact_episode_totals([[1.0] * 3] * 2, values, "IdealSemantic", 3, 6, "max", S_MIN)
    assert totals["variables"] == 0.0 and totals["hrr_sum"] == 8.0


def test_engine_means_match_exact_expectations_on_tiny_scenes(capsys):
    worst, worst_at, bad = 0.0, None, []
    for label, scene in SCENES.items():
        probs = _probabilities(scene)
        for scheme in SCHEMES:
            for gamma in GAMMAS:
                exact = exact_episode_totals(probs, scene["values"], scheme, gamma,
                                             scene["slots"], scene["aggregation"], S_MIN,
                                             ESTIMATION)
                engine = _engine_totals(scene, scheme, gamma)
                where = f"{label}, {scheme}, gamma {gamma}"
                for name in EXACT_TOTALS:
                    if not (engine[name] == exact[name]).all():
                        seen = sorted(set(engine[name].tolist()))
                        bad.append(f"{where}: {name} {seen} != {exact[name]}")
                for name in TOTALS:
                    z = _z(engine[name], exact[name])
                    if abs(z) > worst:
                        worst, worst_at = abs(z), f"{where}, {name}"
                    if abs(z) > Z_BOUND:
                        bad.append(f"{where}: {name} mean {engine[name].mean():.4f}, "
                                   f"exact {exact[name]:.4f}, z {z:+.2f}")
    comparisons = len(SCENES) * len(SCHEMES) * len(GAMMAS) * len(TOTALS)
    with capsys.disabled():
        print(f"\n[exact] {'FAIL' if bad else 'PASS'} — {comparisons} comparisons, "
              f"worst |z| {worst:.2f} ({worst_at}), bound {Z_BOUND}; {len(bad)} failing")
    assert not bad, "\n".join(bad)
