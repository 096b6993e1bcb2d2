"""Reference forms of the model's rules, kept here for the tests.

The simulator only runs the vectorised or fused forms (the detection vector,
the per-slot perception draw, the semantic selector's noisy scores); the
one-at-a-time versions here state each rule plainly so the tests can check the
program against them.  `unicast_budget_one` is a whole second implementation
of one corner of the model, written from the README alone.
"""
import math

import numpy as np

from relevance_sim.scenario import detection_probability_vector, sample_hits
from relevance_sim.schemes import EstimationModel, estimation_error

# The README's defaults for every key the unicast reference reads.
README_MODEL = {
    "width": 800.0, "height": 200.0, "object_count": 110,
    "detection": (0.08, -0.08, 60.0),
    "delta_L": 0.7, "high": (0.5, 1.0), "p": 0.5,
    "rho_near": 0.9, "d_near": 100.0, "d_far": 400.0, "s_min": 0.05,
    "estimation": (1.0, -0.5, 26.0), "value_range_width": 1.0,
}


def detection_probability(distance, coeffs):
    """Probability that a sensor detects an object `distance` metres away."""
    a1, a2, a3 = coeffs
    return 1.0 / (1.0 + a1 * math.exp(-a2 * (distance - a3)))


def sample_local_set(position, xy, coeffs, rng):
    """One fresh perception snapshot from `position`: an independent Bernoulli
    trial per object of the (K, 2) position array `xy`, with the same draws as
    the engine's perception step.  Returns the row indices of the hits.

    Snapshots do not accumulate across communication cycles; every call is a
    new attempt with the per-object detection probability.
    """
    return set(sample_hits(detection_probability_vector(position, xy, coeffs), rng))


def sample_estimated_value(true_w, eps, model, rng):
    """Noisy value estimate: uniform on an interval of width eps * range centred
    on the true value.

    The interval is deliberately not clamped to the value range, so estimates of
    a zero-value variable straddle zero and land below the relevance threshold
    about half the time.  Downstream code only ever compares estimates against
    s_min, so out-of-range samples are harmless.  With eps = 0 the estimate is
    exact.
    """
    delta = model.value_range_width * eps
    return true_w + (rng.random() - 0.5) * delta


def unicast_budget_one(scheme, replications, slots, seed):
    """Per-replication (semantic value sent, variables sent) of static unicast
    episodes at a budget of one, for "Baseline", "Semantic" or
    "IdealSemantic".  Every replication runs at once, one array row each.

    Written from the README's model, with `README_MODEL` for the parameters
    and no package code but the detection and estimation-error curves (and the
    record holding the latter's coefficients).  Its random draws share nothing
    with the engine's, so the two agree only in distribution.
    """
    m = README_MODEL
    r, k = replications, m["object_count"]
    rng = np.random.default_rng(seed)
    area = (m["width"], m["height"])
    xy = rng.random((r, k, 2)) * area
    start = rng.random((r, 2, 2)) * area  # two vehicles that stay where they start
    probs = np.array([[detection_probability_vector(tuple(start[i, v]), xy[i], m["detection"])
                       for v in (0, 1)] for i in range(r)])
    # Relevance classes: vehicle 0's are i.i.d. high with 1 - delta_L.
    # Vehicle 1's are independent with probability p; otherwise each copies
    # vehicle 0's with rho(distance), flat to d_near and zero from d_far, and
    # is redrawn from the marginal where it does not copy.
    p_high = 1.0 - m["delta_L"]
    ref = rng.random((r, k)) < p_high
    d = np.hypot(*(start[:, 1] - start[:, 0]).T)
    rho = np.clip(m["rho_near"] * (m["d_far"] - d) / (m["d_far"] - m["d_near"]),
                  0.0, m["rho_near"])
    independent = rng.random(r) < m["p"]
    copy = ~independent[:, None] & (rng.random((r, k)) < rho[:, None])
    other = np.where(copy, ref, rng.random((r, k)) < p_high)
    w = np.where(np.stack([ref, other], axis=1), rng.uniform(*m["high"], (r, 2, k)), 0.0)
    # The noise width for each size of the transmitter's known set.
    est = EstimationModel(m["estimation"])
    delta_of = m["value_range_width"] * np.array([estimation_error(c, est) for c in range(k + 1)])

    local = np.zeros((r, 2, k), dtype=bool)
    sent = np.zeros((r, 2, k), dtype=bool)
    value = np.zeros(r)
    variables = np.zeros(r, dtype=int)
    lanes = np.arange(r)
    s_min = m["s_min"]
    for t in range(slots):
        tx, rx = t % 2, 1 - t % 2
        sent[:, tx] = False  # one cycle old: tx's own last message has expired
        local[:, tx] = rng.random((r, k)) < probs[:, tx]
        mine = local[:, tx]
        known = local[:, rx]  # the receiver's snapshot; the only other message just expired
        heard = sent[:, rx]  # what the channel says the receiver holds
        if scheme == "Baseline":  # any one detection, uniformly
            score, ok = rng.random((r, k)), mine
        elif scheme == "Semantic":  # best noisy estimate above s_min of an unheard detection
            noise = (rng.random((r, k)) - 0.5) * delta_of[(mine | heard).sum(axis=1)][:, None]
            score = w[:, rx] + noise
            ok = mine & ~heard & (score > s_min)
        else:  # best true value above s_min of a detection the receiver does not know
            score = np.where(known, 0.0, w[:, rx])
            ok = mine & (score > s_min)
        pick = np.where(ok, score, -np.inf).argmax(axis=1)
        chosen = ok[lanes, pick]
        sent[lanes[chosen], tx, pick[chosen]] = True
        if t >= 2:  # the first cycle is warm-up
            gain = np.where(known[lanes, pick], 0.0, w[lanes, rx, pick])
            value += np.where(chosen, gain, 0.0)
            variables += chosen
    return value, variables
