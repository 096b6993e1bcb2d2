"""Reference forms of the model's rules, kept here for the tests.

The simulator only runs the vectorised or fused forms (the detection vector,
the per-slot perception draw, the semantic selector's noisy scores); the
one-at-a-time versions here state each rule plainly so the tests can check the
program against them.  `unicast_budget_one` is a whole second implementation
of one corner of the model, written from the README alone, and
`exact_episode_totals` another: the exact expectations of a static episode on
a tiny scene.
"""
import functools
import itertools
import math
from collections import defaultdict

import numpy as np

from relevance_sim.scenario import detection_probability_vector, sample_hits
from relevance_sim.schemes import EstimationModel, estimation_error

# The README's defaults for every key the unicast reference reads.
README_MODEL = {
    "width": 800.0, "height": 200.0, "object_count": 110,
    "detection": (0.08, -0.08, 60.0),
    "delta_L": 0.7, "high": (0.5, 1.0), "p": 0.5,
    "rho_near": 0.9, "d_near": 100.0, "d_far": 400.0, "s_min": 0.05,
    "estimation": {"a4": 1.0, "a5": -0.5, "a6": 26.0}, "value_range_width": 1.0,
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
    est = EstimationModel(**m["estimation"])
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


def _ids(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subsets(mask, size):
    """Every `size`-element subset of the ids in `mask`, as masks."""
    return [sum(1 << i for i in c) for c in itertools.combinations(_ids(mask), size)]


def _uniform_subset(mask, gamma):
    # All of `mask` if it fits the budget, else a uniform gamma-subset of it.
    if mask.bit_count() <= gamma:
        return [(mask, 1.0)]
    subsets = _subsets(mask, gamma)
    return [(s, 1.0 / len(subsets)) for s in subsets]


def _noise_width(known_count, estimation):
    """Semantic's noise width δ = width·ε(c), with ε(c) = 1/(1 + a4·e^(−a5·(c − a6)))
    over the transmitter's known-set size c."""
    e = estimation
    return e["value_range_width"] / (1.0 + e["a4"] * math.exp(-e["a5"] * (known_count - e["a6"])))


@functools.cache
def _semantic_distribution(fresh, rows, gamma, s_min, delta):
    """Semantic's messages from the ids of `fresh`, as (mask, probability) pairs.

    Each fresh id scores the best over the receivers' value `rows` of its
    value plus its own uniform noise of width `delta` > 0, and the gamma best
    scores above s_min are sent.  So an id's score has the CDF
    F(x) = prod over rows of clip((x - w) / delta + 1/2, 0, 1), a piecewise
    polynomial.  A message of fewer than gamma ids is exactly the set scoring
    above s_min: a product of F(s_min) and 1 - F(s_min).  A full message A
    is sent when its lowest score x clears s_min, the rest of A score above
    x and every other fresh id below: the integral over x of
    sum over a in A of F_a'(x) * prod over A - a of (1 - F) * prod over the
    others of F.  That integrand is a polynomial between the breakpoints
    w ± delta/2, so Gauss-Legendre on each piece, with enough nodes for its
    degree, integrates it exactly.
    """
    ids = _ids(fresh)
    if not ids:
        return [(0, 1.0)]
    half = delta / 2
    edges = sorted({s_min} | {x for row in rows for i in ids
                              for x in (row[i] - half, row[i] + half) if x > s_min})
    nodes, weights = np.polynomial.legendre.leggauss(len(rows) * len(ids) // 2 + 1)
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    x = ((hi - lo) / 2 * nodes + (hi + lo) / 2).ravel()
    dx = ((hi - lo) / 2 * weights).ravel()

    def ramps(i, at):
        return [np.clip((at - row[i]) / delta + 0.5, 0.0, 1.0) for row in rows]

    cdf, density = {}, {}
    for i in ids:
        r = ramps(i, x)
        cdf[i] = np.prod(r, axis=0)
        density[i] = sum((np.abs(x - row[i]) < half) / delta * np.prod(r[:j] + r[j + 1:], axis=0)
                         for j, row in enumerate(rows))
    below = {i: math.prod(ramps(i, s_min)) for i in ids}  # F(s_min)
    out = []
    for size in range(min(gamma, len(ids)) + 1):
        for a in itertools.combinations(ids, size):
            rest = [i for i in ids if i not in a]
            if size < gamma:
                p = math.prod(1.0 - below[i] for i in a) * math.prod(below[i] for i in rest)
            else:
                integrand = sum(density[i] * np.prod([1.0 - cdf[j] for j in a if j != i]
                                                     + [cdf[j] for j in rest], axis=0)
                                for i in a)
                p = float(dx @ integrand)
            if p > 0.0:
                out.append((sum(1 << i for i in a), p))
    assert abs(sum(p for _, p in out) - 1.0) < 1e-9
    return out


def _message_distribution(scheme, local, heard, known, rows, gamma, s_min, estimation):
    """The messages a transmitter may send, as (mask, probability) pairs.

    `local` is its fresh snapshot, `heard` the union of the valid messages of
    the other vehicles (the channel's estimate of what the receivers hold),
    and `known` and `rows` each receiver's true known mask and value row.
    `estimation` holds the README's `estimation.*` keys, read by Semantic only.
    """
    if scheme == "Baseline":  # a uniform gamma-subset of the snapshot
        return _uniform_subset(local, gamma)
    if scheme == "RM":  # Baseline over what the channel does not say is held
        return _uniform_subset(local & ~heard, gamma)
    if scheme == "IRC":  # shed heard ids at random while over budget, else RM
        excess = local.bit_count() - gamma
        if excess <= 0:
            return [(local, 1.0)]
        drops = _subsets(local & heard, excess)
        if not drops:
            return _uniform_subset(local & ~heard, gamma)
        return [(local & ~d, 1.0 / len(drops)) for d in drops]
    if scheme == "Semantic":  # noisy estimates of the ids not heard, over s_min
        delta = _noise_width((local | heard).bit_count(), estimation)
        return _semantic_distribution(local & ~heard, rows, gamma, s_min, delta)
    # IdealSemantic: the gamma best true values over the receivers, an id a
    # receiver knows being worth nothing to it, above s_min only.  The test
    # scenes have no two equal values, so no tie needs breaking.
    scores = {}
    for i in _ids(local):
        score = max(0.0 if mask >> i & 1 else row[i] for mask, row in zip(known, rows))
        if score > s_min:
            scores[i] = score
    best = sorted(scores, key=scores.get, reverse=True)[:gamma]
    return [(sum(1 << i for i in best), 1.0)]


def exact_episode_totals(probs, values, scheme, gamma, slots, aggregation, s_min,
                         estimation=None):
    """Exact expected episode totals of one static episode on a fixed scene.

    `probs[v][k]` is the chance vehicle v detects object k in one snapshot and
    `values[v][k]` is what object k is worth to v.  `scheme` is "Baseline",
    "IRC", "RM", "Semantic" or "IdealSemantic"; Semantic also needs
    `estimation`, a mapping of `a4`, `a5`, `a6` and `value_range_width`.
    Returns the expectations of the metric totals: `messages`, `variables`,
    `usage_sum`, `low_count`, `sv_total`, `hrr_sum` and `hrr_count`.

    Written from the README's model, with no package code.  Slot t belongs
    to vehicle t % N, which takes a fresh snapshot, picks at most gamma of
    its detections and reaches every other vehicle.  A vehicle has no
    snapshot before its first slot, and a message is valid until its sender
    transmits again.  So a vehicle knows its latest snapshot and every other
    vehicle's latest message.  The first N slots are warm-up and count
    nothing.  The distribution of every vehicle's (snapshot, message) pair
    is carried from slot to slot.  The transmitter's old pair plays no part
    in its slot, since both are replaced, so it is summed out first.
    """
    n, k = len(values), len(values[0])
    snapshots = []  # per vehicle: (snapshot mask, probability) for every snapshot
    for p in probs:
        outcomes = []
        for mask in range(1 << k):
            q = math.prod(p[i] if mask >> i & 1 else 1.0 - p[i] for i in range(k))
            if q > 0.0:
                outcomes.append((mask, q))
        snapshots.append(outcomes)
    # High relevance is a nonzero value.
    high = [sum(1 << i for i in range(k) if row[i] > 0.0) for row in values]
    aware = [v for v in range(n) if high[v]]
    totals = dict.fromkeys(("variables", "usage_sum", "low_count", "sv_total", "hrr_sum"), 0.0)
    totals["messages"] = totals["hrr_count"] = 0
    dist = {((0, 0),) * n: 1.0}
    for t in range(slots):
        tx = t % n
        receivers = [r for r in range(n) if r != tx]
        rows = tuple(tuple(values[r]) for r in receivers)
        low = sum(1 << i for i in range(k) if all(row[i] < s_min for row in rows))
        counted = t >= n
        if counted:
            totals["messages"] += 1
            totals["hrr_count"] += len(aware)
        summed = defaultdict(float)
        for state, p in dist.items():
            summed[state[:tx] + ((0, 0),) + state[tx + 1:]] += p
        dist = defaultdict(float)
        for state, p in summed.items():
            heard = 0
            for _, sent in state:
                heard |= sent
            # A message is part of its sender's snapshot, so a vehicle knows
            # its snapshot and every valid message.
            known = [state[r][0] | heard for r in receivers]
            for local, q in snapshots[tx]:
                for sent, w in _message_distribution(scheme, local, heard, known, rows,
                                                     gamma, s_min, estimation):
                    after = state[:tx] + ((local, sent),) + state[tx + 1:]
                    dist[after] += p * q * w
                    if counted:
                        _count(totals, p * q * w, after, sent, known, rows, low, high, aware,
                               gamma, aggregation)
    return totals


def _count(totals, weight, state, sent, known, rows, low, high, aware, gamma, aggregation):
    # One counted slot's metrics, weighted by the chance of this outcome.
    size = sent.bit_count()
    totals["variables"] += weight * size
    totals["usage_sum"] += weight * size / gamma
    totals["low_count"] += weight * (sent & low).bit_count()
    value = 0.0
    for i in _ids(sent):  # an id a receiver already knows is worth nothing to it
        worth = [0.0 if mask >> i & 1 else row[i] for mask, row in zip(known, rows)]
        value += max(worth) if aggregation == "max" else sum(worth) / len(worth)
    totals["sv_total"] += weight * value
    heard = 0
    for _, m in state:
        heard |= m
    for v in aware:  # after delivery
        mask = state[v][0] | heard
        totals["hrr_sum"] += weight * (mask & high[v]).bit_count() / high[v].bit_count()
