"""Scalar reference forms of the model's rules, kept here for the tests.

The simulator only runs the vectorised or fused forms (the detection vector,
the per-slot perception draw, the semantic selector's noisy scores); these
one-at-a-time versions state each rule plainly so the tests can check the
program against them.
"""
import math

from relevance_sim.scenario import detection_probability_vector, object_coordinates, sample_hits


def detection_probability(distance, coeffs):
    """Probability that a sensor detects an object `distance` metres away."""
    a1, a2, a3 = coeffs
    return 1.0 / (1.0 + a1 * math.exp(-a2 * (distance - a3)))


def sample_local_set(position, objects, coeffs, rng):
    """One fresh perception snapshot from `position`: an independent Bernoulli
    trial per object, with the same draws as the engine's perception step.

    Snapshots do not accumulate across communication cycles; every call is a
    new attempt with the per-object detection probability.
    """
    probs = detection_probability_vector(position, object_coordinates(objects), coeffs)
    return {objects[i].id for i in sample_hits(probs, rng)}


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
