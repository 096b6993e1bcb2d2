"""The five message-content selection schemes behind one contract.

Baseline, IRC and RM are content-agnostic (they never look at semantic
values): RM is Baseline over the ids not estimated to be known, and IRC falls
back to RM.  Semantic ranks candidates by noisy estimated values;
IdealSemantic ranks by true values with perfect receiver-state knowledge.

Selectors are pure functions of int bitmasks over object ids: `local` is the
transmitter's snapshot, `est_known` the channel-derived estimate of what the
receivers hold, and `known` the receivers' true known masks.  `values` holds
one semantic-value row per receiver, in the order of `known`.  Every selector
returns at most `gamma` ids of `local` in ascending order, and draws random
numbers over ids in ascending order.  A random subset is drawn by shuffling
the ascending ids in place and keeping a prefix: the same draws, and the same
subset, as indexing them through a permutation prefix.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SchemeKind(Enum):
    BASELINE = "Baseline"
    IRC = "IRC"
    RM = "RM"
    SEMANTIC = "Semantic"
    IDEAL_SEMANTIC = "IdealSemantic"


# Stable per-scheme index used for seed derivation and row ordering.
SCHEME_INDEX = {kind: i for i, kind in enumerate(SchemeKind)}


@dataclass(frozen=True)
class EstimationModel:
    # Logistic estimation error: eps(c) = 1 / (1 + a4 * exp(-a5 * (c - a6)))
    a4: float = 1.0
    a5: float = -0.5
    a6: float = 26.0
    value_range_width: float = 1.0  # max(w) - min(w) of the nominal value range


def estimation_error(known_count: int, model: EstimationModel) -> float:
    """Estimation error of the semantic model given the transmitter's known-set size.

    Strictly decreasing in `known_count` for the default coefficients: the more
    context a vehicle has gathered, the better it guesses others' relevance.
    A steep curve saturates at its limit where the exponential overflows:
    0.0 for a4 > 0, and 1.0 everywhere for a4 = 0.
    """
    if model.a4 == 0:
        return 1.0
    try:
        return 1.0 / (1.0 + model.a4 * math.exp(-model.a5 * (known_count - model.a6)))
    except OverflowError:
        return 0.0


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask over object ids with one bit set per id."""
    mask = 0
    for k in ids:
        mask |= 1 << k
    return mask


# _BYTE_BITS[b]: the positions of the bits set in byte value b, ascending.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def ids_of(mask: int) -> list[int]:
    """The ids whose bits are set in `mask`, ascending."""
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
        base += 8
    return out


def estimate_receiver_known(sent: Sequence[int], transmitter: int) -> int:
    """Union of every variable recently heard on the channel from others.

    `sent` holds each sender's latest message mask, already cleared for a
    sender whose message has expired.  The estimate deliberately excludes
    receiver-local detections nobody has transmitted; that blind spot is what
    separates the semantic scheme from its ideal variant.
    """
    mask = 0
    for s, m in enumerate(sent):
        if s != transmitter:
            mask |= m
    return mask


def _random_subset(items: list[int], size: int, rng: np.random.Generator) -> list[int]:
    # Uniform subset of the ascending ids `items` (shuffled in place), returned
    # ascending. `rng.shuffle` runs the same Fisher-Yates draws as
    # `rng.permutation(len(items))`, so the prefix equals the permutation
    # prefix `[items[i] for i in perm[:size]]`.
    rng.shuffle(items)
    return sorted(items[:size])


def select_baseline(local: int, gamma: int, rng: np.random.Generator) -> list[int]:
    """Everything local if it fits, otherwise a uniformly random budget-sized subset."""
    ids = ids_of(local)
    if len(ids) <= gamma:
        return ids
    return _random_subset(ids, gamma, rng)


def select_irc(local: int, est_known: int, gamma: int, rng: np.random.Generator) -> list[int]:
    """Drop estimated-redundant variables (in random order) only while over budget.

    Removing one redundant variable at a time until the budget fits is
    distributionally the same as dropping a uniform random excess-sized subset
    of the redundant ones, which is what we do.  If the message is still too
    large once every redundant variable is gone, fall back to RM: a random
    budget-sized subset of the non-redundant remainder.
    """
    ids = ids_of(local)
    excess = len(ids) - gamma
    if excess <= 0:
        return ids
    redundant = ids_of(local & est_known)
    if excess <= len(redundant):
        return ids_of(local & ~mask_of(_random_subset(redundant, excess, rng)))
    return select_rm(local, est_known, gamma, rng)


def select_rm(local: int, est_known: int, gamma: int, rng: np.random.Generator) -> list[int]:
    """Baseline over the variables not estimated to be known."""
    return select_baseline(local & ~est_known, gamma, rng)


def _top_by_score(scored: list[tuple[float, int]], gamma: int) -> list[int]:
    # `scored` holds (-score, id) pairs in ascending id order. Ascending pair
    # order ranks descending by score, ties to the lower object id.
    if len(scored) <= gamma:
        return [k for _, k in scored]
    scored.sort()
    return sorted(k for _, k in scored[:gamma])


def select_semantic(
    local: int,
    est_known: int,
    values: Sequence[Sequence[float]],
    gamma: int,
    s_min: float,
    delta: float,
    rng: np.random.Generator,
) -> list[int]:
    """Rank local variables by noisy estimated semantic value (Semantic scheme).

    Estimated-redundant variables score zero outright; every other (variable,
    receiver) pair gets one fresh noisy estimate, uniform on an interval of
    width `delta` (the value range times the estimation error) around the true
    value, and a variable's score is its best estimate over the receivers'
    value rows.  Variables at or below s_min are filtered out before the
    budget cut.
    """
    fresh = ids_of(local & ~est_known)
    # One uniform draw per (variable, receiver) pair, consumed in (k, r) order.
    # The interval is deliberately not clamped to the value range.
    u = rng.random(len(fresh) * len(values)).tolist()
    scored = []
    i = 0
    for k in fresh:
        best = -math.inf
        for w in values:
            est = w[k] + (u[i] - 0.5) * delta
            i += 1
            if est > best:
                best = est
        if best > s_min:
            scored.append((-best, k))
    return _top_by_score(scored, gamma)


def select_ideal_semantic(
    local: int,
    known: Sequence[int],
    values: Sequence[Sequence[float]],
    gamma: int,
    s_min: float,
) -> list[int]:
    """Rank by true semantic value with perfect receiver knowledge (upper bound).

    A variable already in a receiver's known mask is worthless to that
    receiver; the score is the best true value over the receivers.
    Deterministic: no estimation noise, ties broken by object id.
    """
    receivers = list(zip(known, values))
    scored = []
    for k in ids_of(local):
        best = 0.0
        for mask, row in receivers:
            if not mask >> k & 1:
                w = row[k]
                if w > best:
                    best = w
        if best > s_min:
            scored.append((-best, k))
    return _top_by_score(scored, gamma)


def exhaustive_best_selection(
    scores: Mapping[int, float],
    gamma: int,
    s_min: float,
) -> set[int]:
    """Reference selector: enumerate every subset within budget and keep the one
    with the highest total score, breaking ties toward the lexicographically
    smallest id tuple.

    Exponential in the candidate count — only usable on tiny instances, which
    is the point: it is an independent cross-check for the greedy top-gamma
    rule used by the ideal scheme.
    """
    eligible = sorted(k for k, s in scores.items() if s > s_min)
    best_total = 0.0
    best: tuple[int, ...] = ()
    for r in range(0, min(gamma, len(eligible)) + 1):
        for combo in itertools.combinations(eligible, r):
            total = sum(scores[k] for k in combo)
            if total > best_total or (total == best_total and combo < best):
                best_total = total
                best = combo
    return set(best)


def random_selection_instance(
    rng: np.random.Generator,
) -> tuple[int, list[int], list[list[float]], int, float]:
    """Random small instance for cross-checking the ideal selector.

    Returns (local mask, receivers' known masks, receivers' value rows, gamma,
    s_min).  Values are drawn on a coarse 1/64 grid so equal scores (and
    therefore tie-breaks) actually occur, and sums stay exact in binary
    floating point.
    """
    universe, max_local, max_gamma = 30, 10, 4
    n_receivers = int(rng.integers(1, 4))
    n_local = int(rng.integers(0, max_local + 1))
    local = mask_of(rng.choice(universe, size=n_local, replace=False).tolist())
    values = []
    known = []
    for _ in range(n_receivers):
        values.append((rng.integers(0, 65, universe) / 64.0).tolist())
        n_known = int(rng.integers(0, universe // 2))
        known.append(mask_of(rng.choice(universe, size=n_known, replace=False).tolist()))
    return local, known, values, int(rng.integers(1, max_gamma + 1)), 0.05


def oracle_mismatch_count(instances: int, seed: int) -> int:
    """Compare greedy ideal selection against exhaustive enumeration.

    Scores are recomputed here from scratch (max over receivers of the true
    value, zero if known) so the reference path shares no selection code with
    the scheme under test.  Returns the number of differing instances.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(instances):
        local, known, values, gamma, s_min = random_selection_instance(rng)
        scores = {
            k: max(0.0 if mask >> k & 1 else row[k] for mask, row in zip(known, values))
            for k in ids_of(local)
        }
        greedy = select_ideal_semantic(local, known, values, gamma, s_min)
        if set(greedy) != exhaustive_best_selection(scores, gamma, s_min):
            mismatches += 1
    return mismatches
