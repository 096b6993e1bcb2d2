"""Per-vehicle contextual relevance functions.

Each vehicle assigns every environment object a semantic value: exactly 0 for
the low-relevance class, or a fresh draw from [high_min, high_max] for the
high class.  Class membership is correlated between vehicles as a function of
distance to a reference vehicle, gated by an independent-redraw coin `p`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RelevanceParams:
    delta_L: float = 0.7            # fraction of low-relevance (zero-value) objects
    high_min: float = 0.5           # high-class values are uniform in [high_min, high_max]
    high_max: float = 1.0
    p: float = 0.5                  # chance a vehicle's function is fully independent
    rho_near: float = 0.9
    d_near: float = 100.0
    d_far: float = 400.0
    s_min: float = 0.05


def _mask_of_flags(flags: np.ndarray) -> int:
    # Bit k set where flags[k] is true.
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class RelevanceFunction:
    values: tuple[float, ...]
    # Derived, cached for the hot loop, as bitmasks over object ids: the ids
    # with a nonzero value, and the ids valued below s_min. Required, so
    # `from_values` is the one way to get them right.
    high_mask: int = field(repr=False)
    low_mask: int = field(repr=False)

    @staticmethod
    def from_values(values: np.ndarray, s_min: float) -> RelevanceFunction:
        return RelevanceFunction(
            values=tuple(values.tolist()),
            high_mask=_mask_of_flags(values > 0.0),
            low_mask=_mask_of_flags(values < s_min),
        )


def correlation_coefficient(distance: float, params: RelevanceParams) -> float:
    """Distance-dependent class-copy probability: flat near, linear to 0 far."""
    if distance < params.d_near:
        return params.rho_near
    if distance >= params.d_far:
        return 0.0
    return params.rho_near * (params.d_far - distance) / (params.d_far - params.d_near)


def build_relevance_functions(
    object_count: int,
    positions: list[tuple[float, float]],
    params: RelevanceParams,
    rng: np.random.Generator,
) -> list[RelevanceFunction]:
    """One relevance function per vehicle, correlated to vehicle 0.

    `positions` are the vehicles' spawn positions.  Vehicle 0 is the
    reference: its class vector is drawn i.i.d. with P(high) = 1 - delta_L.
    Every other vehicle is either fully independent (probability `p`) or
    copies the reference class per object with probability
    rho(distance-to-reference), redrawing with the plain marginal otherwise.
    Both branches leave the per-object marginal at 1 - delta_L.  High-class
    values are always fresh uniform draws from [high_min, high_max], so only
    class membership carries the correlation.
    """
    k = object_count
    p_high = 1.0 - params.delta_L
    ref_x, ref_y = positions[0]
    ref_high = rng.random(k) < p_high
    class_vectors = [ref_high]
    for x, y in positions[1:]:
        if rng.random() < params.p:
            class_vectors.append(rng.random(k) < p_high)
            continue
        rho = correlation_coefficient(math.hypot(x - ref_x, y - ref_y), params)
        copy = rng.random(k) < rho
        redraw = rng.random(k) < p_high
        class_vectors.append(np.where(copy, ref_high, redraw))
    out = []
    for high in class_vectors:
        values = np.where(high, rng.uniform(params.high_min, params.high_max, k), 0.0)
        out.append(RelevanceFunction.from_values(values, params.s_min))
    return out
