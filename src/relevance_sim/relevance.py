"""Per-vehicle contextual relevance functions.

Each vehicle assigns every environment object a semantic value: exactly 0 for
the low-relevance class, or a fresh draw from `high_range` for the high class.
Class membership is correlated between vehicles as a function of distance to a
reference vehicle, gated by an independent-redraw coin `randomization_p`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .schemes import mask_of


@dataclass(frozen=True)
class RelevanceParams:
    delta_L: float = 0.7            # fraction of low-relevance (zero-value) objects
    low_value: float = 0.0
    high_range: tuple[float, float] = (0.5, 1.0)
    randomization_p: float = 0.5    # chance a vehicle's function is fully independent
    rho_near: float = 0.9
    d_near: float = 100.0
    d_far: float = 400.0
    s_min: float = 0.05

    def validate(self) -> None:
        if not 0.0 <= self.delta_L <= 1.0:
            raise ValueError("delta_L must lie in [0, 1]")
        if not 0.0 <= self.randomization_p <= 1.0:
            raise ValueError("randomization_p must lie in [0, 1]")
        if not 0.0 <= self.rho_near <= 1.0:
            raise ValueError("rho_near must lie in [0, 1]")
        if not 0.0 < self.d_near < self.d_far:
            raise ValueError("need 0 < d_near < d_far")
        lo, hi = self.high_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("high_range must be a sub-interval of (0, 1]")
        if self.low_value != 0.0:
            raise ValueError("low-relevance class is pinned to value 0")


@dataclass(frozen=True)
class RelevanceFunction:
    owner: int
    values: tuple[float, ...]
    # Derived, cached for the hot loop: the ids with a nonzero value, as a
    # bitmask over object ids.
    high_mask: int = field(repr=False, default=0)

    @staticmethod
    def from_values(owner: int, values: np.ndarray) -> RelevanceFunction:
        return RelevanceFunction(
            owner=owner,
            values=tuple(float(v) for v in values),
            high_mask=mask_of(np.flatnonzero(values > 0.0).tolist()),
        )


def correlation_coefficient(distance: float, params: RelevanceParams) -> float:
    """Distance-dependent class-copy probability: flat near, linear to 0 far."""
    if distance < params.d_near:
        return params.rho_near
    if distance >= params.d_far:
        return 0.0
    return params.rho_near * (params.d_far - distance) / (params.d_far - params.d_near)


def build_relevance_functions(
    scenario: Scenario,
    params: RelevanceParams,
    rng: np.random.Generator,
) -> list[RelevanceFunction]:
    """One relevance function per vehicle, correlated to vehicle 0.

    Vehicle 0 is the reference: its class vector is drawn i.i.d. with
    P(high) = 1 - delta_L.  Every other vehicle is either fully independent
    (probability `randomization_p`) or copies the reference class per object
    with probability rho(distance-to-reference), redrawing with the plain
    marginal otherwise.  Both branches leave the per-object marginal at
    1 - delta_L.  High-class values are always fresh uniform draws from
    `high_range`, so only class membership carries the correlation.
    """
    params.validate()
    if not scenario.vehicles:
        raise ValueError("scenario has no vehicles")
    k = len(scenario.objects)
    p_high = 1.0 - params.delta_L
    ref = scenario.vehicles[0]
    ref_high = rng.random(k) < p_high
    class_vectors = [ref_high]
    for v in scenario.vehicles[1:]:
        if rng.random() < params.randomization_p:
            class_vectors.append(rng.random(k) < p_high)
            continue
        d = math.hypot(v.position[0] - ref.position[0], v.position[1] - ref.position[1])
        rho = correlation_coefficient(d, params)
        copy = rng.random(k) < rho
        redraw = rng.random(k) < p_high
        class_vectors.append(np.where(copy, ref_high, redraw))
    lo, hi = params.high_range
    out = []
    for v, high in zip(scenario.vehicles, class_vectors):
        values = np.where(high, rng.uniform(lo, hi, k), params.low_value)
        out.append(RelevanceFunction.from_values(v.id, values))
    return out

