"""Driving-scenario generation: object placement, vehicle kinematics, and the
onboard perception model (distance-dependent detection probability).

A `Fleet` is the one representation of an episode's vehicles: their current
positions plus, per vehicle, the origin->destination track it moves along.
`spawn_vehicles` draws it and `advance_mobility` moves it in place.  The
detection curve and the mobility mode are read from `SceneConfig` only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# Logistic detection-probability coefficients: P(d) = 1 / (1 + a1 * exp(-a2 * (d - a3)))
DEFAULT_DETECTION_COEFFS = (0.08, -0.08, 60.0)


class MobilityMode(Enum):
    STATIC_EPISODE = "static"
    CONSTANT_VELOCITY = "constant_velocity"


@dataclass(frozen=True)
class SceneConfig:
    width: float = 800.0
    height: float = 200.0
    object_count: int = 110
    vehicle_count: int = 2
    mobility_mode: MobilityMode = MobilityMode.STATIC_EPISODE
    vehicle_speed: float = 14.0
    slot_duration: float = 0.1
    detection_coeffs: tuple[float, float, float] = DEFAULT_DETECTION_COEFFS


class ObjectPoint(NamedTuple):
    id: int
    position: tuple[float, float]


def object_coordinates(objects: list[ObjectPoint]) -> np.ndarray:
    """The (K, 2) float array of object positions, row k for object k."""
    flat = itertools.chain.from_iterable(o.position for o in objects)
    return np.fromiter(flat, dtype=float, count=2 * len(objects)).reshape(-1, 2)


def detection_probability_vector(
    position: tuple[float, float],
    xy: np.ndarray,
    coeffs: tuple[float, float, float],
) -> np.ndarray:
    """Vectorised detection probabilities from one viewpoint to every object
    of the `object_coordinates` array `xy`."""
    a1, a2, a3 = coeffs
    d = np.hypot(xy[:, 0] - position[0], xy[:, 1] - position[1])
    return 1.0 / (1.0 + a1 * np.exp(-a2 * (d - a3)))


def place_objects(config: SceneConfig, rng: np.random.Generator) -> list[ObjectPoint]:
    """Scatter `object_count` points i.i.d. uniform over the rectangle.

    A Poisson point process conditioned on its count is exactly this binomial
    process, so a fixed count and uniform positions are mutually consistent.
    """
    xs = rng.uniform(0.0, config.width, config.object_count).tolist()
    ys = rng.uniform(0.0, config.height, config.object_count).tolist()
    return list(map(ObjectPoint, range(config.object_count), zip(xs, ys)))


@dataclass(slots=True)
class Fleet:
    """One episode's vehicles, moved in place by `advance_mobility`.

    `positions[v]` is vehicle v's current position. `tracks[v]` holds what
    stays constant along its origin->destination segment: origin x and y,
    direction dx and dy, segment length, and metres per slot (0 in a static
    episode).
    """

    positions: list[tuple[float, float]]
    tracks: list[tuple[float, float, float, float, float, float]]


def spawn_vehicles(config: SceneConfig, rng: np.random.Generator) -> Fleet:
    """Draw origin/destination pairs uniformly; vehicles start at their origin."""
    # uniform(0, s) is s * next_double(), so scaling one 4-double draw gives
    # the same coordinates, in the order origin x, y, destination x, y, as
    # four scalar uniform draws.
    scale = np.array((config.width, config.height, config.width, config.height))
    moving = config.mobility_mode is MobilityMode.CONSTANT_VELOCITY
    step = config.vehicle_speed * config.slot_duration if moving else 0.0
    positions, tracks = [], []
    for _ in range(config.vehicle_count):
        while True:
            ox, oy, x, y = (rng.random(4) * scale).tolist()
            if (ox, oy) != (x, y):  # zero-length paths have no direction
                break
        dx, dy = x - ox, y - oy
        positions.append((ox, oy))
        tracks.append((ox, oy, dx, dy, math.hypot(dx, dy), step))
    return Fleet(positions, tracks)


def advance_mobility(fleet: Fleet, slots: int) -> None:
    """Move every vehicle `slots` time steps along its segment, in place.

    Vehicles clamp at the destination instead of overshooting or respawning;
    in a static episode they stay where they are. Each vehicle's new position
    is worked out from its current one: the distance travelled so far
    (`math.hypot`) plus the step, clamped to the segment length. A closed
    form over the slot count, or numpy's `hypot`, would change the low bits
    of the positions, and with them the golden CSV bytes.
    """
    if slots < 0:
        raise ValueError("slots must be >= 0")
    if slots == 0:
        return
    positions = fleet.positions
    for v, (ox, oy, dx, dy, seg_len, step) in enumerate(fleet.tracks):
        x, y = positions[v]
        travelled = min(seg_len, math.hypot(x - ox, y - oy) + step * slots)
        frac = travelled / seg_len
        positions[v] = (ox + frac * dx, oy + frac * dy)


def sample_hits(probs: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Independent Bernoulli trial per entry; returns the successful indices."""
    return (rng.random(len(probs)) < probs).nonzero()[0].tolist()

