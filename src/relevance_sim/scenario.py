"""Driving-scenario generation: object placement, vehicle kinematics, and the
onboard perception model (distance-dependent detection probability).

The scene's objects are one NumPy record array, one record per object:
`place_objects` returns it, and its `position` field is the contiguous (K, 2)
array of object positions that the detection curve consumes, so object k is
row k.  A `Fleet` is the one representation of an episode's vehicles: their
current positions plus, per vehicle, the origin->destination track it moves
along.  `spawn_vehicles` draws it and `advance_mobility` moves it one 0.1 s
slot in place; whether an episode moves at all is the engine's decision.  The
detection curve is read from `SceneConfig` only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


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
    vehicle_speed: float = 14.0  # m/s; one slot is 0.1 s
    # Logistic detection probability: P(d) = 1 / (1 + a1 * exp(-a2 * (d - a3)))
    detection_a1: float = 0.08
    detection_a2: float = -0.08
    detection_a3: float = 60.0

    @property
    def detection_coeffs(self) -> tuple[float, float, float]:
        return (self.detection_a1, self.detection_a2, self.detection_a3)


@np.errstate(over="ignore")  # where exp overflows, P = 1 / inf = 0, the curve's limit
def detection_probability_vector(
    position: tuple[float, float],
    xy: np.ndarray,
    coeffs: tuple[float, float, float],
) -> np.ndarray:
    """Vectorised detection probabilities from one viewpoint to every object
    position in the (K, 2) array `xy`."""
    a1, a2, a3 = coeffs
    if a1 == 0:  # P is 1 everywhere; 0 * exp(...) would be NaN where exp overflows
        return np.ones(len(xy))
    d = np.hypot(xy[:, 0] - position[0], xy[:, 1] - position[1])
    return 1.0 / (1.0 + a1 * np.exp(-a2 * (d - a3)))


def place_objects(config: SceneConfig, rng: np.random.Generator) -> np.recarray:
    """Scatter `object_count` points i.i.d. uniform over the rectangle.

    Returns one record per object; the `position` field is the (K, 2) array
    of their coordinates, so an object's id is its row index.  A Poisson
    point process conditioned on its count is exactly this binomial process,
    so a fixed count and uniform positions are mutually consistent.
    """
    xs = rng.uniform(0.0, config.width, config.object_count)
    ys = rng.uniform(0.0, config.height, config.object_count)
    return np.rec.fromarrays([np.column_stack((xs, ys))], dtype=[("position", float, (2,))])


@dataclass(slots=True)
class Fleet:
    """One episode's vehicles, moved in place by `advance_mobility`.

    `positions[v]` is vehicle v's current position. `tracks[v]` holds what
    stays constant along its origin->destination segment: origin x and y,
    direction dx and dy, segment length, and metres per 0.1 s slot at the
    scene's speed.
    """

    positions: list[tuple[float, float]]
    tracks: list[tuple[float, float, float, float, float, float]]


def spawn_vehicles(config: SceneConfig, rng: np.random.Generator) -> Fleet:
    """Draw origin/destination pairs uniformly; vehicles start at their origin."""
    # uniform(0, s) is s * next_double(), so scaling one 4-double draw gives
    # the same coordinates, in the order origin x, y, destination x, y, as
    # four scalar uniform draws.
    scale = np.array((config.width, config.height, config.width, config.height))
    step = config.vehicle_speed * 0.1  # metres per 0.1 s slot
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


def advance_mobility(fleet: Fleet) -> None:
    """Move every vehicle one time step along its segment, in place.

    Vehicles clamp at the destination instead of overshooting or respawning.
    Only a constant-velocity episode calls this. Each vehicle's new position
    is worked out from its current one: the distance travelled so far
    (`math.hypot`) plus the step, clamped to the segment length. A closed
    form over the slot count, or numpy's `hypot`, would change the low bits
    of the positions, and with them the golden CSV bytes.
    """
    positions = fleet.positions
    for v, (ox, oy, dx, dy, seg_len, step) in enumerate(fleet.tracks):
        x, y = positions[v]
        travelled = min(seg_len, math.hypot(x - ox, y - oy) + step)
        frac = travelled / seg_len
        positions[v] = (ox + frac * dx, oy + frac * dy)


def sample_hits(probs: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Independent Bernoulli trial per entry; returns the successful indices."""
    return (rng.random(len(probs)) < probs).nonzero()[0].tolist()

