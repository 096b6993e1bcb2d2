"""Benchmark workloads: each is a `key = value` config document for
`relevance_sim.parse_config`, plus the worker count it runs with.

Every document spells out the model parameters the output checks rely on,
so the program and the checks read the same values by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

SCHEMES = ("Baseline", "IRC", "RM", "Semantic", "IdealSemantic")

# The defaults documented in the repository README, written out explicitly.
MODEL = {
    "scene.width": 800.0,
    "scene.height": 200.0,
    "scene.object_count": 110,
    "scene.detection_a1": 0.08,
    "scene.detection_a2": -0.08,
    "scene.detection_a3": 60.0,
    "relevance.delta_L": 0.7,
    "relevance.high_min": 0.5,
    "relevance.high_max": 1.0,
    "relevance.p": 0.5,
    "relevance.rho_near": 0.9,
    "relevance.d_near": 100.0,
    "relevance.d_far": 400.0,
    "relevance.s_min": 0.05,
}


@dataclass(frozen=True)
class Workload:
    name: str
    vehicles: int
    gammas: tuple[int, ...]
    replications: int
    slots: int
    threads: int = 1
    mobility: str = "static"
    aggregation: str = "max"
    schemes: tuple[str, ...] = SCHEMES

    @property
    def cells(self) -> list[tuple[str, int]]:
        return [(s, g) for s in self.schemes for g in self.gammas]

    @property
    def episode_slots(self) -> int:
        return len(self.cells) * self.replications * self.slots

    def params(self, seed: int) -> dict[str, object]:
        return {
            **MODEL,
            "scene.vehicle_count": self.vehicles,
            "scene.mobility_mode": self.mobility,
            "run.schemes": ",".join(self.schemes),
            "run.gammas": ",".join(str(g) for g in self.gammas),
            "run.replications": self.replications,
            "run.slots": self.slots,
            "run.seed": seed,
            "run.sv_aggregation": self.aggregation,
        }

    def document(self, seed: int) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.params(seed).items())


FIG_GAMMAS = tuple(range(1, 26))

# Two replications is the least that gives every row a confidence interval,
# which the low-relevance checks need; the grids are the fig5/fig8 presets.
UNICAST = Workload("unicast-sweep", vehicles=2, gammas=FIG_GAMMAS, replications=2, slots=400)
BROADCAST = Workload("broadcast-sweep", vehicles=4, gammas=FIG_GAMMAS, replications=2, slots=400)
# Four communication cycles per episode, so per-episode set-up and per-slot
# mobility outweigh the slot loop.
MOBILE = Workload(
    "mobile-short", vehicles=4, gammas=(1, 5, 25), replications=100, slots=16,
    mobility="constant_velocity", aggregation="mean",
)

# End-to-end workloads. The broadcast grid is traced only: on this shared
# two-vCPU machine its runs spread too widely to carry a bound within the
# time a run may take (see README.md).
WORKLOADS = {w.name: w for w in (UNICAST, MOBILE)}
# Workloads of the traced run, which also runs the broadcast grid on two workers.
TRACED = {w.name: w for w in (UNICAST, BROADCAST, MOBILE)}


def read_document(text: str) -> dict[str, str]:
    """The benchmark's own reading of a `key = value` document."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out
