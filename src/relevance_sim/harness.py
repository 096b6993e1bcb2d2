"""Experiment orchestration: presets, seeded Monte Carlo sweeps, CSV output,
and the line-oriented configuration grammar."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .engine import EpisodeConfig, Mode, run_episode_accumulator
from .metrics import SV_AGGREGATIONS, MetricsRecord
from .relevance import RelevanceParams
from .scenario import MobilityMode, SceneConfig
from .schemes import SCHEME_INDEX, EstimationModel, SchemeKind

DEFAULT_MASTER_SEED = 12345
DEFAULT_REPLICATIONS = 200
DEFAULT_SLOTS = 400
DEFAULT_GAMMAS = tuple(range(1, 26))

CSV_COLUMNS = (
    "mode", "scheme", "gamma", "replications",
    "hrr", "hrr_ci", "mean_sv", "mean_sv_ci", "lrr", "lrr_ci",
    "usage", "usage_ci", "se", "se_ci", "mean_eps", "tx_multiplicity",
)


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentSpec:
    mode: Mode
    schemes: tuple[SchemeKind, ...]
    gammas: tuple[int, ...]
    replications: int
    slots_per_episode: int
    master_seed: int
    scene: SceneConfig
    relevance: RelevanceParams
    estimation: EstimationModel
    sv_aggregation: str = "max"

    def validate(self) -> None:
        for key, value in _resolved_values(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not self.gammas or any(g < 1 for g in self.gammas):
            raise ConfigError("gammas must be nonempty, each >= 1")
        if len(set(self.gammas)) != len(self.gammas):
            raise ConfigError("run.gammas must not repeat a budget")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("run.schemes must not repeat a scheme")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.slots_per_episode < 2 * self.scene.vehicle_count:
            raise ConfigError("slots_per_episode must cover two communication cycles")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.sv_aggregation not in SV_AGGREGATIONS:
            raise ConfigError(f"sv_aggregation must be one of {SV_AGGREGATIONS}")
        expected = Mode.UNICAST if self.scene.vehicle_count == 2 else Mode.BROADCAST
        if self.mode is not expected:
            raise ConfigError("mode must match vehicle_count (2 -> unicast, >2 -> broadcast)")
        try:
            self.scene.validate()
            self.relevance.validate()
            self.estimation.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e


def _default_spec(vehicle_count: int) -> ExperimentSpec:
    return ExperimentSpec(
        mode=Mode.UNICAST if vehicle_count == 2 else Mode.BROADCAST,
        schemes=tuple(SchemeKind),
        gammas=DEFAULT_GAMMAS,
        replications=DEFAULT_REPLICATIONS,
        slots_per_episode=DEFAULT_SLOTS,
        master_seed=DEFAULT_MASTER_SEED,
        scene=SceneConfig(vehicle_count=vehicle_count),
        relevance=RelevanceParams(),
        estimation=EstimationModel(),
    )


# Figure presets differ only in topology: 5-7 plot the 2-vehicle unicast runs,
# 8-10 the 4-vehicle broadcast runs (the figure picks which columns to read).
PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")


def preset(name: str) -> ExperimentSpec:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    vehicle_count = 2 if name in ("fig5", "fig6", "fig7") else 4
    return _default_spec(vehicle_count)


def derive_rng(master_seed: int, scheme: SchemeKind, gamma: int, replication: int) -> np.random.Generator:
    """Independent stream per episode from the injective key (seed, scheme, gamma, rep)."""
    seq = np.random.SeedSequence([master_seed, SCHEME_INDEX[scheme], gamma, replication])
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class SweepRow:
    mode: Mode
    scheme: SchemeKind
    gamma: int
    replications: int
    hrr: float | None
    hrr_ci: float | None
    mean_sv: float | None
    mean_sv_ci: float | None
    lrr: float | None
    lrr_ci: float | None
    usage: float | None
    usage_ci: float | None
    se: float | None
    se_ci: float | None
    mean_eps: float | None
    tx_multiplicity: float | None


def _ci_half_width(values: list[float]) -> float | None:
    # Normal-approximation 95% interval over per-replication means.
    if len(values) < 2:
        return None
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return 1.96 * math.sqrt(var / len(values))


def _run_cell(spec: ExperimentSpec, scheme: SchemeKind, gamma: int) -> SweepRow:
    episode = EpisodeConfig(
        scene=spec.scene,
        relevance=spec.relevance,
        estimation=spec.estimation,
        scheme=scheme,
        gamma=gamma,
        mode=spec.mode,
        slots=spec.slots_per_episode,
        sv_aggregation=spec.sv_aggregation,
    )
    merged = None
    per_rep: list[MetricsRecord] = []
    for rep in range(spec.replications):
        try:
            acc = run_episode_accumulator(episode, derive_rng(spec.master_seed, scheme, gamma, rep))
        except Exception as e:
            raise RuntimeError(
                f"episode failed: scheme={scheme.value} gamma={gamma} replication={rep}"
            ) from e
        per_rep.append(acc.finalize())
        merged = acc if merged is None else merged.merge(acc)
    assert merged is not None
    pooled = merged.finalize()

    def ci(metric: str) -> float | None:
        vals = [getattr(r, metric) for r in per_rep if getattr(r, metric) is not None]
        return _ci_half_width(vals)

    # Distinct-variable counts are only meaningful within one scenario, so the
    # per-variable transmission multiplicity averages per-episode values
    # instead of reading the cross-episode merge.
    mult = [r.tx_multiplicity for r in per_rep if r.tx_multiplicity is not None]
    tx_multiplicity = sum(mult) / len(mult) if mult else None

    return SweepRow(
        mode=spec.mode,
        scheme=scheme,
        gamma=gamma,
        replications=spec.replications,
        hrr=pooled.hrr, hrr_ci=ci("hrr"),
        mean_sv=pooled.mean_sv, mean_sv_ci=ci("mean_sv"),
        lrr=pooled.lrr, lrr_ci=ci("lrr"),
        usage=pooled.usage, usage_ci=ci("usage"),
        se=pooled.se, se_ci=ci("se"),
        mean_eps=pooled.mean_eps,
        tx_multiplicity=tx_multiplicity,
    )


def _worker_count() -> int:
    raw = os.environ.get("RELEVANCE_SIM_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as e:
            raise ConfigError("RELEVANCE_SIM_THREADS must be an integer") from e
        return max(1, n)
    return os.cpu_count() or 1


def run_sweep(
    spec: ExperimentSpec,
    progress: Callable[[str], None] | None = None,
) -> list[SweepRow]:
    """Run every (scheme, gamma) cell of the grid; rows come back sorted by
    (mode, scheme order, gamma) regardless of execution order or parallelism."""
    spec.validate()
    cells = [(scheme, gamma) for scheme in spec.schemes for gamma in spec.gammas]
    workers = min(_worker_count(), len(cells))
    rows: list[SweepRow]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.starmap(_run_cell, [(spec, s, g) for s, g in cells], chunksize=1)
    else:
        rows = []
        for scheme, gamma in cells:
            rows.append(_run_cell(spec, scheme, gamma))
            if progress is not None:
                progress(f"{scheme.value} gamma={gamma} done")
    rows.sort(key=lambda r: (r.mode.value, SCHEME_INDEX[r.scheme], r.gamma))
    return rows


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def render_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            r.mode.value, r.scheme.value, str(r.gamma), str(r.replications),
            _fmt(r.hrr), _fmt(r.hrr_ci), _fmt(r.mean_sv), _fmt(r.mean_sv_ci),
            _fmt(r.lrr), _fmt(r.lrr_ci), _fmt(r.usage), _fmt(r.usage_ci),
            _fmt(r.se), _fmt(r.se_ci), _fmt(r.mean_eps), _fmt(r.tx_multiplicity),
        ]))
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[SweepRow], path: str) -> None:
    if not rows:
        raise ValueError("refusing to emit an empty table")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(render_csv(rows))


# --- configuration grammar -------------------------------------------------
#
# Line-oriented `key = value`; `#` starts a comment; keys are dotted section
# paths.  Unknown keys and duplicates are hard errors; anything omitted takes
# the experiment defaults above.

def _parse_schemes(raw: str) -> tuple[SchemeKind, ...]:
    by_name = {k.value.lower(): k for k in SchemeKind}
    out = []
    for part in raw.split(","):
        name = part.strip().lower()
        if name not in by_name:
            raise ValueError(f"unknown scheme {part.strip()!r}")
        out.append(by_name[name])
    return tuple(out)


def _parse_gammas(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in raw.split(","))


def _parse_mobility(raw: str) -> MobilityMode:
    table = {m.value: m for m in MobilityMode}
    if raw not in table:
        raise ValueError(f"mobility_mode must be one of {sorted(table)}")
    return table[raw]


# key -> (target section, field, parser)
_CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "scene.width": ("scene", "width", float),
    "scene.height": ("scene", "height", float),
    "scene.object_count": ("scene", "object_count", int),
    "scene.vehicle_count": ("scene", "vehicle_count", int),
    "scene.mobility_mode": ("scene", "mobility_mode", _parse_mobility),
    "scene.vehicle_speed": ("scene", "vehicle_speed", float),
    "scene.slot_duration": ("scene", "slot_duration", float),
    "scene.detection_a1": ("scene", "detection_a1", float),
    "scene.detection_a2": ("scene", "detection_a2", float),
    "scene.detection_a3": ("scene", "detection_a3", float),
    "relevance.delta_L": ("relevance", "delta_L", float),
    "relevance.high_min": ("relevance", "high_min", float),
    "relevance.high_max": ("relevance", "high_max", float),
    "relevance.p": ("relevance", "randomization_p", float),
    "relevance.rho_near": ("relevance", "rho_near", float),
    "relevance.d_near": ("relevance", "d_near", float),
    "relevance.d_far": ("relevance", "d_far", float),
    "relevance.s_min": ("relevance", "s_min", float),
    "estimation.a4": ("estimation", "a4", float),
    "estimation.a5": ("estimation", "a5", float),
    "estimation.a6": ("estimation", "a6", float),
    "estimation.value_range_width": ("estimation", "value_range_width", float),
    "run.schemes": ("run", "schemes", _parse_schemes),
    "run.gammas": ("run", "gammas", _parse_gammas),
    "run.replications": ("run", "replications", int),
    "run.slots": ("run", "slots_per_episode", int),
    "run.seed": ("run", "master_seed", int),
    "run.sv_aggregation": ("run", "sv_aggregation", str.strip),
}


def parse_config_with_provenance(text: str) -> tuple[ExperimentSpec, dict[str, str]]:
    """Parse the config document; also report which keys the document set.

    Every key the document does not mention keeps its experiment default, so
    callers can echo the full resolved parameter set with provenance.
    """
    assigned: dict[str, object] = {}
    raw_values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assigned:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        _, _, parser = _CONFIG_KEYS[key]
        try:
            assigned[key] = parser(raw_value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
        raw_values[key] = raw_value

    spec = _default_spec(vehicle_count=int(assigned.get("scene.vehicle_count", 2)))
    scene, relevance, estimation = spec.scene, spec.relevance, spec.estimation

    det = list(scene.detection_coeffs)
    for i, key in enumerate(("scene.detection_a1", "scene.detection_a2", "scene.detection_a3")):
        if key in assigned:
            det[i] = assigned[key]
    high = list(relevance.high_range)
    for i, key in enumerate(("relevance.high_min", "relevance.high_max")):
        if key in assigned:
            high[i] = assigned[key]

    def picked(section: str) -> dict[str, object]:
        out = {}
        for key, (sec, attr, _) in _CONFIG_KEYS.items():
            if sec == section and key in assigned and not key.startswith(("scene.detection_", "relevance.high_")):
                out[attr] = assigned[key]
        return out

    scene = replace(scene, detection_coeffs=tuple(det), **picked("scene"))
    relevance = replace(relevance, high_range=tuple(high), **picked("relevance"))
    est_coeffs = list(estimation.coeffs)
    for i, key in enumerate(("estimation.a4", "estimation.a5", "estimation.a6")):
        if key in assigned:
            est_coeffs[i] = assigned[key]
    estimation = EstimationModel(
        coeffs=tuple(est_coeffs),
        value_range_width=assigned.get("estimation.value_range_width", estimation.value_range_width),
    )
    spec = replace(
        spec,
        mode=Mode.UNICAST if scene.vehicle_count == 2 else Mode.BROADCAST,
        scene=scene,
        relevance=relevance,
        estimation=estimation,
        **picked("run"),
    )
    spec.validate()
    return spec, raw_values


def parse_config(text: str) -> ExperimentSpec:
    return parse_config_with_provenance(text)[0]


def _resolved_values(spec: ExperimentSpec) -> dict[str, object]:
    """Every configuration key with the value `spec` gives it."""
    return {
        "scene.width": spec.scene.width,
        "scene.height": spec.scene.height,
        "scene.object_count": spec.scene.object_count,
        "scene.vehicle_count": spec.scene.vehicle_count,
        "scene.mobility_mode": spec.scene.mobility_mode.value,
        "scene.vehicle_speed": spec.scene.vehicle_speed,
        "scene.slot_duration": spec.scene.slot_duration,
        "scene.detection_a1": spec.scene.detection_coeffs[0],
        "scene.detection_a2": spec.scene.detection_coeffs[1],
        "scene.detection_a3": spec.scene.detection_coeffs[2],
        "relevance.delta_L": spec.relevance.delta_L,
        "relevance.high_min": spec.relevance.high_range[0],
        "relevance.high_max": spec.relevance.high_range[1],
        "relevance.p": spec.relevance.randomization_p,
        "relevance.rho_near": spec.relevance.rho_near,
        "relevance.d_near": spec.relevance.d_near,
        "relevance.d_far": spec.relevance.d_far,
        "relevance.s_min": spec.relevance.s_min,
        "estimation.a4": spec.estimation.coeffs[0],
        "estimation.a5": spec.estimation.coeffs[1],
        "estimation.a6": spec.estimation.coeffs[2],
        "estimation.value_range_width": spec.estimation.value_range_width,
        "run.schemes": ",".join(s.value for s in spec.schemes),
        "run.gammas": ",".join(str(g) for g in spec.gammas),
        "run.replications": spec.replications,
        "run.slots": spec.slots_per_episode,
        "run.seed": spec.master_seed,
        "run.sv_aggregation": spec.sv_aggregation,
    }


def resolved_config_lines(
    spec: ExperimentSpec,
    overridden: dict[str, str] | None = None,
    cli_overridden: set[str] | None = None,
) -> list[str]:
    """Full parameter listing, one `key = value` per line, flagging provenance."""
    overridden = overridden or {}
    cli_overridden = cli_overridden or set()
    out = []
    for key, value in _resolved_values(spec).items():
        if key in cli_overridden:
            origin = "override"
        elif key in overridden:
            origin = "config"
        else:
            origin = "default"
        out.append(f"{key} = {value}  # {origin}")
    return out
