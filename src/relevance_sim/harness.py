"""Experiment orchestration: presets, seeded Monte Carlo sweeps, CSV output,
and the line-oriented configuration grammar."""
from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from typing import Callable

import numpy as np

from .engine import EpisodeConfig, run_episode_accumulator
from .metrics import SV_AGGREGATIONS, MetricsAccumulator, MetricsRecord
from .relevance import RelevanceParams
from .scenario import MobilityMode, SceneConfig
from .schemes import SCHEME_INDEX, EstimationModel, SchemeKind

DEFAULT_GAMMAS = tuple(range(1, 26))
# Version of how episodes draw their random numbers; a change that draws
# differently bumps it and regenerates tests/data/golden.csv.
SEED_CONTRACT = 1


class Mode(Enum):
    """Topology: 2 vehicles exchange unicast messages, more broadcast them."""

    UNICAST = "unicast"
    BROADCAST = "broadcast"


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentSpec:
    schemes: tuple[SchemeKind, ...] = tuple(SchemeKind)
    gammas: tuple[int, ...] = DEFAULT_GAMMAS
    replications: int = 200
    slots_per_episode: int = 400
    master_seed: int = 12345
    scene: SceneConfig = SceneConfig()
    relevance: RelevanceParams = RelevanceParams()
    estimation: EstimationModel = EstimationModel()
    sv_aggregation: str = "max"

    @property
    def mode(self) -> Mode:
        """Derived from the scene, so it cannot disagree with the vehicle count."""
        return Mode.UNICAST if self.scene.vehicle_count == 2 else Mode.BROADCAST

    def validate(self) -> None:
        """The one check of what a run accepts; each error names its key(s).

        `parse_config` and `run_sweep` call it, so nothing downstream checks
        configuration again.
        """
        for key, (_, path) in _KEYS.items():
            value = _get(self, path)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for keys, accepts, rule in _RULES:
            if not accepts(*(_get(self, _KEYS[key][1]) for key in keys)):
                raise ConfigError(f"{keys[0]} must {rule}")


# Figure presets differ only in topology: 5-7 plot the 2-vehicle unicast runs,
# 8-10 the 4-vehicle broadcast runs (the figure picks which columns to read).
PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")


def preset(name: str) -> ExperimentSpec:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    vehicle_count = 2 if name in ("fig5", "fig6", "fig7") else 4
    return ExperimentSpec(scene=SceneConfig(vehicle_count=vehicle_count))


def derive_rng(master_seed: int, scheme: SchemeKind, gamma: int, replication: int) -> np.random.Generator:
    """Independent stream per episode from the injective key (seed, scheme, gamma, rep)."""
    seq = np.random.SeedSequence([master_seed, SCHEME_INDEX[scheme], gamma, replication])
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class SweepRow:
    """One (scheme, gamma) cell; the fields, in order, are the CSV columns."""

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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))
# Metrics reported with a `<metric>_ci` column over the per-replication values.
CI_METRICS = ("hrr", "mean_sv", "lrr", "usage", "se")


def _ci_half_width(values: list[float]) -> float | None:
    # Normal-approximation 95% interval over per-replication means.
    if len(values) < 2:
        return None
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return 1.96 * math.sqrt(var / len(values))


def _run_cell(episode: EpisodeConfig) -> SweepRow:
    spec, scheme, gamma = episode.spec, episode.scheme, episode.gamma
    merged = MetricsAccumulator(spec.sv_aggregation)
    per_rep: list[MetricsRecord] = []
    for rep in range(spec.replications):
        try:
            acc = run_episode_accumulator(episode, derive_rng(spec.master_seed, scheme, gamma, rep))
        except Exception as e:
            raise RuntimeError(
                f"episode failed: scheme={scheme.value} gamma={gamma} replication={rep}"
            ) from e
        per_rep.append(acc.finalize())
        merged = merged.merge(acc)
    columns = asdict(merged.finalize())
    for metric in CI_METRICS:
        columns[f"{metric}_ci"] = _ci_half_width(
            [getattr(r, metric) for r in per_rep if getattr(r, metric) is not None])
    # Distinct-variable counts are only meaningful within one scenario, so the
    # per-variable transmission multiplicity averages per-episode values
    # instead of reading the cross-episode merge.
    mult = [r.tx_multiplicity for r in per_rep if r.tx_multiplicity is not None]
    columns["tx_multiplicity"] = sum(mult) / len(mult) if mult else None
    return SweepRow(mode=spec.mode, scheme=scheme, gamma=gamma,
                    replications=spec.replications, **columns)


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
    (mode, scheme order, gamma) regardless of execution order or parallelism.

    `progress` gets one line per cell as it finishes, in the serial and in the
    parallel path alike, with the finished-cell count and an ETA that assumes
    the remaining cells finish at the rate the finished ones did.
    """
    spec.validate()
    cells = [EpisodeConfig(spec, scheme, gamma) for scheme in spec.schemes for gamma in spec.gammas]
    workers = min(_worker_count(), len(cells))
    rows: list[SweepRow] = []
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(workers))
            finished = pool.imap_unordered(_run_cell, cells, chunksize=1)
        else:
            finished = map(_run_cell, cells)
        for row in finished:
            rows.append(row)
            if progress is not None:
                done = len(rows)
                eta = (time.perf_counter() - started) / done * (len(cells) - done)
                progress(f"{row.scheme.value} gamma={row.gamma} done "
                         f"({done}/{len(cells)}, ETA {_duration(eta)})")
    rows.sort(key=lambda r: (r.mode.value, SCHEME_INDEX[r.scheme], r.gamma))
    return rows


def _duration(seconds: float) -> str:
    minutes, seconds = divmod(round(seconds), 60)
    return f"{minutes}m{seconds:02d}s" if minutes else f"{seconds}s"


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def render_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, column)) for column in CSV_COLUMNS))
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


# key -> (parser, path).  The path is the attribute chain inside an
# ExperimentSpec; a trailing int indexes a tuple field.
_KEYS: dict[str, tuple[Callable[[str], object], tuple[str | int, ...]]] = {
    "scene.width": (float, ("scene", "width")),
    "scene.height": (float, ("scene", "height")),
    "scene.object_count": (int, ("scene", "object_count")),
    "scene.vehicle_count": (int, ("scene", "vehicle_count")),
    "scene.mobility_mode": (_parse_mobility, ("scene", "mobility_mode")),
    "scene.vehicle_speed": (float, ("scene", "vehicle_speed")),
    "scene.slot_duration": (float, ("scene", "slot_duration")),
    "scene.detection_a1": (float, ("scene", "detection_coeffs", 0)),
    "scene.detection_a2": (float, ("scene", "detection_coeffs", 1)),
    "scene.detection_a3": (float, ("scene", "detection_coeffs", 2)),
    "relevance.delta_L": (float, ("relevance", "delta_L")),
    "relevance.high_min": (float, ("relevance", "high_range", 0)),
    "relevance.high_max": (float, ("relevance", "high_range", 1)),
    "relevance.p": (float, ("relevance", "randomization_p")),
    "relevance.rho_near": (float, ("relevance", "rho_near")),
    "relevance.d_near": (float, ("relevance", "d_near")),
    "relevance.d_far": (float, ("relevance", "d_far")),
    "relevance.s_min": (float, ("relevance", "s_min")),
    "estimation.a4": (float, ("estimation", "coeffs", 0)),
    "estimation.a5": (float, ("estimation", "coeffs", 1)),
    "estimation.a6": (float, ("estimation", "coeffs", 2)),
    "estimation.value_range_width": (float, ("estimation", "value_range_width")),
    "run.schemes": (_parse_schemes, ("schemes",)),
    "run.gammas": (_parse_gammas, ("gammas",)),
    "run.replications": (int, ("replications",)),
    "run.slots": (int, ("slots_per_episode",)),
    "run.seed": (int, ("master_seed",)),
    "run.sv_aggregation": (str.strip, ("sv_aggregation",)),
}


# What a run accepts, as (keys, accepts, rule): `accepts` takes the values
# of `keys` in order, and a spec it refuses fails with "<first key> must
# <rule>".  A rule that ties two keys names the second one in `rule`.
_RULES: tuple[tuple[tuple[str, ...], Callable[..., bool], str], ...] = (
    (("scene.width",), lambda x: x > 0, "be > 0"),
    (("scene.height",), lambda x: x > 0, "be > 0"),
    (("scene.object_count",), lambda n: n >= 0, "be >= 0"),
    (("scene.vehicle_count",), lambda n: n >= 2, "be >= 2 (a transmitter and a receiver)"),
    (("scene.vehicle_speed",), lambda x: x >= 0, "be >= 0"),
    (("scene.slot_duration",), lambda x: x > 0, "be > 0"),
    (("scene.detection_a1",), lambda x: x >= 0, "be >= 0"),
    (("relevance.delta_L",), lambda x: 0 <= x <= 1, "lie in [0, 1]"),
    (("relevance.high_min",), lambda x: x > 0, "be > 0"),
    (("relevance.high_max",), lambda x: x <= 1, "be <= 1"),
    (("relevance.high_min", "relevance.high_max"), lambda lo, hi: lo <= hi,
     "be <= relevance.high_max"),
    (("relevance.p",), lambda x: 0 <= x <= 1, "lie in [0, 1]"),
    (("relevance.rho_near",), lambda x: 0 <= x <= 1, "lie in [0, 1]"),
    (("relevance.d_near",), lambda x: x > 0, "be > 0"),
    (("relevance.d_near", "relevance.d_far"), lambda near, far: near < far,
     "be < relevance.d_far"),
    (("estimation.a4",), lambda x: x >= 0, "be >= 0"),
    (("estimation.value_range_width",), lambda x: x > 0, "be > 0"),
    (("run.schemes",), bool, "name a scheme"),
    (("run.schemes",), lambda s: len(set(s)) == len(s), "not repeat a scheme"),
    (("run.gammas",), lambda g: bool(g) and min(g) >= 1, "be nonempty, each >= 1"),
    (("run.gammas",), lambda g: len(set(g)) == len(g), "not repeat a budget"),
    (("run.replications",), lambda n: n >= 1, "be >= 1"),
    # Two communication cycles: the first one is warm-up.
    (("run.slots", "scene.vehicle_count"), lambda slots, n: slots >= 2 * n,
     "be >= 2 * scene.vehicle_count"),
    (("run.seed",), lambda n: 0 <= n < 2**64, "be an unsigned 64-bit integer"),
    (("run.sv_aggregation",), lambda a: a in SV_AGGREGATIONS, f"be one of {SV_AGGREGATIONS}"),
)


def _get(obj: object, path: tuple[str | int, ...]) -> object:
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _set(obj: object, values: dict[tuple[str | int, ...], object]) -> object:
    """A copy of `obj` with each path in `values` set, copying each part once."""
    new: dict[str | int, object] = {}
    for step in dict.fromkeys(path[0] for path in values):
        sub = {path[1:]: value for path, value in values.items() if path[0] == step}
        new[step] = sub[()] if () in sub else _set(_get(obj, (step,)), sub)
    if isinstance(obj, tuple):
        return tuple(new.get(i, v) for i, v in enumerate(obj))
    return replace(obj, **new)


def with_value(spec: ExperimentSpec, key: str, value: object) -> ExperimentSpec:
    """A copy of `spec` with configuration key `key` set to the parsed `value`."""
    return _set(spec, {_KEYS[key][1]: value})


def parse_config_with_provenance(text: str) -> tuple[ExperimentSpec, dict[str, str]]:
    """Parse the config document; also report which keys the document set.

    Every key the document does not mention keeps its experiment default, so
    callers can echo the full resolved parameter set with provenance.
    """
    values: dict[tuple[str | int, ...], object] = {}
    raw_values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw_values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, path = _KEYS[key]
        try:
            value = parser(raw_value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
        values[path] = value
        raw_values[key] = raw_value
    spec = _set(ExperimentSpec(), values)
    spec.validate()
    return spec, raw_values


def parse_config(text: str) -> ExperimentSpec:
    return parse_config_with_provenance(text)[0]


def _show(value: object) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    return str(value)


def resolved_config_lines(
    spec: ExperimentSpec,
    overridden: dict[str, str] | None = None,
    cli_overridden: set[str] | None = None,
) -> list[str]:
    """Full parameter listing, one `key = value` per line, flagging provenance."""
    overridden = overridden or {}
    cli_overridden = cli_overridden or set()
    out = []
    for key, (_, path) in _KEYS.items():
        if key in cli_overridden:
            origin = "override"
        elif key in overridden:
            origin = "config"
        else:
            origin = "default"
        out.append(f"{key} = {_show(_get(spec, path))}  # {origin}")
    return out
