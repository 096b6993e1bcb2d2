"""Experiment orchestration: presets, seeded Monte Carlo sweeps, CSV output,
and the line-oriented configuration grammar."""
from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Callable, Iterator, get_args, get_type_hints

import numpy as np

from .engine import EpisodeConfig, run_episode_accumulator
from .metrics import Aggregation, MetricsAccumulator
from .relevance import RelevanceParams
from .scenario import SceneConfig
from .schemes import EstimationModel, SchemeKind

DEFAULT_GAMMAS = tuple(range(1, 26))
# Version of how episodes draw their random numbers; a change that draws
# differently bumps it and regenerates tests/data/golden.csv.
SEED_CONTRACT = 1
# Each scheme's key in `derive_rng` and its place in the row order: its
# position in `SchemeKind`, whose member order is part of seed contract 1.
SCHEME_INDEX = {kind: i for i, kind in enumerate(SchemeKind)}


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentSpec:
    scene: SceneConfig = SceneConfig()
    relevance: RelevanceParams = RelevanceParams()
    estimation: EstimationModel = EstimationModel()
    schemes: tuple[SchemeKind, ...] = tuple(SchemeKind)
    gammas: tuple[int, ...] = DEFAULT_GAMMAS
    replications: int = 200
    slots: int = 400
    seed: int = 12345
    sv_aggregation: Aggregation = Aggregation.MAX

    @property
    def mode(self) -> str:
        """The topology, derived from the scene so it cannot disagree with the
        vehicle count: 2 vehicles exchange unicast messages, more broadcast them."""
        return "unicast" if self.scene.vehicle_count == 2 else "broadcast"

    def validate(self) -> None:
        """The one check of what a run accepts, naming the key(s) at fault: every
        field must match its annotation before any of `_RULES` reads it.
        `parse_config` and `run_sweep` call it; nothing downstream re-checks."""
        _check_type(self, ExperimentSpec, ())
        for keys, accepts, rule in _RULES:
            if not accepts(*(_get(self, _KEYS[key]) for key in keys)):
                raise ConfigError(f"{keys[0]} must {rule}")


# Figure presets differ only in topology: 5-7 plot the 2-vehicle unicast runs,
# 8-10 the 4-vehicle broadcast runs (the figure picks which columns to read).
PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")


def preset(name: str) -> ExperimentSpec:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    vehicle_count = 2 if name in ("fig5", "fig6", "fig7") else 4
    return ExperimentSpec(scene=SceneConfig(vehicle_count=vehicle_count))


def derive_rng(seed: int, scheme: SchemeKind, gamma: int, replication: int) -> np.random.Generator:
    """Independent stream per episode from the injective key (seed, scheme, gamma, rep)."""
    seq = np.random.SeedSequence([seed, SCHEME_INDEX[scheme], gamma, replication])
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class SweepRow:
    """One (scheme, gamma) cell; the fields, in order, are the CSV columns."""

    mode: str
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
    merged = MetricsAccumulator()
    per_rep = []
    for rep in range(spec.replications):
        try:
            acc = run_episode_accumulator(episode, derive_rng(spec.seed, scheme, gamma, rep))
        except Exception as e:
            raise RuntimeError(
                f"episode failed: scheme={scheme.value} gamma={gamma} replication={rep}: {e!r}"
            ) from e
        per_rep.append(acc.finalize())
        merged = merged.merge(acc)
    columns = merged.finalize()
    for metric in CI_METRICS:
        columns[f"{metric}_ci"] = _ci_half_width(
            [r[metric] for r in per_rep if r[metric] is not None])
    # Distinct-variable counts are only meaningful within one scenario, so the
    # per-variable transmission multiplicity averages per-episode values
    # instead of reading the cross-episode merge.
    mult = [r["tx_multiplicity"] for r in per_rep if r["tx_multiplicity"] is not None]
    columns["tx_multiplicity"] = sum(mult) / len(mult) if mult else None
    return SweepRow(mode=spec.mode, scheme=scheme, gamma=gamma,
                    replications=spec.replications, **columns)


def _worker_count() -> int:
    """One worker per CPU the process may run on, capped by RELEVANCE_SIM_THREADS."""
    raw = os.environ.get("RELEVANCE_SIM_THREADS", "").strip()
    if raw and (not raw.isdecimal() or int(raw) < 1):
        raise ConfigError(f"RELEVANCE_SIM_THREADS must be an integer >= 1, got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(int(raw), cpus) if raw else cpus


def run_sweep(
    spec: ExperimentSpec,
    progress: Callable[[str], None] | None = None,
) -> list[SweepRow]:
    """Run every (scheme, gamma) cell of the grid; rows come back sorted by
    (scheme order, gamma) regardless of execution order or parallelism.

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
    rows.sort(key=lambda r: (SCHEME_INDEX[r.scheme], r.gamma))
    return rows


def _duration(seconds: float) -> str:
    minutes, seconds = divmod(round(seconds), 60)
    return f"{minutes}m{seconds:02d}s" if minutes else f"{seconds}s"


def _fmt(value: object) -> str:
    if value is None:
        return ""
    return format(value, ".6g") if isinstance(value, float) else _show(value)


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

_hints = functools.cache(get_type_hints)  # resolves annotation strings, once per class


def _keys() -> Iterator[tuple[str, tuple[str, ...]]]:
    for name, hint in _hints(ExperimentSpec).items():
        if is_dataclass(hint):
            for field in _hints(hint):
                yield f"{name}.{field}", (name, field)
        else:
            yield f"run.{name}", (name,)


# key -> path in an ExperimentSpec, in field order (`<section>.<field>` or
# `run.<field>`); the grammar reads a key's value by its field's annotation.
_KEYS = dict(_keys())


def _hint(path: tuple[str, ...]) -> object:
    hint: object = ExperimentSpec
    for step in path:
        hint = _hints(hint)[step]
    return hint


def _parse(hint: object, raw: str) -> object:
    """Read `raw` as a value of the annotation `hint`: a `tuple[X, ...]` is a
    comma list of X, an enum is the member whose value matches in any case,
    and anything else is `hint(raw)`."""
    if get_args(hint):
        return tuple(_parse(get_args(hint)[0], part.strip()) for part in raw.split(","))
    if issubclass(hint, Enum):
        member = {m.value.lower(): m for m in hint}.get(raw.lower())
        if member is None:
            raise ValueError(f"{raw!r} is not one of {', '.join(m.value for m in hint)}")
        return member
    return hint(raw)


def _fits(value: object, hint: object) -> bool:
    if isinstance(hint, type):
        return isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)
    return isinstance(value, tuple) and all(_fits(v, get_args(hint)[0]) for v in value)


def _check_type(value: object, hint: object, path: tuple[str, ...]) -> None:
    """Refuse `value` unless it fits the annotation `hint` (a float takes an int, a
    bool is never a number), then check each dataclass field in turn.  The error
    names the config key at `path`, else the field path."""
    if not _fits(value, hint) or isinstance(value, float) and not math.isfinite(value):
        name = next((k for k, p in _KEYS.items() if p == path), ".".join(path))
        must = "finite" if _fits(value, hint) else f"of type {hint if get_args(hint) else hint.__name__}"
        raise ConfigError(f"{name} must be {must}, got {value!r}")
    if is_dataclass(hint):
        for step, sub in _hints(hint).items():
            _check_type(getattr(value, step), sub, path + (step,))


# What a run accepts, as (keys, accepts, rule): `accepts` takes the values
# of `keys` in order, and a spec it refuses fails with "<first key> must
# <rule>".  A rule that ties two keys names the second one in `rule`.
_RULES: tuple[tuple[tuple[str, ...], Callable[..., bool], str], ...] = (
    (("scene.width",), lambda x: x > 0, "be > 0"),
    (("scene.height",), lambda x: x > 0, "be > 0"),
    (("scene.object_count",), lambda n: n >= 0, "be >= 0"),
    (("scene.vehicle_count",), lambda n: n >= 2, "be >= 2 (a transmitter and a receiver)"),
    (("scene.vehicle_speed",), lambda x: x >= 0, "be >= 0"),
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
    (("relevance.s_min",), lambda x: x >= 0, "be >= 0"),
    (("estimation.a4",), lambda x: x >= 0, "be >= 0"),
    (("run.schemes",), bool, "name a scheme"),
    (("run.schemes",), lambda s: len(set(s)) == len(s), "not repeat a scheme"),
    (("run.gammas",), lambda g: bool(g) and min(g) >= 1, "be nonempty, each >= 1"),
    (("run.gammas",), lambda g: len(set(g)) == len(g), "not repeat a budget"),
    (("run.replications",), lambda n: n >= 1, "be >= 1"),
    # Two communication cycles: the first one is warm-up.
    (("run.slots", "scene.vehicle_count"), lambda slots, n: slots >= 2 * n,
     "be >= 2 * scene.vehicle_count"),
    (("run.seed",), lambda n: 0 <= n < 2**64, "be an unsigned 64-bit integer"),
)


def _get(obj: object, path: tuple[str, ...]) -> object:
    for step in path:
        obj = getattr(obj, step)
    return obj


def _set(obj: object, values: dict[tuple[str, ...], object]) -> object:
    """A copy of `obj` with each path in `values` set, copying each part once."""
    new: dict[str, object] = {}
    for step in dict.fromkeys(path[0] for path in values):
        sub = {path[1:]: value for path, value in values.items() if path[0] == step}
        new[step] = sub[()] if () in sub else _set(getattr(obj, step), sub)
    return replace(obj, **new)


def with_value(spec: ExperimentSpec, key: str, value: object) -> ExperimentSpec:
    """A copy of `spec` with configuration key `key` set to the parsed `value`."""
    return _set(spec, {_KEYS[key]: value})


def parse_config(text: str) -> ExperimentSpec:
    """Parse the config document; every key it does not mention keeps its
    experiment default. One leading byte-order mark is not part of the text."""
    values: dict[tuple[str, ...], object] = {}
    for lineno, raw_line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        path = _KEYS[key]
        if path in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[path] = _parse(_hint(path), raw_value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    spec = _set(ExperimentSpec(), values)
    spec.validate()
    return spec


def _show(value: object) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    return str(value)


def resolved_config_lines(spec: ExperimentSpec, configured: ExperimentSpec | None = None) -> list[str]:
    """Full parameter listing, one `key = value  # origin` per line.

    The origin names the last step that changed the value: `override` where
    `spec` differs from `configured` (the spec before command-line overrides),
    `config` where `configured` differs from `ExperimentSpec()` (a preset or
    config file moved it), and `default` otherwise.
    """
    configured = spec if configured is None else configured
    default = ExperimentSpec()
    out = []
    for key, path in _KEYS.items():
        value = _get(spec, path)
        if value != _get(configured, path):
            origin = "override"
        elif value != _get(default, path):
            origin = "config"
        else:
            origin = "default"
        out.append(f"{key} = {_show(value)}  # {origin}")
    return out
