"""Seed-reproducible simulator of relevance-aware V2X message selection."""
# The benchmark's tracer wraps `KnowledgeBase.known_mask`, found under this
# name; the alias goes when the tracer stops patching (ROADMAP item 2).
from .engine import SimState as KnowledgeBase
from .harness import (
    ConfigError,
    ExperimentSpec,
    SweepRow,
    emit_csv,
    parse_config,
    preset,
    run_sweep,
)
from .metrics import MetricsAccumulator
from .schemes import SchemeKind

__version__ = "0.1.0"
