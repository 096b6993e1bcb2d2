"""Seed-reproducible simulator of relevance-aware V2X message selection."""
from . import engine, harness
from .engine import KnowledgeBase
from .harness import (
    ConfigError,
    ExperimentSpec,
    Mode,
    SweepRow,
    emit_csv,
    parse_config,
    preset,
    run_sweep,
)
from .metrics import MetricsAccumulator
from .schemes import SchemeKind

__version__ = "0.1.0"
