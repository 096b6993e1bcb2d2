"""Seed-reproducible simulator of relevance-aware V2X message selection."""
from .engine import (
    EpisodeConfig,
    KnowledgeBase,
    SimState,
    run_episode,
    run_episode_accumulator,
    run_slot,
)
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
from .metrics import MetricsAccumulator, MetricsRecord
from .relevance import (
    RelevanceFunction,
    RelevanceParams,
    build_relevance_functions,
    correlation_coefficient,
)
from .scenario import (
    Fleet,
    MobilityMode,
    ObjectPoint,
    SceneConfig,
    Scenario,
    VehicleKinematics,
    advance_mobility,
    detection_probability,
    place_objects,
    sample_local_set,
    spawn_vehicles,
)
from .schemes import (
    EstimationModel,
    SchemeKind,
    estimate_receiver_known,
    estimation_error,
    exhaustive_best_selection,
    oracle_mismatch_count,
    sample_estimated_value,
    select_baseline,
    select_ideal_semantic,
    select_irc,
    select_rm,
    select_semantic,
)

__version__ = "0.1.0"
