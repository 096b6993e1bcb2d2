"""Experiment harness: presets, seed derivation, sweeps, CSV, config grammar."""
import dataclasses

import numpy as np
import pytest

from relevance_sim import (
    ConfigError,
    Mode,
    SchemeKind,
    SweepRow,
    emit_csv,
    parse_config,
    preset,
    run_sweep,
)
from relevance_sim.harness import (
    DEFAULT_GAMMAS,
    derive_rng,
    parse_config_with_provenance,
    render_csv,
    resolved_config_lines,
)


def _tiny_spec(vehicle_count=2, **overrides):
    spec = preset("fig5" if vehicle_count == 2 else "fig8")
    small = dict(schemes=(SchemeKind.RM,), gammas=(5,), replications=2,
                 slots_per_episode=20)
    small.update(overrides)
    return dataclasses.replace(spec, **small)


# --- presets ------------------------------------------------------------------

def test_preset_topologies():
    for name in ("fig5", "fig6", "fig7"):
        spec = preset(name)
        assert spec.mode is Mode.UNICAST
        assert spec.scene.vehicle_count == 2
    for name in ("fig8", "fig9", "fig10"):
        spec = preset(name)
        assert spec.mode is Mode.BROADCAST
        assert spec.scene.vehicle_count == 4
    with pytest.raises(ConfigError):
        preset("fig11")


def test_preset_parameters_are_frozen():
    # Full pin of the default parameter set; any drift is a deliberate act.
    spec = preset("fig5")
    expected = {
        "scene.width": "800.0", "scene.height": "200.0",
        "scene.object_count": "110", "scene.vehicle_count": "2",
        "scene.mobility_mode": "static", "scene.vehicle_speed": "14.0",
        "scene.slot_duration": "0.1",
        "scene.detection_a1": "0.08", "scene.detection_a2": "-0.08",
        "scene.detection_a3": "60.0",
        "relevance.delta_L": "0.7", "relevance.high_min": "0.5",
        "relevance.high_max": "1.0", "relevance.p": "0.5",
        "relevance.rho_near": "0.9", "relevance.d_near": "100.0",
        "relevance.d_far": "400.0", "relevance.s_min": "0.05",
        "estimation.a4": "1.0", "estimation.a5": "-0.5", "estimation.a6": "26.0",
        "estimation.value_range_width": "1.0",
        "run.schemes": "Baseline,IRC,RM,Semantic,IdealSemantic",
        "run.gammas": ",".join(str(g) for g in range(1, 26)),
        "run.replications": "200", "run.slots": "400", "run.seed": "12345",
        "run.sv_aggregation": "max",
    }
    got = {}
    for line in resolved_config_lines(spec):
        key, rest = line.split(" = ", 1)
        got[key] = rest.split("  #", 1)[0]
    assert got == expected
    assert preset("fig7").relevance.s_min == 0.05
    assert preset("fig10").scene.vehicle_count == 4


# --- seed derivation ------------------------------------------------------------

def test_derived_streams_are_repeatable():
    a = derive_rng(12345, SchemeKind.RM, 7, 3).random(4)
    b = derive_rng(12345, SchemeKind.RM, 7, 3).random(4)
    assert (a == b).all()


def test_no_stream_collisions_over_full_grid():
    # One draw per derived stream across the whole default sweep grid; any
    # repeat would mean two episodes share a stream.
    seen = set()
    for scheme in SchemeKind:
        for gamma in DEFAULT_GAMMAS:
            for rep in range(0, 200, 7):  # stride keeps this quick, spans the grid
                seen.add(int(derive_rng(12345, scheme, gamma, rep).integers(2**63)))
    expected = len(list(SchemeKind)) * len(DEFAULT_GAMMAS) * len(range(0, 200, 7))
    assert len(seen) == expected


# --- sweeps ---------------------------------------------------------------------

def test_single_cell_sweep_yields_one_row(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    rows = run_sweep(_tiny_spec(replications=1))
    assert len(rows) == 1
    row = rows[0]
    assert (row.mode, row.scheme, row.gamma) == (Mode.UNICAST, SchemeKind.RM, 5)
    assert row.replications == 1
    # A single replication cannot support a confidence interval.
    assert row.hrr_ci is None and row.se_ci is None
    assert row.hrr is not None and row.usage is not None


def test_sweep_rows_sorted_and_deterministic(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    spec = _tiny_spec(schemes=(SchemeKind.SEMANTIC, SchemeKind.BASELINE),
                      gammas=(9, 2))
    rows = run_sweep(spec)
    order = [(r.scheme, r.gamma) for r in rows]
    assert order == [(SchemeKind.BASELINE, 2), (SchemeKind.BASELINE, 9),
                     (SchemeKind.SEMANTIC, 2), (SchemeKind.SEMANTIC, 9)]
    assert render_csv(run_sweep(spec)) == render_csv(rows)


def test_worker_count_env_validation(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "not-a-number")
    with pytest.raises(ConfigError):
        run_sweep(_tiny_spec(replications=1))


def test_monte_carlo_consistency(monkeypatch):
    # Quadrupling the replication count must not move the means outside the
    # combined confidence intervals.
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    small = run_sweep(_tiny_spec(gammas=(10,), replications=100,
                                 slots_per_episode=200))[0]
    big = run_sweep(_tiny_spec(gammas=(10,), replications=400,
                               slots_per_episode=200))[0]
    for metric in ("hrr", "se", "usage", "lrr"):
        gap = abs(getattr(small, metric) - getattr(big, metric))
        allowance = getattr(small, metric + "_ci") + getattr(big, metric + "_ci")
        assert gap <= allowance, f"{metric}: {gap} > {allowance}"


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        _tiny_spec(gammas=()).validate()
    with pytest.raises(ConfigError):
        _tiny_spec(gammas=(0,)).validate()
    with pytest.raises(ConfigError):
        _tiny_spec(replications=0).validate()
    with pytest.raises(ConfigError):
        _tiny_spec(slots_per_episode=3).validate()
    with pytest.raises(ConfigError):
        _tiny_spec(master_seed=2**64).validate()
    with pytest.raises(ConfigError):
        _tiny_spec(sv_aggregation="median").validate()
    with pytest.raises(ConfigError):
        _tiny_spec(mode=Mode.BROADCAST).validate()  # 2 vehicles can't broadcast


# --- CSV ------------------------------------------------------------------------

def _row(**overrides):
    base = dict(mode=Mode.UNICAST, scheme=SchemeKind.BASELINE, gamma=1,
                replications=2, hrr=0.5, hrr_ci=0.01, mean_sv=1.25, mean_sv_ci=0.02,
                lrr=0.1, lrr_ci=0.005, usage=0.9, usage_ci=0.01, se=0.4, se_ci=0.01,
                mean_eps=None, tx_multiplicity=3.5)
    base.update(overrides)
    return SweepRow(**base)


def test_csv_layout_and_empty_cells():
    text = render_csv([_row()])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == ("mode,scheme,gamma,replications,hrr,hrr_ci,mean_sv,mean_sv_ci,"
                        "lrr,lrr_ci,usage,usage_ci,se,se_ci,mean_eps,tx_multiplicity")
    assert lines[1].startswith("unicast,Baseline,1,2,0.5,")
    # Absent metrics serialize as empty cells, never zeros.
    assert ",," in lines[1]
    assert text.endswith("\n")


def test_csv_six_significant_digits():
    text = render_csv([_row(hrr=0.123456789, se=1234567.89)])
    assert "0.123457" in text
    assert "1.23457e+06" in text


def test_csv_byte_determinism(tmp_path):
    rows = [_row(), _row(gamma=2)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, str(p1))
    emit_csv(rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(ValueError):
        emit_csv([], str(tmp_path / "empty.csv"))


# --- configuration grammar --------------------------------------------------------

def test_empty_config_is_the_default_unicast_spec():
    spec = parse_config("")
    assert spec == preset("fig5")


def test_config_overrides_and_provenance():
    text = """
    # topology
    scene.vehicle_count = 4

    run.gammas = 1..6
    run.replications = 50   # quick look
    relevance.delta_L = 0.6
    """
    spec, raw = parse_config_with_provenance(text)
    assert spec.mode is Mode.BROADCAST
    assert spec.scene.vehicle_count == 4
    assert spec.gammas == (1, 2, 3, 4, 5, 6)
    assert spec.replications == 50
    assert spec.relevance.delta_L == 0.6
    assert set(raw) == {"scene.vehicle_count", "run.gammas",
                        "run.replications", "relevance.delta_L"}
    lines = resolved_config_lines(spec, raw)
    assert "scene.vehicle_count = 4  # config" in lines
    assert "scene.width = 800.0  # default" in lines


def test_config_gamma_list_and_scheme_names():
    spec = parse_config("run.gammas = 3,5,9\nrun.schemes = semantic, baseline\n")
    assert spec.gammas == (3, 5, 9)
    assert spec.schemes == (SchemeKind.SEMANTIC, SchemeKind.BASELINE)


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("\nwhat is this\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("scene.depth = 4\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("run.seed = 1\n\nrun.seed = 2\n")
    with pytest.raises(ConfigError, match="line 1.*bad value"):
        parse_config("run.replications = many\n")


def test_config_range_validation():
    with pytest.raises(ConfigError):
        parse_config("relevance.delta_L = 1.4\n")
    with pytest.raises(ConfigError):
        parse_config("scene.vehicle_count = 1\n")
    with pytest.raises(ConfigError):
        parse_config("run.schemes = Baseline, Turbo\n")


@pytest.mark.parametrize("key, value", [
    ("scene.width", "nan"),
    ("scene.height", "inf"),
    ("relevance.s_min", "nan"),
    ("estimation.value_range_width", "nan"),
    ("run.gammas", "5,5"),
    ("run.schemes", "RM,rm"),
])
def test_non_finite_and_duplicate_values_rejected(key, value):
    # Caught before any episode runs, with the offending key in the message.
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(f"{key} = {value}\n")
