"""Experiment harness: presets, seed derivation, sweeps, CSV, config grammar."""
import dataclasses
import functools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from relevance_sim import (
    ConfigError,
    MetricsAccumulator,
    SchemeKind,
    SweepRow,
    emit_csv,
    harness,
    parse_config,
    preset,
    run_sweep,
)
from relevance_sim.engine import EpisodeConfig, run_episode_accumulator
from relevance_sim.harness import (
    DEFAULT_GAMMAS,
    derive_rng,
    render_csv,
    resolved_config_lines,
    with_value,
)
from relevance_sim.metrics import Aggregation
from relevance_sim.scenario import MobilityMode


def _tiny_spec(vehicle_count=2, **overrides):
    spec = preset("fig5" if vehicle_count == 2 else "fig8")
    small = dict(schemes=(SchemeKind.RM,), gammas=(5,), replications=2, slots=20)
    small.update(overrides)
    return dataclasses.replace(spec, **small)


# --- presets ------------------------------------------------------------------

def test_preset_topologies():
    for name in ("fig5", "fig6", "fig7"):
        spec = preset(name)
        assert spec.mode == "unicast"
        assert spec.scene.vehicle_count == 2
    for name in ("fig8", "fig9", "fig10"):
        spec = preset(name)
        assert spec.mode == "broadcast"
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
        "scene.detection_a1": "0.08", "scene.detection_a2": "-0.08",
        "scene.detection_a3": "60.0",
        "relevance.delta_L": "0.7", "relevance.high_min": "0.5",
        "relevance.high_max": "1.0", "relevance.p": "0.5",
        "relevance.rho_near": "0.9", "relevance.d_near": "100.0",
        "relevance.d_far": "400.0", "relevance.s_min": "0.05",
        "estimation.a4": "1.0", "estimation.a5": "-0.5", "estimation.a6": "26.0",
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


def test_stream_key_is_the_schemes_position_in_the_enum():
    # Seed contract 1 keys each episode's stream on [seed, i, gamma, rep], with
    # i the scheme's position in `SchemeKind`; the order is pinned here, so a
    # reordered enum fails this test and not only the golden bytes.
    order = ["Baseline", "IRC", "RM", "Semantic", "IdealSemantic"]
    assert [kind.value for kind in SchemeKind] == order
    for i, value in enumerate(order):
        for seed, gamma, rep in ((12345, 1, 0), (7, 25, 199)):
            got = derive_rng(seed, SchemeKind(value), gamma, rep).random(3)
            want = np.random.default_rng(np.random.SeedSequence([seed, i, gamma, rep])).random(3)
            assert (got == want).all(), value


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
    assert (row.mode, row.scheme, row.gamma) == ("unicast", SchemeKind.RM, 5)
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


def test_each_episode_gets_its_cell_record(monkeypatch):
    # One worker, so every episode runs in this process through the module global.
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    spec = _tiny_spec(schemes=(SchemeKind.BASELINE, SchemeKind.SEMANTIC), gammas=(2, 7),
                      replications=3)
    configs = []
    inner = harness.run_episode_accumulator

    def recording(config, rng):
        configs.append(config)
        return inner(config, rng)

    monkeypatch.setattr(harness, "run_episode_accumulator", recording)
    run_sweep(spec)
    assert all(type(c) is EpisodeConfig and c.spec is spec for c in configs)
    assert Counter((c.scheme, c.gamma) for c in configs) == {
        (s, g): spec.replications for s in spec.schemes for g in spec.gammas
    }


def test_parallel_sweep_reports_each_cell_and_matches_serial(monkeypatch):
    spec = _tiny_spec(schemes=(SchemeKind.IRC, SchemeKind.IDEAL_SEMANTIC), gammas=(1, 4, 9))
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    serial = render_csv(run_sweep(spec))
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "2")
    lines = []
    rows = run_sweep(spec, progress=lines.append)
    assert render_csv(rows) == serial
    # "<scheme> gamma=<g> done (<i>/<n>, ETA <time>)", counted in finishing order.
    parsed = [re.fullmatch(r"(.+) done \((\d+)/6, ETA (\d+m\d\ds|\d+s)\)", line)
              for line in lines]
    assert all(parsed), lines
    assert sorted(m[1] for m in parsed) == sorted(
        f"{s.value} gamma={g}" for s in spec.schemes for g in spec.gammas
    )
    assert [int(m[2]) for m in parsed] == list(range(1, 7))


def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("RELEVANCE_SIM_THREADS", raising=False)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert harness._worker_count() == 1
    # RELEVANCE_SIM_THREADS caps the count and never raises it above the CPUs
    # the process may run on (no pool is started here).
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "8")
    assert harness._worker_count() == 1
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert harness._worker_count() == 1


def test_worker_count_env_validation(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "not-a-number")
    with pytest.raises(ConfigError):
        run_sweep(_tiny_spec(replications=1))


def test_monte_carlo_consistency(monkeypatch):
    # Quadrupling the replication count must not move the means outside the
    # combined confidence intervals.
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    small = run_sweep(_tiny_spec(gammas=(10,), replications=100, slots=200))[0]
    big = run_sweep(_tiny_spec(gammas=(10,), replications=400, slots=200))[0]
    for metric in ("hrr", "se", "usage", "lrr"):
        gap = abs(getattr(small, metric) - getattr(big, metric))
        allowance = getattr(small, metric + "_ci") + getattr(big, metric + "_ci")
        assert gap <= allowance, f"{metric}: {gap} > {allowance}"


def test_a_cell_row_reduces_its_episodes_by_rule(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    spec = _tiny_spec(schemes=(SchemeKind.SEMANTIC,), replications=4, slots=30)
    [row] = run_sweep(spec)
    config = EpisodeConfig(spec, SchemeKind.SEMANTIC, 5)
    accs = [run_episode_accumulator(config, derive_rng(spec.seed, SchemeKind.SEMANTIC, 5, rep))
            for rep in range(spec.replications)]
    per_rep = [acc.finalize() for acc in accs]
    pooled = functools.reduce(MetricsAccumulator.merge, accs).finalize()
    # Every metric column but the multiplicity is the merged episodes' value.
    for metric, value in pooled.items():
        if metric != "tx_multiplicity":
            assert getattr(row, metric) == value, metric
    # Each `<metric>_ci` is 1.96 s / sqrt(n) over the per-episode values,
    # with n - 1 in s.
    for column in (f.name for f in dataclasses.fields(SweepRow) if f.name.endswith("_ci")):
        values = np.array([r[column[:-3]] for r in per_rep], dtype=float)
        want = 1.96 * values.std(ddof=1) / np.sqrt(len(values))
        assert getattr(row, column) == pytest.approx(want, rel=1e-12), column
    # The multiplicity is the mean of the per-episode values, which differs
    # from the pooled union of ids across scenes.
    mult = [r["tx_multiplicity"] for r in per_rep]
    assert row.tx_multiplicity == pytest.approx(np.mean(mult), rel=1e-12)
    assert row.tx_multiplicity != pytest.approx(pooled["tx_multiplicity"], rel=1e-3)


# One row per range rule of `ExperimentSpec.validate`: the keys its message
# names, a rejected setting, and an accepted setting on the boundary.
RANGE_RULES = [
    (("scene.width",), {"scene.width": 0.0}, {"scene.width": 1e-9}),
    (("scene.height",), {"scene.height": 0.0}, {"scene.height": 1e-9}),
    (("scene.object_count",), {"scene.object_count": -1}, {"scene.object_count": 0}),
    (("scene.vehicle_count",), {"scene.vehicle_count": 1}, {"scene.vehicle_count": 2}),
    (("scene.vehicle_speed",), {"scene.vehicle_speed": -1e-9}, {"scene.vehicle_speed": 0.0}),
    (("scene.detection_a1",), {"scene.detection_a1": -1.0}, {"scene.detection_a1": 0.0}),
    (("relevance.delta_L",), {"relevance.delta_L": 1.4}, {"relevance.delta_L": 1.0}),
    (("relevance.delta_L",), {"relevance.delta_L": -0.1}, {"relevance.delta_L": 0.0}),
    (("relevance.high_min",), {"relevance.high_min": 0.0}, {"relevance.high_min": 1e-9}),
    (("relevance.high_max",), {"relevance.high_max": 1.2}, {"relevance.high_max": 1.0}),
    (("relevance.high_min", "relevance.high_max"),
     {"relevance.high_min": 0.8, "relevance.high_max": 0.7},
     {"relevance.high_min": 0.7, "relevance.high_max": 0.7}),
    (("relevance.p",), {"relevance.p": 1.01}, {"relevance.p": 1.0}),
    (("relevance.p",), {"relevance.p": -0.01}, {"relevance.p": 0.0}),
    (("relevance.rho_near",), {"relevance.rho_near": -0.1}, {"relevance.rho_near": 0.0}),
    (("relevance.rho_near",), {"relevance.rho_near": 1.1}, {"relevance.rho_near": 1.0}),
    (("relevance.d_near",), {"relevance.d_near": 0.0}, {"relevance.d_near": 1e-9}),
    (("relevance.d_near", "relevance.d_far"),
     {"relevance.d_near": 400.0, "relevance.d_far": 100.0},
     {"relevance.d_near": 400.0, "relevance.d_far": 400.5}),
    (("relevance.d_near", "relevance.d_far"),
     {"relevance.d_near": 400.0, "relevance.d_far": 400.0},
     {"relevance.d_near": 399.5, "relevance.d_far": 400.0}),
    (("relevance.s_min",), {"relevance.s_min": -0.5}, {"relevance.s_min": 0.0}),
    (("estimation.a4",), {"estimation.a4": -1.0}, {"estimation.a4": 0.0}),
    (("run.gammas",), {"run.gammas": (0, 3)}, {"run.gammas": (1, 3)}),
    # The config grammar cannot write an empty list, but the API can.
    (("run.gammas",), {"run.gammas": ()}, {"run.gammas": (1,)}),
    (("run.schemes",), {"run.schemes": ()}, {"run.schemes": (SchemeKind.BASELINE,)}),
    (("run.replications",), {"run.replications": 0}, {"run.replications": 1}),
    (("run.slots", "scene.vehicle_count"), {"run.slots": 3}, {"run.slots": 4}),
    (("run.slots", "scene.vehicle_count"),
     {"scene.vehicle_count": 4, "run.slots": 7}, {"scene.vehicle_count": 4, "run.slots": 8}),
    (("run.seed",), {"run.seed": 2**64}, {"run.seed": 2**64 - 1}),
    (("run.seed",), {"run.seed": -1}, {"run.seed": 0}),
]


def _spec_with(settings):
    spec = preset("fig5")
    for key, value in settings.items():
        spec = with_value(spec, key, value)
    return spec


@pytest.mark.parametrize(
    "keys, rejected, accepted", RANGE_RULES,
    ids=[",".join(f"{k}={v}" for k, v in r.items()) for _, r, _ in RANGE_RULES],
)
def test_each_range_rule_names_its_keys(keys, rejected, accepted):
    with pytest.raises(ConfigError) as info:
        _spec_with(rejected).validate()
    message = str(info.value)
    assert message.startswith(f"{keys[0]} must"), message
    assert all(key in message for key in keys), message
    _spec_with(accepted).validate()


# Values of a type the key's parser could not return, set through
# `dataclasses.replace`; each ran into an episode, or into a bare Python error,
# before `validate` checked types.
WRONG_TYPES = [
    ("run.gammas", (1.5,)),
    ("run.gammas", (True,)),
    ("run.gammas", 5),
    ("run.slots", 8.0),
    ("run.seed", 1.5),
    ("run.replications", 2.0),
    ("run.schemes", ("Baseline",)),
    ("scene.object_count", 10.0),
    ("scene.vehicle_count", 3.0),
    ("scene.mobility_mode", "static"),
    ("run.sv_aggregation", "mean"),
    ("scene.vehicle_speed", "14"),
    ("scene.width", True),
]


@pytest.fixture
def no_episode(monkeypatch):
    def episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "run_episode_accumulator", episode)
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")


@pytest.mark.parametrize("key, value", WRONG_TYPES,
                         ids=[f"{key}={value!r}" for key, value in WRONG_TYPES])
def test_a_value_of_the_wrong_type_is_refused_naming_its_key(key, value, no_episode):
    spec = with_value(_tiny_spec(), key, value)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        run_sweep(spec)


def _replace_in(spec, section, **changes):
    return dataclasses.replace(spec, **{section: dataclasses.replace(getattr(spec, section), **changes)})


# Malformed fields, which only the Python API can build: a section that is not
# one, or a number field holding a container, a string or None.
MALFORMED = [
    ("scene.detection_a1", _replace_in(preset("fig5"), "scene", detection_a1=(0.08, -0.08))),
    ("scene.detection_a3", _replace_in(preset("fig5"), "scene", detection_a3=None)),
    ("relevance.high_min", _replace_in(preset("fig5"), "relevance", high_min="0.5")),
    ("scene", dataclasses.replace(preset("fig5"), scene=None)),
    ("estimation.a4", _replace_in(preset("fig5"), "estimation", a4=[1.0, -0.5, 26.0])),
]


@pytest.mark.parametrize("field, spec", MALFORMED, ids=[
    "two detection coefficients", "detection_a3 None", "high_min a string",
    "scene None", "estimation coeffs a list"])
def test_a_malformed_field_is_refused_naming_its_path(field, spec, no_episode):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be "):
        run_sweep(spec)


def test_an_int_is_accepted_where_a_float_is_parsed():
    with_value(preset("fig5"), "scene.vehicle_speed", 14).validate()


# --- CSV ------------------------------------------------------------------------

def _row(**overrides):
    base = dict(mode="unicast", scheme=SchemeKind.BASELINE, gamma=1,
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


def test_a_leading_byte_order_mark_is_not_part_of_the_config():
    assert parse_config("\ufeffrun.seed = 1\n") == parse_config("run.seed = 1\n")
    # Only one, and only at the start: anywhere else it is part of a key.
    for text in ("\ufeff\ufeffrun.seed = 1\n", "run.slots = 20\n\ufeffrun.seed = 1\n"):
        with pytest.raises(ConfigError, match=re.escape(r"unknown key '\ufeffrun.seed'")):
            parse_config(text)


def test_config_overrides_and_provenance():
    text = """
    # topology
    scene.vehicle_count = 4

    run.gammas = 1,2,3,4,5,6
    run.replications = 50   # quick look
    relevance.delta_L = 0.6
    """
    spec = parse_config(text)
    assert spec.mode == "broadcast"
    assert spec.scene.vehicle_count == 4
    assert spec.gammas == (1, 2, 3, 4, 5, 6)
    assert spec.replications == 50
    assert spec.relevance.delta_L == 0.6
    lines = resolved_config_lines(spec)
    assert "scene.vehicle_count = 4  # config" in lines
    assert "scene.width = 800.0  # default" in lines


def test_a_preset_that_moves_a_value_flags_it_config():
    lines = resolved_config_lines(preset("fig8"))
    assert "scene.vehicle_count = 4  # config" in lines
    assert "scene.width = 800.0  # default" in lines
    assert all(line.endswith("  # default") for line in resolved_config_lines(preset("fig5")))


def test_an_override_equal_to_the_configured_value_is_not_an_override():
    configured = parse_config("run.seed = 7\n")
    spec = with_value(configured, "run.seed", 7)
    assert "run.seed = 7  # config" in resolved_config_lines(spec, configured)


def test_an_override_that_restores_a_default_is_an_override():
    configured = parse_config("run.replications = 50\nrun.seed = 7\n")
    spec = with_value(configured, "run.replications", 200)
    lines = resolved_config_lines(spec, configured)
    assert "run.replications = 200  # override" in lines
    assert "run.seed = 7  # config" in lines
    assert "run.slots = 400  # default" in lines


# Every key set to a value unlike its default and unlike every other key's,
# written the way `resolved_config_lines` echoes it.
ALL_KEYS = """\
scene.width = 900.5
scene.height = 250.25
scene.object_count = 60
scene.vehicle_count = 3
scene.mobility_mode = constant_velocity
scene.vehicle_speed = 20.5
scene.detection_a1 = 0.09
scene.detection_a2 = -0.07
scene.detection_a3 = 55.0
relevance.delta_L = 0.6
relevance.high_min = 0.4
relevance.high_max = 0.9
relevance.p = 0.3
relevance.rho_near = 0.8
relevance.d_near = 90.0
relevance.d_far = 350.0
relevance.s_min = 0.07
estimation.a4 = 1.5
estimation.a5 = -0.4
estimation.a6 = 20.0
run.schemes = RM,Semantic
run.gammas = 2,3,4
run.replications = 5
run.slots = 24
run.seed = 99
run.sv_aggregation = mean
"""


# Built inside the test, so a grammar that refuses ALL_KEYS fails the test
# rather than the module's collection.
@pytest.mark.parametrize("make", [lambda: preset("fig5"), lambda: preset("fig8"),
                                  lambda: parse_config(ALL_KEYS)], ids=["fig5", "fig8", "all-keys"])
def test_resolved_lines_parse_back_to_the_same_spec(make):
    spec = make()
    assert parse_config("\n".join(resolved_config_lines(spec))) == spec


def test_each_key_reads_the_field_it_writes():
    spec = parse_config(ALL_KEYS)
    echoed = [f"{line}  # config" for line in ALL_KEYS.splitlines()]
    assert resolved_config_lines(spec) == echoed
    scene, relevance, estimation = spec.scene, spec.relevance, spec.estimation
    assert (scene.detection_a1, scene.detection_a2, scene.detection_a3) == (0.09, -0.07, 55.0)
    assert scene.detection_coeffs == (0.09, -0.07, 55.0)
    assert (relevance.high_min, relevance.high_max, relevance.p) == (0.4, 0.9, 0.3)
    assert (estimation.a4, estimation.a5, estimation.a6) == (1.5, -0.4, 20.0)
    assert spec.slots == 24 and spec.seed == 99


def _leaves(spec):
    """Each leaf field of `spec`, by its path spelled as a key: `<section>.<field>`
    for a section's field, `run.<field>` for a top-level one."""
    out = {}
    for top in dataclasses.fields(spec):
        value = getattr(spec, top.name)
        if dataclasses.is_dataclass(value):
            out.update({f"{top.name}.{f.name}": getattr(value, f.name) for f in dataclasses.fields(value)})
        else:
            out[f"run.{top.name}"] = value
    return out


def test_each_leaf_field_is_exactly_one_key():
    # Every leaf is a key, in the order `validate` and run.log list them, and
    # no key is left over; setting a key moves its own leaf and no other.
    spec = parse_config(ALL_KEYS)
    assert list(_leaves(spec)) == list(harness._KEYS)
    default = _leaves(harness.ExperimentSpec())
    for key, value in _leaves(spec).items():
        moved = _leaves(with_value(harness.ExperimentSpec(), key, value))
        assert [k for k in moved if moved[k] != default[k]] == [key]


def test_readme_config_table_spells_out_every_key():
    # The first column of README's `| key | default | meaning |` table.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    named, defaults = [], []
    for row in table.splitlines()[1:]:
        keys = re.findall(r"`(\w+\.\w+)`", row.split("|")[1])
        cell = row.split("|")[2].strip().replace("\u2212", "-")
        named += keys
        defaults += [cell] if len(keys) == 1 else [v.strip() for v in cell.split(",")]
    assert len(named) == len(set(named))
    assert set(named) == set(harness._KEYS)
    # Each default cell, written as a config line, parses to the key's value in
    # ExperimentSpec(); a row of several keys pairs them in order.
    assert len(defaults) == len(named)
    default = _leaves(harness.ExperimentSpec())
    for key, cell in zip(named, defaults):
        assert _leaves(parse_config(f"{key} = {cell}\n"))[key] == default[key], (key, cell)


def test_mode_follows_vehicle_count():
    spec = parse_config("scene.vehicle_count = 3\n")
    assert spec.mode == "broadcast"
    assert dataclasses.replace(spec, scene=preset("fig5").scene).mode == "unicast"
    with pytest.raises(TypeError):
        dataclasses.replace(spec, mode="unicast")


def test_config_gamma_list_and_scheme_names():
    spec = parse_config("run.gammas = 3,5,9\nrun.schemes = semantic, baseline\n")
    assert spec.gammas == (3, 5, 9)
    assert spec.schemes == (SchemeKind.SEMANTIC, SchemeKind.BASELINE)


def test_enum_keys_read_in_any_case():
    spec = parse_config("scene.mobility_mode = CONSTANT_VELOCITY\nrun.schemes = SEMANTIC, rm\n"
                        "run.sv_aggregation = MEAN\n")
    assert spec.scene.mobility_mode is MobilityMode.CONSTANT_VELOCITY
    assert spec.schemes == (SchemeKind.SEMANTIC, SchemeKind.RM)
    assert spec.sv_aggregation is Aggregation.MEAN
    for key, raw, enum in (("scene.mobility_mode", "walk", MobilityMode),
                           ("run.schemes", "Turbo", SchemeKind),
                           ("run.sv_aggregation", "median", Aggregation)):
        with pytest.raises(ConfigError, match=rf"^line 1: bad value for {re.escape(key)}: ") as err:
            parse_config(f"{key} = {raw}\n")
        assert all(member.value in str(err.value) for member in enum), str(err.value)


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("\nwhat is this\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("scene.depth = 4\n")
    # Keys that are gone: one slot is 0.1 s, so scene.vehicle_speed is the one
    # mobility rate, and values lie on [0, 1], so the Semantic noise width is eps.
    for key, raw in (("scene.slot_duration", "0.1"), ("estimation.value_range_width", "1.0")):
        with pytest.raises(ConfigError, match=re.escape(f"line 1: unknown key '{key}'")):
            parse_config(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("run.seed = 1\n\nrun.seed = 2\n")
    with pytest.raises(ConfigError, match="line 1.*bad value"):
        parse_config("run.replications = many\n")
    # A budget list is the comma list it spells out: `lo..hi` is not a range,
    # whatever its size, so nothing is built from it.
    for raw in ("1..6", "1..1000000000000000000", "1..100000000000000000000"):
        with pytest.raises(ConfigError, match="^" + re.escape("line 1: bad value for run.gammas: ")):
            parse_config(f"run.gammas = {raw}\n")


@pytest.mark.parametrize("key, value", [
    ("scene.width", "nan"),
    ("scene.height", "inf"),
    ("relevance.s_min", "nan"),
    ("estimation.a5", "nan"),
    ("run.gammas", "5,5"),
    ("run.schemes", "RM,rm"),
])
def test_non_finite_and_duplicate_values_rejected(key, value):
    # Caught before any episode runs, with the offending key in the message.
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(f"{key} = {value}\n")
