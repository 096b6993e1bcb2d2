"""Tests of the benchmark itself: every workload end to end at a tiny scale,
and every output check against a deliberately corrupted row set.

    python3 -m pytest bench -q
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import BROADCAST, SCHEMES, TRACED, WORKLOADS, Workload

sys.path.insert(0, run.SRC)
from relevance_sim import harness, parse_config, run_sweep  # noqa: E402

SEED = 7


def tiny(w: Workload) -> Workload:
    return dataclasses.replace(w, gammas=(1, 2, 3, 4), replications=3, slots=max(16, 2 * w.vehicles + 4))


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_scale(name, workdir):
    result = run.measure(tiny(WORKLOADS[name]), SEED, 0.0, workdir)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SCHEMES) * 4 * result["rounds"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(workdir):
    result = run.trace_report(SEED, workdir, {n: tiny(w) for n, w in TRACED.items()})
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in result["metrics"].values()]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "unicast-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- output checks against corrupted rows -----------------------------------

def sweep_csv(w: Workload) -> tuple[str, dict]:
    params = w.params(SEED)
    return harness.render_csv(run_sweep(parse_config(w.document(SEED)))), params


@pytest.fixture(scope="module")
def unicast():
    # Enough slots that one row's low-relevance rate is tight.
    return sweep_csv(Workload("u", vehicles=2, gammas=(1, 2, 3, 4), replications=3, slots=100))


@pytest.fixture(scope="module")
def broadcast():
    return sweep_csv(tiny(BROADCAST))


def edit(text: str, scheme: str, gamma: int, **values) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[1:3] == [scheme, str(gamma)]:
            for key, value in values.items():
                fields[header.index(key)] = value
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def field(text: str, scheme: str, gamma: int, key: str) -> str:
    header = text.splitlines()[0].split(",")
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if fields[1:3] == [scheme, str(gamma)]:
            return fields[header.index(key)]
    raise KeyError((scheme, gamma))


def test_clean_rows_pass(unicast, broadcast):
    assert checks.check_results(*unicast) == []
    assert checks.check_results(*broadcast) == []


CORRUPTIONS = {
    "ideal lrr 0.1": lambda t: edit(t, "IdealSemantic", 2, lrr="0.1"),
    "hrr above 1": lambda t: edit(t, "RM", 3, hrr="1.2"),
    "negative usage": lambda t: edit(t, "Baseline", 1, usage="-0.1"),
    "se above high_max": lambda t: edit(t, "IRC", 4, se="1.5"),
    "mean_sv above gamma * se": lambda t: edit(t, "Semantic", 1, mean_sv="5"),
    "mean_eps on Baseline": lambda t: edit(t, "Baseline", 2, mean_eps="0.3"),
    "mean_eps missing on Semantic": lambda t: edit(t, "Semantic", 3, mean_eps=""),
    "mean_eps of 1 on Semantic": lambda t: edit(t, "Semantic", 3, mean_eps="1"),
    "tx_multiplicity below 1": lambda t: edit(t, "RM", 1, tx_multiplicity="0.9"),
    "wrong replications": lambda t: edit(t, "IRC", 2, replications="2"),
    "ideal se below s_min": lambda t: edit(t, "IdealSemantic", 4, se="0.04"),
    "empty lrr": lambda t: edit(t, "RM", 2, lrr=""),
    "missing cell": lambda t: "".join(l for l in t.splitlines(True) if ",Semantic,3," not in l),
    "duplicate row": lambda t: t + t.splitlines(True)[1],
    "unsorted rows": lambda t: "".join([t.splitlines(True)[0], t.splitlines(True)[2],
                                        t.splitlines(True)[1], *t.splitlines(True)[3:]]),
    "renamed column": lambda t: t.replace("lrr_ci", "lrr_hw", 1),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_each_check_fails_on_corrupted_rows(name, unicast, broadcast):
    for text, params in (unicast, broadcast):
        assert checks.check_results(CORRUPTIONS[name](text), params), name


def test_swapped_lrr_fails(unicast, broadcast):
    text, params = unicast
    base, sem = field(text, "Baseline", 2, "lrr"), field(text, "Semantic", 2, "lrr")
    swapped = edit(edit(text, "Baseline", 2, lrr=sem), "Semantic", 2, lrr=base)
    assert ("Baseline", 2) in {p.cell for p in checks.check_results(swapped, params)}
    text, params = broadcast
    base = field(text, "RM", 4, "lrr")
    swapped = edit(edit(text, "RM", 4, lrr="0"), "IdealSemantic", 4, lrr=base)
    assert {("RM", 4), ("IdealSemantic", 4)} <= {p.cell for p in checks.check_results(swapped, params)}


def test_agnostic_lrr_off_the_class_model_fails(unicast, broadcast):
    for text, params in (unicast, broadcast):
        shifted = text
        for g in (1, 2, 3, 4):
            lrr = float(field(text, "IRC", g, "lrr"))
            shifted = edit(shifted, "IRC", g, lrr=format(lrr - 0.3, ".6g"))
        problems = checks.check_results(shifted, params)
        assert any((p.cell or ("",))[0] == "IRC" or p.message.startswith("IRC") for p in problems)


def test_class_model_matches_delta_L_for_unicast():
    lo, hi = checks.low_share_interval(2, 800.0, 200.0, 0.7, 0.5, 0.9, 100.0, 400.0, (0.08, -0.08, 60.0))
    assert lo == pytest.approx(0.7) and hi == pytest.approx(0.7)


# --- checks of the traced run -----------------------------------------------

@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    w = tiny(WORKLOADS["unicast-sweep"])
    workdir = str(tmp_path_factory.mktemp("trace"))
    return w, run.run_round(w, SEED, "plain", workdir), run.run_round(w, SEED, "trace", workdir)


def test_traced_round_checks_pass(traced_pair):
    assert run.trace_problems(*traced_pair) == []


def test_traced_round_checks_fail_on_corruption(traced_pair):
    w, plain, traced = traced_pair
    other = dict(traced, csv=traced["csv"].replace("Baseline", "Baseline ", 1))
    assert any("different" in p for p in run.trace_problems(w, plain, other))
    rec = dict(traced["recorded"], hits=traced["recorded"]["hits"] + 10 * traced["recorded"]["draws"])
    assert any("hits" in p for p in run.trace_problems(w, plain, dict(traced, recorded=rec)))
    usage = dict(traced["recorded"]["baseline_usage"], **{"4": "0.5"})
    rec = dict(traced["recorded"], baseline_usage=usage)
    assert any("usage" in p for p in run.trace_problems(w, plain, dict(traced, recorded=rec)))
