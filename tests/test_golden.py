"""Golden guard: a small fixed experiment must keep its exact CSV bytes.

The experiment covers both topologies, static and constant-velocity
episodes, both value aggregations, all five schemes and budgets 1, 5 and 25.
A refactor that claims "same behaviour" keeps `tests/data/golden.csv`
byte-identical; a change that deliberately alters how random numbers are
drawn regenerates it with

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""
import os
import pathlib

from relevance_sim import parse_config, run_sweep
from relevance_sim.harness import render_csv

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.csv"
# (mobility mode, value aggregation) pairs, each run on 2 and on 4 vehicles.
SETTINGS = (("static", "max"), ("constant_velocity", "mean"))


def golden_text() -> str:
    parts = []
    for mobility, aggregation in SETTINGS:
        for vehicles in (2, 4):
            document = (
                f"scene.vehicle_count = {vehicles}\n"
                f"scene.mobility_mode = {mobility}\n"
                f"run.sv_aggregation = {aggregation}\n"
                "run.gammas = 1,5,25\n"
                "run.replications = 5\n"
                "run.slots = 40\n"
            )
            header = f"# vehicles={vehicles} mobility={mobility} aggregation={aggregation}\n"
            parts.append(header + render_csv(run_sweep(parse_config(document))))
    return "".join(parts)


def test_golden_csv_bytes_unchanged(monkeypatch):
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    assert golden_text().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    os.environ["RELEVANCE_SIM_THREADS"] = "1"
    GOLDEN.write_bytes(golden_text().encode())
