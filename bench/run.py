"""Benchmark of relevance-sim: end-to-end sweep rounds, or the traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). NAME is a workload from `workloads.py`, or `all` to run every
workload and then the traced run. Each round is a fresh interpreter that
imports the package from `src/` and calls parse_config -> run_sweep ->
emit_csv on the workload's config document, with `run.seed = N`.

With `--trace 0` the run repeats whole rounds until about S seconds have
been measured, checks every round's output, and reports the medians of the
end-to-end metrics. With `--trace 1` it makes one untraced and one traced
round of each traced workload (the end-to-end ones and the broadcast grid)
and one two-worker round of the broadcast grid, checks them, and reports the
per-layer metrics; the report is the same whichever NAME is given.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. An operation is one
(scheme, gamma) cell of a round.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_results, parse_csv
from workloads import TRACED, WORKLOADS, Workload

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.realpath(os.path.join(ROOT, "src"))
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH, "child.py")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "episode_slots_per_s": "1/s", "peak_rss_mib": "MiB"}
# Extra set-up-only launches after each measured round: set-up is short and
# its median needs more samples than there are rounds.
SETUP_PROBES_PER_ROUND = 3
ROUND_TIMEOUT_S = 60
# Standard score for the traced run's hit-count check.
Z_HITS = 6.0
# Cells re-run serially after the two-worker round; chosen per seed.
SUBSET_SCHEMES, SUBSET_GAMMAS = 2, 2


class RoundFailed(Exception):
    pass


def run_round(workload: Workload, seed: int, mode: str, workdir: str) -> dict:
    """Run one child round and return its record, with the parent's spawn
    time in `t_spawn` and the CSV text in `csv`."""
    rdir = tempfile.mkdtemp(dir=workdir)
    try:
        config = os.path.join(rdir, "experiment.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(workload.document(seed))
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": SRC + (os.pathsep + path if path else ""),
            "RELEVANCE_SIM_SRC": SRC,
            "RELEVANCE_SIM_THREADS": str(workload.threads),
        }
        t_spawn = time.perf_counter()
        # A session of its own, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, config, rdir], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except BaseException as e:
            # A timeout or an interrupt: stop the round and its pool workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(e, subprocess.TimeoutExpired):
                raise RoundFailed(f"{workload.name} {mode} round exceeded {ROUND_TIMEOUT_S} s") from e
            raise
        if proc.returncode != 0:
            tail = " | ".join(err.strip().splitlines()[-3:])
            raise RoundFailed(f"{workload.name} {mode} round exited {proc.returncode}: {tail}")
        with open(os.path.join(rdir, "round.json"), encoding="utf-8") as f:
            record = json.load(f)
        record["t_spawn"] = t_spawn
        if mode != "setup":
            with open(os.path.join(rdir, "results.csv"), encoding="utf-8") as f:
                record["csv"] = f.read()
        return record
    finally:
        shutil.rmtree(rdir, ignore_errors=True)


def sweep_seconds(record: dict) -> float:
    return record["t_sweep_end"] - record["t_sweep_start"]


def output_problems(workload: Workload, seed: int, csv_text: str) -> tuple[list[str], set]:
    """Messages of every failed output check, and the cells they fail."""
    problems = check_results(csv_text, workload.params(seed))
    cells = {p.cell for p in problems if p.cell is not None}
    return [f"{workload.name}: {p.cell or 'grid'}: {p.message}" for p in problems], cells


def subset_problems(workload: Workload, seed: int, rows_csv: str, workdir: str) -> list[str]:
    """Re-run a few cells serially and compare their CSV lines with the
    rows of the full (parallel) sweep: results must not depend on the worker
    count or on which subset of cells runs."""
    pick = random.Random(seed)
    schemes = tuple(sorted(pick.sample(workload.schemes, SUBSET_SCHEMES), key=workload.schemes.index))
    gammas = tuple(sorted(pick.sample(workload.gammas, SUBSET_GAMMAS)))
    subset = dataclasses.replace(workload, threads=1, schemes=schemes, gammas=gammas)
    record = run_round(subset, seed, "plain", workdir)
    wanted = {f"{s},{g}," for s, g in subset.cells}
    full = [line for line in rows_csv.splitlines() if line.split(",", 1)[1].startswith(tuple(wanted))]
    part = record["csv"].splitlines()[1:]
    if full != part:
        return [f"{workload.name}: serial re-run of cells {subset.cells} differs from the sweep"]
    return []


def measure(workload: Workload, seed: int, seconds: float, workdir: str) -> dict:
    """Whole rounds until about `seconds` have been measured; medians."""
    run_round(workload, seed, "setup", workdir)  # warm-up: byte-compiles, fills the file cache
    rounds, setups, problems = [], [], []
    failed = started = 0
    elapsed = 0.0
    start = time.perf_counter()
    # Stop when one more round would end further past `seconds` than short of it.
    while started == 0 or elapsed + elapsed / started / 2 < seconds:
        started += 1
        try:
            rounds.append(run_round(workload, seed, "plain", workdir))
        except RoundFailed as e:
            failed += len(workload.cells)
            problems.append(str(e))
        else:
            for _ in range(SETUP_PROBES_PER_ROUND):
                try:
                    setups.append(run_round(workload, seed, "setup", workdir))
                except RoundFailed as e:
                    problems.append(str(e))
        elapsed = time.perf_counter() - start
    attempted = started * len(workload.cells)
    if not rounds:
        raise RoundFailed("; ".join(problems))

    csv_text = rounds[0]["csv"]
    if any(r["csv"] != csv_text for r in rounds):
        problems.append(f"{workload.name}: rounds with the same seed wrote different results.csv bytes")
    found, bad_cells = output_problems(workload, seed, csv_text)
    problems += found
    failed += len(bad_cells) * len(rounds)

    setup_times = [r["t_first_episode"] - r["t_spawn"] for r in rounds + setups]
    metrics = {
        "wall_s": statistics.median(r["t_csv"] - r["t_spawn"] for r in rounds),
        "setup_s": statistics.median(setup_times),
        "episode_slots_per_s": statistics.median(
            workload.episode_slots / sweep_seconds(r) for r in rounds
        ),
        "peak_rss_mib": statistics.median(r["rss_kib"] / 1024 for r in rounds),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "problems": problems,
        "rounds": len(rounds),
    }


# (metric, span name, statistic, scale, unit); statistic is busy or self
# time per call. Where a workload never calls a name, it has no metric.
LAYER_TIMES = (
    ("scenario.place_objects_us", "scenario.place_objects", "busy", 1e6, "us"),
    ("scenario.spawn_vehicles_us", "scenario.spawn_vehicles", "busy", 1e6, "us"),
    ("scenario.advance_mobility_us", "scenario.advance_mobility", "busy", 1e6, "us"),
    ("scenario.detection_vector_us", "scenario.detection_vector", "busy", 1e6, "us"),
    ("scenario.sample_hits_us", "scenario.sample_hits", "busy", 1e6, "us"),
    ("relevance.build_us", "relevance.build", "busy", 1e6, "us"),
    ("engine.slot_us", "engine.slot", "busy", 1e6, "us"),
    ("engine.slot_self_us", "engine.slot", "self", 1e6, "us"),
    ("engine.known_mask_us", "engine.known_mask", "busy", 1e6, "us"),
    ("engine.new_state_us", "engine.new_state", "busy", 1e6, "us"),
    ("engine.episode_self_ms", "engine.episode", "self", 1e3, "ms"),
    ("schemes.estimate_known_us", "schemes.estimate_known", "busy", 1e6, "us"),
    ("schemes.baseline_us", "schemes.baseline", "busy", 1e6, "us"),
    ("schemes.irc_us", "schemes.irc", "busy", 1e6, "us"),
    ("schemes.rm_us", "schemes.rm", "busy", 1e6, "us"),
    ("schemes.semantic_us", "schemes.semantic", "busy", 1e6, "us"),
    ("schemes.ideal_us", "schemes.ideal", "busy", 1e6, "us"),
    ("metrics.record_transmission_us", "metrics.record_transmission", "busy", 1e6, "us"),
    ("metrics.record_awareness_us", "metrics.record_awareness", "busy", 1e6, "us"),
    ("metrics.merge_us", "metrics.merge", "busy", 1e6, "us"),
    ("metrics.finalize_us", "metrics.finalize", "busy", 1e6, "us"),
    ("harness.derive_rng_us", "harness.derive_rng", "busy", 1e6, "us"),
    ("harness.render_csv_ms", "harness.render_csv", "busy", 1e3, "ms"),
)


def layer_metrics(plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    out = {}
    for metric, span, stat, scale, unit in LAYER_TIMES:
        calls, busy, self_time = traced["layers"][span]
        if calls:
            out[metric] = ((busy if stat == "busy" else self_time) / calls * scale, unit)
    rec = traced["recorded"]
    cell_times = [b - a for a, b in zip([plain["t_sweep_start"]] + plain["cell_ends"], plain["cell_ends"])]
    out.update({
        "scenario.local_set_size": (rec["hits"] / rec["draws"], "count"),
        "engine.known_mask_calls": (traced["layers"]["engine.known_mask"][0], "count"),
        "schemes.message_size": (rec["selected_vars"] / rec["selections"], "count"),
        "schemes.empty_messages": (rec["empty_messages"], "count"),
        "harness.parse_config_us": (plain["parse_s"] * 1e6, "us"),
        "harness.cell_s": (statistics.median(cell_times), "s"),
        "trace_overhead_s": (
            (traced["t_csv"] - traced["t_spawn"]) - (plain["t_csv"] - plain["t_spawn"]), "s",
        ),
    })
    return out


def trace_problems(workload: Workload, plain: dict, traced: dict) -> list[str]:
    """Checks that need the traced round's recorded draws."""
    problems = []
    name, rec = workload.name, traced["recorded"]
    if traced["csv"] != plain["csv"]:
        problems.append(f"{name}: traced round wrote different results.csv bytes than the untraced one")
    sd = rec["hits_variance"] ** 0.5
    if abs(rec["hits"] - rec["expected_hits"]) > Z_HITS * sd:
        problems.append(
            f"{name}: {rec['hits']} hits over {rec['draws']} draws; the detection curve "
            f"at the drawn positions expects {rec['expected_hits']:.1f} (sd {sd:.1f})"
        )
    for row in parse_csv(plain["csv"]):
        if row["scheme"] == "Baseline":
            want = rec["baseline_usage"].get(row["gamma"])
            if row["usage"] != want:
                problems.append(
                    f"{name}: Baseline gamma={row['gamma']} usage {row['usage']}, but the recorded "
                    f"local-set sizes give {want}"
                )
    return problems


def trace_report(seed: int, workdir: str, workloads: dict[str, Workload] = TRACED) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    attempted = failed = 0
    plains = {}
    for name, workload in workloads.items():
        attempted += 2 * len(workload.cells)
        try:
            plain = run_round(workload, seed, "plain", workdir)
            traced = run_round(workload, seed, "trace", workdir)
        except RoundFailed as e:
            failed += 2 * len(workload.cells)
            problems.append(str(e))
            continue
        found, bad_cells = output_problems(workload, seed, plain["csv"])
        problems += found + trace_problems(workload, plain, traced)
        failed += 2 * len(bad_cells)
        plains[name] = plain
        metrics.update({f"{name}.{k}": v for k, v in layer_metrics(plain, traced).items()})

    # The broadcast grid on two workers: the pool overhead, and checks that
    # neither the worker count nor the subset of cells run changes a byte.
    parallel = dataclasses.replace(workloads["broadcast-sweep"], name="broadcast-parallel", threads=2)
    attempted += len(parallel.cells)
    try:
        record = run_round(parallel, seed, "plain", workdir)
    except RoundFailed as e:
        failed += len(parallel.cells)
        problems.append(str(e))
    else:
        problems += subset_problems(parallel, seed, record["csv"], workdir)
        serial = plains.get("broadcast-sweep")
        if serial is not None:
            if record["csv"] != serial["csv"]:
                problems.append("broadcast-parallel: two workers wrote different results.csv bytes than one")
            overhead = sweep_seconds(record) - sweep_seconds(serial) / 2
            metrics["harness.parallel_overhead_s"] = (overhead, "s")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }


def show(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  CHECK FAILED {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running round is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "relevance_sim", "__init__.py")):
        print(f"no relevance_sim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.workload == "all":
            results = {name: measure(w, args.seed, args.seconds, workdir) for name, w in WORKLOADS.items()}
            results["trace"] = trace_report(args.seed, workdir)
            for title, r in results.items():
                show(title, r)
            final = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    (f"{title}.{k}" if title != "trace" else k): v
                    for title, r in results.items() for k, v in r["metrics"].items()
                },
            }
        else:
            if args.trace:
                result = trace_report(args.seed, workdir)
            else:
                result = measure(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
            show(args.workload, result)
            final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except RoundFailed as e:
        print(f"no round completed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
