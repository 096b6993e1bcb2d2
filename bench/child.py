"""One round in a fresh interpreter: parse_config -> run_sweep -> emit_csv.

    python3 child.py MODE CONFIG OUTDIR

MODE is `plain` (a measured round), `setup` (stop at the first episode) or
`trace` (a round with every traced call site wrapped). The round writes
OUTDIR/results.csv (not in `setup`) and OUTDIR/round.json. Its timestamps are
`time.perf_counter()` readings, which on Linux come from CLOCK_MONOTONIC and
so compare across processes: the parent subtracts its own spawn time.
"""
import json
import os
import resource
import sys
import time

import relevance_sim
from relevance_sim import harness


class SetupDone(Exception):
    """Raised by the first-episode hook of a `setup` round."""


def hook_first_episode(path: str, stop: bool) -> None:
    """Stamp the time each process starts its first episode (pool workers
    are forked after this runs, so each stamps once). In `setup` rounds every
    episode then stops its cell, so a pool drains its queue at once."""
    inner = harness.run_episode_accumulator
    seen = False

    def hooked(config, rng):
        nonlocal seen
        if not seen:
            seen = True
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{time.perf_counter()!r}\n".encode())
            os.close(fd)
        if stop:
            raise SetupDone
        return inner(config, rng)

    harness.run_episode_accumulator = hooked


def main() -> None:
    mode, config_path, out = sys.argv[1:4]
    src = os.environ["RELEVANCE_SIM_SRC"]
    if os.path.dirname(os.path.dirname(os.path.realpath(relevance_sim.__file__))) != src:
        raise SystemExit(f"relevance_sim imported from {relevance_sim.__file__}, not {src}")
    with open(config_path, encoding="utf-8") as f:
        text = f.read()
    record: dict = {}
    first_path = os.path.join(out, "first_episode")
    if mode == "trace":
        import tracing
        from workloads import read_document

        tracer, recorder = tracing.install(relevance_sim, read_document(text))
    else:
        hook_first_episode(first_path, stop=mode == "setup")

    t0 = time.perf_counter()
    spec = relevance_sim.parse_config(text)
    record["parse_s"] = time.perf_counter() - t0

    if mode == "setup":
        try:
            relevance_sim.run_sweep(spec)
        except RuntimeError:  # the sweep's wrapper around SetupDone
            if not os.path.exists(first_path):
                raise
    else:
        cell_ends: list[float] = []
        record["t_sweep_start"] = time.perf_counter()
        rows = relevance_sim.run_sweep(spec, progress=lambda _msg: cell_ends.append(time.perf_counter()))
        record["t_sweep_end"] = time.perf_counter()
        relevance_sim.emit_csv(rows, os.path.join(out, "results.csv"))
        record["t_csv"] = time.perf_counter()
        record["cell_ends"] = cell_ends
    if mode == "trace":
        record["layers"] = tracer.stats
        record["recorded"] = recorder.summary()
    else:
        with open(first_path, encoding="utf-8") as f:
            record["t_first_episode"] = min(float(line) for line in f)
    # ru_maxrss is in KiB on Linux; pool workers have been joined by now.
    record["rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(os.path.join(out, "round.json"), "w", encoding="utf-8") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
