"""Call-site tracing for the traced round.

The program is not edited: each public name is replaced where its caller
looks it up (a module global of the calling module, or a class attribute
for methods), so `engine.run_slot` reaches the wrapped `select_semantic`
and `harness._run_cell` the wrapped `run_episode_accumulator`.

Each call is a span. Spans are folded into per-name totals in memory as
they close: calls, busy time (span durations) and self time (duration minus
the part covered by wrapped child spans). Work done by an observer that
feeds the output checks is left out of the span's busy time and out of its
parent's self time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# (attribute, span name) for the call sites in `engine` and `harness`, and
# (class, method, span name) for methods, which every bound call reaches.
ENGINE_SITES = (
    ("place_objects", "scenario.place_objects"),
    ("spawn_vehicles", "scenario.spawn_vehicles"),
    ("advance_mobility", "scenario.advance_mobility"),
    ("detection_probability_vector", "scenario.detection_vector"),
    ("sample_hits", "scenario.sample_hits"),
    ("build_relevance_functions", "relevance.build"),
    ("new_sim_state", "engine.new_state"),
    ("run_slot", "engine.slot"),
    ("estimate_receiver_known", "schemes.estimate_known"),
    ("select_baseline", "schemes.baseline"),
    ("select_irc", "schemes.irc"),
    ("select_rm", "schemes.rm"),
    ("select_semantic", "schemes.semantic"),
    ("select_ideal_semantic", "schemes.ideal"),
)
HARNESS_SITES = (
    ("derive_rng", "harness.derive_rng"),
    ("render_csv", "harness.render_csv"),
)
METHOD_SITES = (
    ("KnowledgeBase", "known_mask", "engine.known_mask"),
    ("MetricsAccumulator", "record_transmission", "metrics.record_transmission"),
    ("MetricsAccumulator", "record_awareness_snapshot", "metrics.record_awareness"),
    ("MetricsAccumulator", "merge", "metrics.merge"),
    ("MetricsAccumulator", "finalize", "metrics.finalize"),
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self._child = [0.0]  # child time of each open span; [0] is the root

    def wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if observe is not None:
                    observe(result, args)
                return result
            finally:
                end = perf_counter()
                duration = (end if t1 is None else t1) - t0
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child.pop()
                child[-1] += end - t0

        traced.__wrapped__ = fn
        return traced


class Recorder:
    """Per-draw data for the checks of the traced run.

    * For every perception draw: the drawing vehicle's position (taken from
      the call that built its probability vector) and the hit count, so the
      expected hit count can be recomputed from the logistic curve.
    * For every Baseline episode: the post-warm-up local-set sizes, folded
      the way the metrics merge them, to predict the reported usage.
    """

    def __init__(self, params: dict[str, str]) -> None:
        self.det = tuple(float(params[f"scene.detection_a{i}"]) for i in (1, 2, 3))
        self.vehicles = int(params["scene.vehicle_count"])
        self.draws = self.hits = 0
        self.expected = self.variance = 0.0
        self.selections = self.selected_vars = self.empty = 0
        self.baseline: dict[int, list] = {}  # gamma -> [usage_sum, messages]
        self._positions: dict[int, tuple[float, float]] = {}
        self._episode: list[tuple[tuple[float, float], int]] = []
        self._objects = None

    def on_objects(self, objects, args) -> None:
        self._objects = np.array([o.position for o in objects], dtype=float).reshape(-1, 2)

    def on_detection_vector(self, probs, args) -> None:
        self._positions[id(probs)] = args[0]

    def on_hits(self, hits, args) -> None:
        self._episode.append((self._positions[id(args[0])], len(hits)))

    def on_selection(self, selected, args) -> None:
        self.selections += 1
        self.selected_vars += len(selected)
        self.empty += not selected

    def episode(self, fn):
        def recorded(config, rng):
            self._episode, self._positions = [], {}
            acc = fn(config, rng)
            self._close(config)
            return acc

        recorded.__wrapped__ = fn
        return recorded

    def _close(self, config) -> None:
        draws = self._episode
        self.draws += len(draws)
        self.hits += sum(h for _, h in draws)
        if draws and len(self._objects):
            pos = np.array([p for p, _ in draws], dtype=float)
            d = np.hypot(pos[:, :1] - self._objects[:, 0], pos[:, 1:] - self._objects[:, 1])
            a1, a2, a3 = self.det
            prob = 1.0 / (1.0 + a1 * np.exp(-a2 * (d - a3)))
            self.expected += float(prob.sum())
            self.variance += float((prob * (1.0 - prob)).sum())
        if config.scheme.value == "Baseline":
            gamma, usage = config.gamma, 0.0
            # Same float operations, in the same order, as the accumulator:
            # one n / gamma term per counted message, then episode totals
            # summed replication by replication.
            for _, size in draws[self.vehicles:]:
                usage += min(size, gamma) / gamma
            cell = self.baseline.get(gamma)
            messages = len(draws) - self.vehicles
            if cell is None:
                self.baseline[gamma] = [usage, messages]
            else:
                cell[0] += usage
                cell[1] += messages

    def summary(self) -> dict:
        return {
            "draws": self.draws,
            "hits": self.hits,
            "expected_hits": self.expected,
            "hits_variance": self.variance,
            "selections": self.selections,
            "selected_vars": self.selected_vars,
            "empty_messages": self.empty,
            "baseline_usage": {
                str(g): format(u / m, ".6g") for g, (u, m) in sorted(self.baseline.items())
            },
        }


def install(relevance_sim, params: dict[str, str]) -> tuple[Tracer, Recorder]:
    """Wrap every traced call site of the imported package in place."""
    engine, harness = relevance_sim.engine, relevance_sim.harness
    tracer, recorder = Tracer(), Recorder(params)
    observers = {
        "place_objects": recorder.on_objects,
        "detection_probability_vector": recorder.on_detection_vector,
        "sample_hits": recorder.on_hits,
    }
    for attr, name in ENGINE_SITES:
        observe = recorder.on_selection if attr.startswith("select_") else observers.get(attr)
        setattr(engine, attr, tracer.wrap(name, getattr(engine, attr), observe))
    for attr, name in HARNESS_SITES:
        setattr(harness, attr, tracer.wrap(name, getattr(harness, attr)))
    for cls_name, attr, name in METHOD_SITES:
        cls = getattr(relevance_sim, cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    harness.run_episode_accumulator = recorder.episode(
        tracer.wrap("engine.episode", harness.run_episode_accumulator)
    )
    return tracer, recorder
