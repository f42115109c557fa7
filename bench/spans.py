"""In-memory span tracer wrapped around codedconv's public functions.

Every wrapped call records one span `[name, start, end, parent]` in a list;
nothing is written until the pass ends and `layer_metrics` reduces the list.
A span's self time is its duration minus the durations of its direct
children, which cover disjoint intervals because the simulator is
single-threaded.

Functions are wrapped where they are called from, not where they are
defined: `strategies` binds the coding primitives by name, `engine` binds
the models and `experiments` binds `run_episode`, so patching the defining
module alone would miss those calls.  Pilot episodes recurse through the
module global `codedconv.engine.run_episode`; `SimEngine.events` is a
generator, so each `next()` is its own span.  `chunk_score` is only counted:
it runs ~1,250 times per traditional episode and its time stays inside
`select_s`.
"""

import math
import time
from collections import Counter

# Span names.  Each gets `.calls` (count) and `.self_s` (s); each module
# but cli, whose only span is cli.main, gets `<module>.self_s`, the sum
# over its spans.
SPANS = (
    "engine.substream", "engine.SimEngine_init", "engine.episode_draws",
    "engine.run_episode", "engine.pilot", "engine.send", "engine.events",
    "strategies.select_s", "strategies.estimator", "strategies.run_uncoded",
    "strategies.run_traditional_coded", "strategies.run_dynamic",
    "coding.convolve_fft", "coding.mds_encode", "coding.mds_decode",
    "coding.overlap_add", "coding.make_encoding_matrix", "coding.partition",
    "coding.as_vector",
    "models.sample_compute_time", "models.data_rate", "models.comm_time",
    "scenarios.benchmark_scenario", "scenarios.ScenarioConfig_replace",
    "experiments.success_rate", "experiments.stress_test",
    "experiments.sweep_b", "experiments.emit",
    "cli.main",
)
MODULES = ("engine", "strategies", "coding", "models", "scenarios",
           "experiments")
EVENT_KINDS = ("wakeup", "result_arrives", "worker_leaves")

# Metric name -> unit for everything `layer_metrics` reports: exact
# counters first, then host timings.
COUNT_UNITS = {
    "strategies.chunk_score.calls": "count",
    "experiments.run_episode.calls": "count",
    "engine.horizon.gave_up": "count",
    "engine.events.popped": "count",
    **{f"engine.events.{kind}": "count" for kind in EVENT_KINDS},
    "engine.send.delivered_ratio": "ratio",
    "strategies.useful_results_ratio": "ratio",
    "strategies.redundancy_used": "count",
    "coding.convolve_fft.points": "count",
    "coding.mds_decode.rhs_bytes": "B",
    **{f"{name}.calls": "count" for name in SPANS},
}
TIMING_UNITS = {
    "engine.pilot.incl_s": "s",
    "engine.pilot.incl_share": "ratio",
    "strategies.select_s.self_share": "ratio",
    **{f"{name}.self_s": "s" for name in SPANS},
    **{f"{module}.self_s": "s" for module in MODULES},
}

# The subset reported as the benchmark's per-layer metrics.  A self time
# that is structurally zero on some workload (pilots, chunk selection, the
# uncoded and traditional runners, ScenarioConfig.replace) is reported here
# by its call count and, for pilots and chunk selection, its share of the
# traced pass; the full table is printed by every traced run.
PER_LAYER = (
    "engine.self_s", "strategies.self_s", "coding.self_s", "models.self_s",
    "scenarios.self_s", "experiments.self_s", "cli.main.self_s",
    "engine.substream.calls", "engine.substream.self_s",
    "engine.SimEngine_init.self_s", "engine.episode_draws.self_s",
    "engine.send.calls", "engine.send.self_s",
    "engine.events.popped", "engine.events.self_s",
    "engine.events.wakeup", "engine.events.result_arrives",
    "engine.events.worker_leaves", "engine.send.delivered_ratio",
    "engine.pilot.calls", "engine.pilot.incl_share",
    "strategies.select_s.calls", "strategies.select_s.self_share",
    "strategies.chunk_score.calls",
    "strategies.estimator.calls", "strategies.estimator.self_s",
    "strategies.run_uncoded.calls", "strategies.run_traditional_coded.calls",
    "strategies.run_dynamic.self_s",
    "strategies.useful_results_ratio", "strategies.redundancy_used",
    *(f"coding.{fn}.{stat}"
      for fn in ("convolve_fft", "mds_encode", "mds_decode", "overlap_add",
                 "make_encoding_matrix", "partition", "as_vector")
      for stat in ("calls", "self_s")),
    "coding.convolve_fft.points", "coding.mds_decode.rhs_bytes",
    *(f"models.{fn}.{stat}"
      for fn in ("sample_compute_time", "data_rate", "comm_time")
      for stat in ("calls", "self_s")),
    "scenarios.ScenarioConfig_replace.calls",
    "experiments.emit.calls", "experiments.emit.self_s",
    "experiments.run_episode.calls",
    "trace.overhead_s",
)
UNITS = {**COUNT_UNITS, **TIMING_UNITS, "trace.overhead_s": "s"}


class Tracer:
    """Span list plus counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.fft_lengths: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span; `after(args, kwargs, result)` runs
        outside the span, so its cost lands in the caller's self time."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap_events(self, fn):
        """Time each `next()` of the SimEngine.events generator."""
        spans, stack, clock, counts = (self.spans, self._stack,
                                       time.perf_counter, self.counts)

        def events(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = ["engine.events", 0.0, 0.0, stack[-1]]
                    stack.append(len(spans))
                    spans.append(span)
                    span[1] = clock()
                    try:
                        ev = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[2] = clock()
                        stack.pop()
                    counts["engine.events.popped"] += 1
                    counts["engine.events." + ev.kind] += 1
                    yield ev
            finally:
                gen.close()
        return events

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace owner.attr (or owner[attr] for a dict) with make(original)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap codedconv's public functions at their call-site names."""
        from codedconv import cli, coding, engine, experiments, scenarios
        from codedconv import strategies

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        self.patch(engine, "substream", span("engine.substream"))
        for attr in ("episode_profiles", "episode_behaviors", "episode_task"):
            self.patch(engine, attr, span("engine.episode_draws"))
        for attr in ("sample_compute_time", "data_rate", "comm_time"):
            self.patch(engine, attr, span(f"models.{attr}"))
        self.patch(engine.SimEngine, "__init__", span("engine.SimEngine_init"))
        self.patch(engine.SimEngine, "send", span("engine.send"))
        self.patch(engine.SimEngine, "events", self.wrap_events)
        self.patch(engine, "run_episode", self._wrap_nested_episode)
        self.patch(experiments, "run_episode",
                   span("engine.run_episode", self._after_episode))

        self.patch(strategies, "select_s", span("strategies.select_s"))
        self.patch(strategies, "chunk_score",
                   lambda fn: self.count("strategies.chunk_score.calls", fn))
        for attr in ("record_send", "record_result", "interval"):
            self.patch(strategies.DispatchEstimator, attr,
                       span("strategies.estimator"))
        for key, runner in list(strategies.STRATEGIES.items()):
            self.patch(strategies.STRATEGIES, key,
                       span(f"strategies.{runner.__name__}"))
        self.patch(strategies, "convolve_fft",
                   span("coding.convolve_fft", self._after_fft))
        self.patch(strategies, "mds_decode",
                   span("coding.mds_decode", self._after_decode))
        for attr in ("mds_encode", "overlap_add", "make_encoding_matrix",
                     "partition", "as_vector"):
            self.patch(strategies, attr, span(f"coding.{attr}"))
        self.patch(coding, "as_vector", span("coding.as_vector"))

        self.patch(scenarios.ScenarioConfig, "replace",
                   span("scenarios.ScenarioConfig_replace"))
        self.patch(cli, "benchmark_scenario",
                   span("scenarios.benchmark_scenario"))
        for attr in ("success_rate", "stress_test", "sweep_b", "emit"):
            self.patch(cli, attr, span(f"experiments.{attr}"))

    def _wrap_nested_episode(self, fn):
        # Calls through the engine global are pilots when `_behaviors` is set.
        pilot = self.wrap("engine.pilot", fn)
        plain = self.wrap("engine.run_episode", fn)

        def run_episode(*args, **kwargs):
            if kwargs.get("_behaviors") is not None:
                return pilot(*args, **kwargs)
            return plain(*args, **kwargs)
        return run_episode

    def _after_episode(self, args, kwargs, metrics) -> None:
        counts = self.counts
        counts["experiments.run_episode.calls"] += 1
        counts["strategies.redundancy_used"] += metrics.redundancy_used
        counts["results_received"] += sum(metrics.per_worker_results.values())
        if not metrics.success and math.isfinite(metrics.horizon):
            counts["engine.horizon.gave_up"] += 1
        if metrics.success:
            params = metrics.params
            if metrics.strategy == "dynamic":
                needed = params["pieces"]
            elif metrics.strategy == "traditional":
                needed = params["pieces"] * params["columns"]
            else:
                needed = params["rows"] * params["columns"]
            counts["results_needed"] += needed

    def _after_fft(self, args, kwargs, result) -> None:
        self.fft_lengths[len(result)] += 1

    def _after_decode(self, args, kwargs, result) -> None:
        # The recovered pieces have the shape of the solve's right-hand side.
        self.counts["coding.mds_decode.rhs_bytes"] += result.nbytes

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """Reduce the spans to (exact counters, host timings)."""
        from scipy.fft import next_fast_len

        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child_time[i]

        counts = {name: self.counts[name] for name in COUNT_UNITS}
        counts.update({f"{name}.calls": calls[name] for name in SPANS})
        counts["coding.convolve_fft.points"] = sum(
            next_fast_len(n, real=True) * k for n, k in self.fft_lengths.items())
        counts["engine.send.delivered_ratio"] = _ratio(
            self.counts["engine.events.result_arrives"], calls["engine.send"])
        counts["strategies.useful_results_ratio"] = _ratio(
            self.counts["results_needed"], self.counts["results_received"])

        timings = {f"{name}.self_s": self_s[name] for name in SPANS}
        for module in MODULES:
            timings[f"{module}.self_s"] = sum(
                self_s[name] for name in SPANS if name.startswith(module + "."))
        total = incl_s["cli.main"]
        timings["engine.pilot.incl_s"] = incl_s["engine.pilot"]
        timings["engine.pilot.incl_share"] = _ratio(incl_s["engine.pilot"], total)
        timings["strategies.select_s.self_share"] = _ratio(
            self_s["strategies.select_s"], total)
        return counts, timings


def _ratio(num, den) -> float:
    return num / den if den else 0.0
