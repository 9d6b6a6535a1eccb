"""Span tracing and profiling for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install`
wraps the public functions of each layer of ``repro`` at every name a
caller binds them under (module attributes, class attributes, and the
experiment registry), runs the pass, and restores the originals.

Each wrapped call is a frame on one stack.  When a frame closes, its
duration is split into the time its child frames cover and the rest,
its *self* time, so the self times of all frames of a pass sum exactly
to the pass's wall time.  Coarse calls (harnesses, runs, compiles,
sampler phases) are also kept as spans (name, start, end, parent) for
the spans file.  The two per-op boundaries, the emulator's trace
generator and the timing model's stream pump, are far too frequent to
keep one span each: they are timed per op and kept as totals only.

The emulator, timing model, LSU, cache hierarchy and SRV engine call
each other per op, so these outside timers cannot split them.
:func:`profile_shares` splits them from a run under ``cProfile``
instead.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
import statistics
import sys
from time import perf_counter

#: layers whose self time comes from the profiler (per-op packages)
PROFILED_PACKAGES = ("emu", "pipeline", "lsu", "memory", "srv", "common")


class Recorder:
    """Frame stack, per-name totals and the coarse span list."""

    def __init__(self) -> None:
        #: open frames: [name, layer, start, child_s, span id, kept]
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [layer, calls, incl, self]
        self.spans: list[tuple] = []    # (name, layer, start, end, parent)
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str, layer: str, keep: bool) -> list:
        """Open a frame; ``keep`` also records it as a span."""
        parent = self.stack[-1][4] if self.stack else None
        span = parent
        if keep:
            span = len(self.spans)
            self.spans.append([name, layer, perf_counter(), None, parent])
        frame = [name, layer, perf_counter(), 0.0, span, keep]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("unbalanced trace frames")
        duration = end - frame[2]
        if self.stack:
            self.stack[-1][3] += duration
        total = self.totals.setdefault(frame[0], [frame[1], 0, 0.0, 0.0])
        total[1] += 1
        total[2] += duration
        total[3] += duration - frame[3]
        if frame[5]:
            self.spans[frame[4]][3] = end
        return duration

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def incl(self, name: str) -> float:
        return self.totals.get(name, [None, 0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [None, 0, 0.0, 0.0])[1]

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, _, _, self_s in self.totals.values():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p}
                for n, l, s, e, p in self.spans
            ],
            "totals": {
                name: {"layer": l, "calls": c, "incl_s": i, "self_s": s}
                for name, (l, c, i, s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _wrap_call(rec: Recorder, orig, name: str, layer: str, after=None):
    def wrapper(*args, **kwargs):
        frame = rec.enter(name, layer, True)
        try:
            result = orig(*args, **kwargs)
        finally:
            duration = rec.exit(frame)
        if after is not None:
            after(args, kwargs, result, duration)
        return result

    wrapper.__wrapped__ = orig
    return wrapper


def _wrap_gen(rec: Recorder, orig, name: str, layer: str, counter: str):
    """Time every ``next`` of a generator as one frame; keep totals only."""

    def wrapper(*args, **kwargs):
        gen = orig(*args, **kwargs)
        n = 0
        try:
            while True:
                frame = rec.enter(name, layer, False)
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    rec.exit(frame)
                n += 1
                yield item
        finally:
            # a consumer may stop early (the sampler's collection pass
            # does): count what it took either way
            rec.count(counter, n)

    wrapper.__wrapped__ = orig
    return wrapper


class _TimedPump:
    """Stands in for the timing model's primed coroutine."""

    __slots__ = ("_pump", "_rec")

    def __init__(self, pump, rec: Recorder) -> None:
        self._pump = pump
        self._rec = rec

    def send(self, op):
        rec = self._rec
        frame = rec.enter("pipeline.pump", "pipeline", False)
        try:
            return self._pump.send(op)
        finally:
            rec.exit(frame)
            if op is not None:
                rec.counts["pipeline.ops"] = rec.counts.get("pipeline.ops", 0) + 1

    def __getattr__(self, attr):
        return getattr(self._pump, attr)


class Patches:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
            setattr(owner, attr, value)

    def everywhere(self, orig, wrapper) -> None:
        """Rebind ``orig`` at every ``repro`` module attribute naming it."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


_ABSENT = object()


def _field_wrapper(rec: Recorder, attr: str, name: str, layer: str):
    """A class property wrapping a per-instance callable dataclass field.

    ``LoopSpec.arrays`` is a field holding each loop's input generator,
    so callers bind it through the instance.  A data descriptor on the
    class takes precedence over the instance dictionary; the wrapper is
    cached per generator so equal specs stay equal.
    """
    wrapped: dict[int, tuple] = {}

    def get(self):
        inner = self.__dict__[attr]
        hit = wrapped.get(id(inner))
        if hit is None or hit[0] is not inner:
            hit = (inner, _wrap_call(rec, inner, name, layer))
            wrapped[id(inner)] = hit
        return hit[1]

    def put(self, value):
        self.__dict__[attr] = value

    return property(get, put)


#: harnesses whose inclusive time is reported on its own
HARNESS_METRICS = ("limit_study", "figure6", "figure11", "sampling",
                   "analyze_guided")


def install(rec: Recorder, owners: dict | None = None) -> Patches:
    """Wrap each layer's public functions; returns the undo handle.

    ``owners`` maps a run's cache key to the harness the sweep plan
    first lists it under.
    """
    import repro.analyze
    import repro.experiments as experiments
    import repro.experiments.runner as runner
    import repro.observe.harness
    import repro.parallel.engine as engine
    import repro.parallel.plan as plan
    import repro.pipeline.stream as stream
    import repro.sample.project as project
    from repro.compiler import compile_loop, scalar_reference
    from repro.emu.interpreter import Interpreter
    from repro.memory import MemoryImage
    from repro.parallel.cache import ResultCache, code_version_hash
    from repro.pipeline.core import PipelineModel
    from repro.pipeline.inorder import InOrderModel
    from repro.sample.cluster import cluster_intervals
    from repro.sample.intervals import collect_segments, fingerprint_pass
    from repro.workloads.base import LoopSpec

    patches = Patches()

    def fn(orig, name, layer, after=None):
        patches.everywhere(orig, _wrap_call(rec, orig, name, layer, after))

    # experiments: the registry run_sweep looks harnesses up in
    for name, harness in list(experiments.ALL_EXPERIMENTS.items()):
        patches.set(experiments.ALL_EXPERIMENTS, name,
                    _wrap_call(rec, harness, f"experiments.{name}",
                               "experiments"))

    orig_run_loop = runner.run_loop
    signature = inspect.signature(orig_run_loop)
    harness_frames = {f"experiments.{name}"
                      for name in experiments.ALL_EXPERIMENTS}

    def run_loop(*args, **kwargs):
        compiles = rec.calls("compiler.compile")
        in_harness = any(f[0] in harness_frames for f in rec.stack)
        frame = rec.enter("experiments.run_loop", "experiments", True)
        try:
            return orig_run_loop(*args, **kwargs)
        finally:
            duration = rec.exit(frame)
            if rec.calls("compiler.compile") > compiles:  # executed, no hit
                rec.sample("experiments.run_ms", duration * 1e3)
                if not in_harness and owners:
                    # a sweep's warm phase runs a harness's cells before
                    # the harness itself: charge them to it
                    bound = signature.bind(*args, **kwargs).arguments
                    key = runner.cache_key_for(*(
                        bound.get(name, signature.parameters[name].default)
                        for name in ("spec", "strategy", "seed", "config",
                                     "timing", "n_override", "core")))
                    owner = owners.get(key)
                    if owner is not None:
                        rec.sample(f"experiments.{owner}.warm_s", duration)

    patches.everywhere(orig_run_loop, run_loop)

    # parallel: sweep engine, plan, result store
    fn(engine.run_sweep, "parallel.run_sweep", "parallel")
    fn(engine.warm_cells, "parallel.warm_cells", "parallel")
    fn(plan.cells_for_experiments, "parallel.plan", "parallel")
    fn(code_version_hash, "parallel.code_hash", "parallel")

    orig_get = ResultCache.get

    def get(self, key):
        before = self.stats.memory_hits
        frame = rec.enter("parallel.get", "parallel", True)
        try:
            return orig_get(self, key)
        finally:
            duration = rec.exit(frame)
            if self.stats.memory_hits == before:
                rec.sample("parallel.get_disk_us", duration * 1e6)

    patches.set(ResultCache, "get", get)
    patches.set(ResultCache, "put", _wrap_call(
        rec, ResultCache.put, "parallel.put", "parallel",
        lambda a, k, r, d: rec.sample("parallel.put_us", d * 1e6)))
    patches.set(ResultCache, "contains", _wrap_call(
        rec, ResultCache.contains, "parallel.contains", "parallel"))

    # workloads: input generation and allocation
    patches.set(LoopSpec, "arrays", _field_wrapper(
        rec, "arrays", "workloads.arrays", "workloads"))
    patches.set(MemoryImage, "alloc", _wrap_call(
        rec, MemoryImage.alloc, "workloads.alloc", "workloads"))

    # compiler
    fn(compile_loop, "compiler.compile", "compiler")
    fn(scalar_reference, "compiler.oracle", "compiler")

    # emu: whole runs (warm pre-pass, untimed runs) and streamed ops
    orig_run = Interpreter.run

    def interp_run(self):
        warm = isinstance(self.tracer, stream._CacheWarmTracer)
        name = "emu.warm" if warm else "emu.run"
        before = self.metrics.dynamic_instructions
        frame = rec.enter(name, "emu", True)
        try:
            return orig_run(self)
        finally:
            rec.exit(frame)
            rec.count("emu.ops", self.metrics.dynamic_instructions - before)

    patches.set(Interpreter, "run", interp_run)
    patches.set(Interpreter, "iter_trace", _wrap_gen(
        rec, Interpreter.iter_trace, "emu.step", "emu", "emu.ops"))

    # pipeline: fused simulation, the stream pump of both timing models
    fn(stream.simulate_streaming, "pipeline.simulate_streaming", "pipeline")
    for model in (PipelineModel, InOrderModel):
        orig_stream = model.stream
        patches.set(model, "stream",
                    (lambda o: lambda self: _TimedPump(o(self), rec))(
                        orig_stream))

    # sample
    def timing_after(args, kwargs, timing, duration):
        rec.count("sample.detailed_ops", timing.ops + timing.warm_ops)

    fn(project.sample_loop, "sample.sample_loop", "sample")
    fn(fingerprint_pass, "sample.fingerprint", "sample")
    fn(cluster_intervals, "sample.cluster", "sample")
    fn(stream.time_segment, "sample.timing", "sample", timing_after)
    patches.everywhere(collect_segments, _wrap_gen(
        rec, collect_segments, "sample.collect", "sample", "sample.segments"))

    # analyze / observe (always-fresh runs of the analyze_guided harness)
    fn(repro.analyze.analyse_spec, "analyze.analyse_spec", "analyze")

    def observe_after(args, kwargs, observed, duration):
        rec.count("observe.events", len(observed.events))

    fn(repro.observe.harness.observe_loop, "observe.observe_loop", "observe",
       observe_after)
    return patches


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_owners(experiments: list[str], seed: int, n: int | None) -> dict:
    """Cache key -> the first of ``experiments`` whose plan lists it."""
    from repro.experiments.runner import cache_key_for
    from repro.parallel.plan import CELLS_BY_EXPERIMENT

    owners: dict = {}
    for name in experiments:
        enumerate_cells = CELLS_BY_EXPERIMENT.get(name)
        for cell in enumerate_cells(seed, n) if enumerate_cells else ():
            spec, strategy, config = cell.resolve()
            owners.setdefault(cache_key_for(
                spec, strategy, cell.seed, config, cell.timing,
                cell.n_override, cell.core), name)
    return owners


def layer_metrics(rec: Recorder, pass_s: float, result_ops: int,
                  cache_stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README for each)."""
    emu_ops = rec.counts.get("emu.ops", 0)
    pipe_ops = rec.counts.get("pipeline.ops", 0)
    emu_s = rec.incl("emu.run") + rec.incl("emu.warm") + rec.incl("emu.step")
    pipe_s = rec.incl("pipeline.pump")
    lookups = cache_stats["disk_hits"] + cache_stats["misses"]
    m = {
        "workloads.inputs_s": rec.incl("workloads.arrays")
        + rec.incl("workloads.alloc"),
        "compiler.compile_s": rec.incl("compiler.compile"),
        "compiler.oracle_s": rec.incl("compiler.oracle"),
        "emu.ops": emu_ops,
        "emu.ops_per_result_op": emu_ops / result_ops if result_ops else 0.0,
        "emu.warm_s": rec.incl("emu.warm"),
        "emu.s": emu_s,
        "emu.us_per_op": emu_s / emu_ops * 1e6 if emu_ops else 0.0,
        "pipeline.ops": pipe_ops,
        "pipeline.s": pipe_s,
        "pipeline.us_per_op": pipe_s / pipe_ops * 1e6 if pipe_ops else 0.0,
        "sample.fingerprint_s": rec.incl("sample.fingerprint"),
        "sample.cluster_s": rec.incl("sample.cluster"),
        "sample.collect_s": rec.incl("sample.collect"),
        "sample.timing_s": rec.incl("sample.timing"),
        "sample.detailed_ops": rec.counts.get("sample.detailed_ops", 0),
        "parallel.plan_s": rec.incl("parallel.plan"),
        "parallel.get_us_p50": _p50(rec.samples.get("parallel.get_disk_us", [])),
        "parallel.put_us_p50": _p50(rec.samples.get("parallel.put_us", [])),
        "parallel.disk_hits": cache_stats["disk_hits"],
        "parallel.misses": cache_stats["misses"],
        "parallel.evictions": cache_stats["evictions"],
        "parallel.hit_ratio": cache_stats["disk_hits"] / lookups
        if lookups else 0.0,
        "experiments.run_ms_p50": _p50(rec.samples.get("experiments.run_ms", [])),
        "analyze.s": rec.incl("analyze.analyse_spec"),
        "observe.s": rec.incl("observe.observe_loop"),
        "observe.events": rec.counts.get("observe.events", 0),
    }
    for name in HARNESS_METRICS:
        m[f"experiments.{name}_s"] = rec.incl(f"experiments.{name}") + sum(
            rec.samples.get(f"experiments.{name}.warm_s", []))
    layers = rec.self_by_layer()
    attributed = 0.0
    for layer in ("experiments", "parallel", "workloads", "compiler", "emu",
                  "pipeline", "sample", "analyze", "observe"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
        attributed += layers.get(layer, 0.0)
    m["trace.pass_s"] = pass_s
    m["trace.unattributed_s"] = pass_s - attributed
    return m


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------


def _package(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    rest = filename[at + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


def profile_shares(profiler: cProfile.Profile) -> dict:
    """Per-package self-time shares and call counts from one profile.

    Time in built-in functions (``len``, ``list.append``, numpy calls)
    is charged to the packages that called them, in proportion to the
    time each caller spent in them.
    """
    stats = pstats.Stats(profiler).stats
    self_s: dict[str, float] = {}
    calls = 0
    ops = 0
    cache_accesses = 0
    for (filename, _, func), (_, nc, tt, _, callers) in stats.items():
        calls += nc
        if filename == "~" and callers:
            caller_tt = sum(edge[2] for edge in callers.values())
            for (cfile, _, _), edge in callers.items():
                share = edge[2] / caller_tt if caller_tt else 1 / len(callers)
                pkg = _package(cfile)
                self_s[pkg] = self_s.get(pkg, 0.0) + tt * share
            continue
        pkg = _package(filename)
        self_s[pkg] = self_s.get(pkg, 0.0) + tt
        if func == "count" and filename.endswith("/repro/emu/metrics.py"):
            ops += nc
        if func == "access" and filename.endswith("/repro/memory/hierarchy.py"):
            cache_accesses += nc
    total = sum(self_s.values()) or 1.0
    return {
        "self_s": dict(sorted(self_s.items())),
        "total_s": total,
        "calls": calls,
        "emu_ops": ops,
        "cache_accesses": cache_accesses,
        "shares": {pkg: self_s.get(pkg, 0.0) / total
                   for pkg in PROFILED_PACKAGES},
    }
