"""Benchmark worker: set-up, measured passes, traced and profiled passes.

``run.py`` starts this file in fresh processes with the program's
``src`` directory on ``PYTHONPATH``; it prints one JSON object as its
last line.  Commands:

* ``setup``   — imports, the code-version hash and input generation; for
  ``sweep-warm`` also one cold sweep into the store and the reference
  tables it computed;
* ``measure`` — whole passes of one workload until ``--seconds`` have
  passed (at least one), each timed and checked; with ``--trace 1``
  instead one untraced, one traced and one profiled pass;
* ``selftest`` — plants a wrong answer in real results and shows that
  every check rejects it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pickle
import resource
import shutil
import sys
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402

#: ``examples/run_all_experiments.py`` order: the limit study, figures
#: 6-13 and the headline.  This is the run users make for the tables.
SUITE_ORDER = (
    "limit_study", "figure6", "figure7", "figure8", "figure9", "figure10",
    "figure11", "figure12", "figure13", "headline",
)

#: the generated kernel of ``long-kernel``; its trip count is the size
LONG_KERNEL = "gen:v1:s0:c1:n{n}"
#: ``long-kernel`` inputs are fixed: the sampler misses its error budget
#: on these inputs (+5.15% at n=16384) but not on every seed's, and a
#: counted failure must fail in every run
LONG_SEED = 0
#: ``long-kernel``'s profiled pass runs the same kernel at this trip
#: count, so that a traced run stays inside its time limit
LONG_PROFILE_SIZE = 1024
#: ``sweep-warm``'s sweep seed is fixed too: a sweep's seed also picks
#: the programs the generator emits for ``fuzz_smoke`` and ``sampling``,
#: so each seed is another program (789k-833k ops, 102-146 MiB peak RSS
#: over seeds 100-109), where a comparison of two commits needs one
SWEEP_SEED = 0
#: worker processes of ``sweep-warm``'s set-up sweep, one per CPU of a
#: two-CPU host: the set-up is not a measured pass, and with one process
#: it alone would take a third of a run
FILL_JOBS = 2


def _cache():
    from repro.parallel.cache import CacheStats, result_cache

    cache = result_cache()
    cache.clear_memory()
    cache.stats = CacheStats()
    return cache


@contextmanager
def _store_lookups(cache):
    """Collect ``(key, hit)`` for each ``ResultCache.get`` on ``cache``
    that reads the store (a disk hit or a miss; memo hits are left out).

    The instance attribute shadows the method only while the block runs,
    and calls whatever the class holds then (a traced pass wraps it).
    """
    lookups: list = []

    def get(key):
        stats = cache.stats
        hits, misses = stats.disk_hits, stats.misses
        payload = type(cache).get(cache, key)
        if stats.disk_hits != hits or stats.misses != misses:
            lookups.append((key, stats.disk_hits != hits))
        return payload

    cache.get = get
    try:
        yield lookups
    finally:
        del cache.get


def _memo_items(cache) -> list:
    # the in-process memo starts empty each pass, so after the pass it
    # holds exactly the results the pass delivered
    return list(cache._memory.items())


def _sim_totals(payloads) -> dict:
    """Simulated statistics a simulator-only change must leave identical."""
    sim = {"cycles": 0, "replays": 0, "l1_misses": 0, "l2_misses": 0,
           "lsu_disambiguations": 0, "runs": 0}
    for payload in payloads:
        sim["runs"] += 1
        sim["replays"] += payload["emu"].srv.replays
        pipe = payload["pipe"]
        if pipe is not None:
            sim["cycles"] += pipe.cycles
            sim["l1_misses"] += pipe.l1_misses
            sim["l2_misses"] += pipe.l2_misses
            sim["lsu_disambiguations"] += (
                pipe.lsu.vertical_disambiguations
                + pipe.lsu.horizontal_disambiguations
            )
    return sim


def _suite_inputs(seed: int) -> None:
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        for spec in workload.loops:
            spec.arrays(seed)


def _plain(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SuiteCold:
    """``run_sweep`` over the paper harnesses into an empty store."""

    name = "suite-cold"
    default_size = 128

    def __init__(self, seed: int, size: int, workdir: str, **_) -> None:
        self.seed, self.size, self.workdir = seed, size, workdir
        self.passes = 0

    def inputs(self) -> None:
        _suite_inputs(self.seed)

    def owners(self) -> dict:
        return tracing.run_owners(list(SUITE_ORDER), self.seed, self.size)

    def run_pass(self, timed=_plain, size: int | None = None) -> dict:
        from repro.parallel import run_sweep

        store = os.path.join(self.workdir, f"store-{self.passes}")
        self.passes += 1
        cache = _cache()
        try:
            seconds, outcome = timed(lambda: run_sweep(
                list(SUITE_ORDER), jobs=1, seed=self.seed,
                n_override=size or self.size, cache_dir=store,
            ))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        tally = checks.Tally()
        items = _memo_items(cache)
        for key, payload in items:
            checks.check_run(tally, key, payload)
        for name in SUITE_ORDER:
            tally.check("harness_no_failure",
                        not outcome.results[name].failures)
        payloads = [p for _, p in items]
        return {
            "seconds": seconds,
            "ops": sum(p["emu"].dynamic_instructions for p in payloads),
            "tally": tally,
            "sim": _sim_totals(payloads),
            "cache": cache.stats.as_dict(),
        }


class SweepWarm:
    """``run_sweep`` over every experiment against a store set-up filled."""

    name = "sweep-warm"
    default_size = 128

    def __init__(self, size: int, store: str, ref: str, **_) -> None:
        self.seed, self.size, self.store, self.ref = (
            SWEEP_SEED, size, store, ref)
        self.reference: dict | None = None

    def inputs(self) -> None:
        _suite_inputs(self.seed)

    def fill(self) -> None:
        """One cold sweep into the empty store; keep its tables."""
        from repro.parallel import run_sweep

        _cache()
        outcome = run_sweep(None, jobs=FILL_JOBS, seed=self.seed,
                            n_override=self.size, cache_dir=self.store)
        tables = {name: checks.table(result)
                  for name, result in outcome.results.items()}
        with open(self.ref, "wb") as fh:
            pickle.dump(tables, fh)

    def owners(self) -> dict:
        from repro.experiments import ALL_EXPERIMENTS

        return tracing.run_owners(list(ALL_EXPERIMENTS), self.seed, self.size)

    def run_pass(self, timed=_plain, size: int | None = None) -> dict:
        from repro.parallel import run_sweep

        if self.reference is None:
            # written by this benchmark's own set-up process
            with open(self.ref, "rb") as fh:
                self.reference = pickle.load(fh)
        cache = _cache()
        with _store_lookups(cache) as lookups:
            seconds, outcome = timed(lambda: run_sweep(
                None, jobs=1, seed=self.seed, n_override=self.size,
                cache_dir=self.store,
            ))
        stats = cache.stats.as_dict()
        tally = checks.Tally()
        checks.check_lookups(tally, lookups)
        for name in sorted(self.reference):
            tally.check("table_equal",
                        checks.tables_ok(outcome.results, self.reference, name))
        ops = 0
        runs = []
        for key, payload in _memo_items(cache):
            if checks.is_run_key(key):
                ops += payload["emu"].dynamic_instructions
                runs.append(payload)
            else:
                ops += payload["report"].total_ops
        return {"seconds": seconds, "ops": ops, "tally": tally,
                "sim": _sim_totals(runs), "cache": stats}


class LongKernel:
    """One generated kernel, exact and then sampled, cache bypassed."""

    name = "long-kernel"
    default_size = 16384

    def __init__(self, size: int, **_) -> None:
        self.size = size

    def spec(self, size: int):
        from repro.sample import resolve_spec

        return resolve_spec(LONG_KERNEL.format(n=size))

    def inputs(self) -> None:
        _, spec = self.spec(self.size)
        spec.arrays(LONG_SEED)

    def owners(self) -> dict:
        return {}

    def run_pass(self, timed=_plain, size: int | None = None) -> dict:
        from repro.compiler import Strategy
        from repro.experiments.runner import run_loop, run_payload
        from repro.sample import DEFAULT_ERROR_BOUND_PCT, sample_loop

        workload, spec = self.spec(size or self.size)
        cache = _cache()

        def both():
            exact = run_loop(spec, Strategy.SRV, seed=LONG_SEED,
                             use_cache=False)
            report = sample_loop(spec, Strategy.SRV, seed=LONG_SEED,
                                 use_cache=False, workload_key=workload.name)
            return exact, report

        seconds, (exact, report) = timed(both)
        exact_payload = run_payload(exact)
        tally = checks.Tally()
        checks.check_long(tally, exact_payload, report, DEFAULT_ERROR_BOUND_PCT)
        sim = _sim_totals([exact_payload])
        sim["projected_cycles"] = report.projected_cycles
        sim["detailed_ops"] = report.detailed_ops
        return {
            "seconds": seconds,
            "ops": exact.emu.dynamic_instructions + report.total_ops,
            "tally": tally,
            "sim": sim,
            "cache": cache.stats.as_dict(),
        }


WORKLOADS = {w.name: w for w in (SuiteCold, SweepWarm, LongKernel)}


def _make(args):
    cls = WORKLOADS[args.workload]
    return cls(seed=args.seed, size=args.size or cls.default_size,
               workdir=args.workdir, store=args.store, ref=args.ref)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _provenance() -> dict:
    import numpy

    from repro.parallel import code_version_hash

    return {
        "code_version": code_version_hash(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def cmd_setup(args) -> dict:
    """Timed from outside, interpreter start included."""
    from repro.parallel import code_version_hash

    code_version_hash()
    workload = _make(args)
    workload.inputs()
    if isinstance(workload, SweepWarm):
        workload.fill()
    return {}


def _pass_record(result: dict) -> dict:
    tally = result.pop("tally")
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    return result


def cmd_measure(args) -> dict:
    workload = _make(args)
    out = {"provenance": _provenance()}
    if not args.trace:
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            passes.append(_pass_record(workload.run_pass()))
        out["passes"] = passes
    else:
        out.update(_traced(workload, args))
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _traced(workload, args) -> dict:
    """One untraced, one traced and one profiled pass."""
    from repro.parallel import code_version_hash

    untraced = _pass_record(workload.run_pass())

    start = perf_counter()
    code_version_hash(refresh=True)
    code_hash_s = perf_counter() - start

    rec = tracing.Recorder()

    def spanned(fn):
        frame = rec.enter("pass", "unattributed", True)
        try:
            result = fn()
        finally:
            seconds = rec.exit(frame)
        return seconds, result

    patches = tracing.install(rec, workload.owners())
    try:
        traced = _pass_record(workload.run_pass(spanned))
    finally:
        patches.restore()

    profile_size = LONG_PROFILE_SIZE if isinstance(workload, LongKernel) \
        else None
    profile_base = untraced
    if profile_size is not None:
        profile_base = _pass_record(workload.run_pass(size=profile_size))
    profiler = cProfile.Profile()

    def profiled(fn):
        start = perf_counter()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
        return perf_counter() - start, result

    profile_pass = _pass_record(workload.run_pass(profiled, size=profile_size))
    shares = tracing.profile_shares(profiler)

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{workload.name}-seed{args.seed}")
    with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh)
    profiler.dump_stats(f"{stem}.pstats")

    layer = tracing.layer_metrics(rec, traced["seconds"], traced["ops"],
                                  traced["cache"])
    layer["parallel.code_hash_s"] = code_hash_s
    layer["trace.overhead_s"] = traced["seconds"] - untraced["seconds"]
    layer["trace.profile_overhead_s"] = (
        profile_pass["seconds"] - profile_base["seconds"])
    for pkg, share in shares["shares"].items():
        layer[f"{pkg}.self_share"] = share
    layer["py.calls_per_op"] = (shares["calls"] / shares["emu_ops"]
                                if shares["emu_ops"] else 0.0)
    layer["memory.cache_accesses"] = shares["cache_accesses"]
    return {
        "passes": [untraced],
        "traced": traced,
        "profiled": profile_pass,
        "layer": layer,
        "layer_self_s": rec.self_by_layer(),
        "profile_self_s": shares["self_s"],
        "files": [f"{stem}.spans.json", f"{stem}.pstats"],
    }


def cmd_selftest(args) -> dict:
    """Plant one wrong answer per check in real results; all must fail."""
    import copy

    from repro.common.config import TABLE_I
    from repro.compiler import Strategy
    from repro.experiments.runner import (
        RunFailure,
        cache_key_for,
        run_loop,
        run_payload,
    )
    from repro.parallel import run_sweep
    from repro.sample import sample_loop
    from repro.workloads import by_name

    spec = by_name("hmmer").loops[0]
    run = run_loop(spec, Strategy.SRV, n_override=32, use_cache=False)
    good = run_payload(run)
    key = cache_key_for(spec, Strategy.SRV, n_override=32)
    report = sample_loop(spec, Strategy.SRV, interval_size=64, warmup=128,
                         n_override=32, use_cache=False)
    good_report = replace(report, projected_cycles=run.cycles,
                          total_ops=run.emu.dynamic_instructions)

    # one small sweep cold into an empty store, then warm against it:
    # the warm sweep's tables and store lookups are the real results
    try:
        _cache()
        cold = run_sweep(["figure8"], jobs=1, n_override=16,
                         cache_dir=args.store)
        reference = {name: checks.table(result)
                     for name, result in cold.results.items()}
        cache = _cache()
        with _store_lookups(cache) as lookups:
            warm = run_sweep(["figure8"], jobs=1, n_override=16,
                             cache_dir=args.store)
    finally:
        shutil.rmtree(args.store, ignore_errors=True)
    result = warm.results["figure8"]
    run_miss = [(lookups[0][0], False)] + lookups[1:]
    sample_miss = lookups + [(("sample",) + lookups[0][0], False)]

    def failures(check, *check_args) -> dict:
        tally = checks.Tally()
        check(tally, *check_args)
        return tally.failures

    def bad_emu(**srv):
        emu = copy.deepcopy(good["emu"])
        for field, value in srv.items():
            setattr(emu.srv, field, value)
        return emu

    def off_by(share):
        return replace(good_report,
                       projected_cycles=round(run.cycles * (1 + share)))

    # name -> (untouched result passes, planted wrong answer rejected)
    cases = {
        "oracle": lambda: (
            checks.oracle_ok(good),
            not checks.oracle_ok(dict(good, correct=False))),
        "no_run_failure": lambda: (
            checks.no_failure_ok(good),
            not checks.no_failure_ok(dict(good, failures=(
                RunFailure("l", "srv", 0, "timing", "E", "m"),)))),
        "timed_ops": lambda: (
            checks.timed_ops_ok(good),
            not checks.timed_ops_ok(dict(good, pipe=replace(
                good["pipe"], instructions=good["pipe"].instructions + 1)))),
        "replay_bound": lambda: (
            checks.replay_bound_ok(good, key[3].vector_lanes),
            not checks.replay_bound_ok(dict(good, emu=bad_emu(
                max_replays_in_region=TABLE_I.vector_lanes)),
                TABLE_I.vector_lanes)),
        "table_equal": lambda: (
            checks.tables_ok(warm.results, reference, "figure8"),
            not checks.tables_ok({"figure8": replace(result, rows=[
                (row[0], row[1] + 1e-9) + tuple(row[2:])
                if i == 0 else row for i, row in enumerate(result.rows)])},
                reference, "figure8")),
        "store_hit": lambda: (
            len(lookups) > 0
            and failures(checks.check_lookups, lookups) == {},
            failures(checks.check_lookups, run_miss) == {"store_hit": 1}),
        "sample_store_hit": lambda: (
            failures(checks.check_lookups, lookups) == {},
            failures(checks.check_lookups, sample_miss)
            == {"sample_store_hit": 1}),
        "long_sampled_ops": lambda: (
            checks.sampled_ops_ok(good_report, good),
            not checks.sampled_ops_ok(replace(
                good_report, total_ops=good_report.total_ops + 1), good)),
        "long_projection": lambda: (
            failures(checks.check_long, good, good_report, 5.0) == {},
            failures(checks.check_long, good, off_by(0.06), 5.0)
            == {"long_projection": 1}),
        "long_projection_far": lambda: (
            failures(checks.check_long, good, off_by(-0.04), 5.0) == {},
            failures(checks.check_long, good, off_by(0.11), 5.0)
            == {"long_projection_far": 1}),
    }
    outcome = {}
    for name, case in cases.items():
        clean, rejected = case()
        outcome[name] = {"clean_passes": clean, "planted_rejected": rejected}
    return {"checks": outcome,
            "ok": all(v["clean_passes"] and v["planted_rejected"]
                      for v in outcome.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "measure", "selftest"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--store", default=None)
    parser.add_argument("--ref", default=None)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    command = {"setup": cmd_setup, "measure": cmd_measure,
               "selftest": cmd_selftest}[args.command]
    result = command(args)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
