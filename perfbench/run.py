#!/usr/bin/env python3
"""Benchmark of the simulator: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 5 --trace 0

``--workload`` is ``suite-cold``, ``sweep-warm``, ``long-kernel`` or
``all``.  With ``--trace 0`` the last line of standard output is one JSON
object with the end-to-end metrics (``setup_s``, ``kops_per_s``,
``peak_rss_mib``); with ``--trace 1`` it holds the per-layer metrics of
one traced and one profiled pass.  ``--repeat K`` runs the workload K
times (seeds ``seed .. seed+K-1``) and prints the median and quartiles
of each end-to-end metric; with ``--other DIR`` it alternates between
this checkout's program and the one under DIR.  ``--smoke`` runs every
workload at a tiny size plus the checks' self-test.  See README.md.

This file imports nothing from the program: set-up and the measured
passes run in fresh worker processes (``worker.py``) with the checkout's
``src`` on ``PYTHONPATH``, so the peak RSS of the measuring process
excludes set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("suite-cold", "sweep-warm", "long-kernel")
#: tiny sizes of ``--smoke`` (trip counts; the long kernel's ``n``)
SMOKE_SIZES = {"suite-cold": 16, "sweep-warm": 16, "long-kernel": 1024}
#: fresh set-up processes whose median is ``setup_s``.  ``sweep-warm``
#: sets up once: its set-up is a whole cold sweep.
SETUP_REPEATS = {"suite-cold": 5, "sweep-warm": 1, "long-kernel": 5}
#: failure kinds of the two known faults (README, "Faults kept
#: visible"): a sampled entry's store miss, and a projection off by more
#: than its budget but less than twice it.  Any other failed check makes
#: ``correct`` false.
KNOWN_FAULTS = {"sample_store_hit", "long_projection"}
#: wall-clock budget of one run, below the 180 s a run may take
RUN_BUDGET_S = 175.0


class BenchError(Exception):
    pass


def _unit(name: str) -> str:
    if name.endswith(("_share", "hit_ratio", "ops_per_result_op")):
        return "ratio"
    if name.endswith("calls_per_op"):
        return "calls/op"
    if name.endswith(("us_p50", "us_per_op")):
        return "us"
    if name.endswith("ms_p50"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _worker(root: str, args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker command; returns its JSON result and wall time."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    start = time.perf_counter()
    # a session of its own, so that a worker's pool (sweep-warm's set-up
    # sweep has one) is stopped with it
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=root, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except BaseException:
        _reap(proc.pid)
        proc.communicate()
        raise
    _reap(proc.pid)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args[0]} printed no result")
    return json.loads(lines[-1]), wall


def _reap(pgid: int) -> None:
    """Stop whatever a worker left running in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def _git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(root: str, name: str, seed: int, seconds: float,
                 trace: int, size: int | None = None) -> dict:
    """Set up and measure one workload; returns the full result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir,
              "--store", os.path.join(workdir, "store"),
              "--ref", os.path.join(workdir, "ref.pkl")]
    if size is not None:
        common += ["--size", str(size)]
    try:
        setups = [_worker(root, ["setup", *common], deadline)[1]
                  for _ in range(SETUP_REPEATS[name])]
        measured, _ = _worker(root, [
            "measure", *common, "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", os.path.join(root, ".perfbench", "traces"),
        ], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = measured["passes"]
    if trace:
        passes = passes + [measured["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    kinds = set()
    for p in passes:
        kinds.update(p["failures"])
    correct = kinds <= KNOWN_FAULTS

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in measured["layer"].items()}
    else:
        kops = statistics.median(p["ops"] / p["seconds"] / 1e3 for p in passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "kops_per_s": {"value": kops, "unit": "kops/s"},
            "peak_rss_mib": {"value": measured["peak_rss_mib"], "unit": "MiB"},
        }
    record = {
        "workload": name,
        "provenance": {
            "git_sha": _git_sha(root),
            **measured["provenance"],
            **_host(),
            "seed": seed,
            # sweep-warm and long-kernel run fixed inputs (README)
            "input_seed": seed if name == "suite-cold" else 0,
            "size": size,
            "op_total": passes[0]["ops"],
        },
        "setup_runs_s": setups,
        "passes": passes,
        "result": {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    if trace:
        record["trace"] = {k: measured[k] for k in
                           ("profiled", "layer_self_s", "profile_self_s",
                            "files")}
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{name}-seed{seed}-trace{trace}-"
                           f"{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _report(record: dict) -> None:
    res = record["result"]
    print(f"[{record['workload']}] attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}, "
          f"op total {record['provenance']['op_total']}")
    for name, metric in res["metrics"].items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"provenance": record["provenance"]}))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, roots: list[str]) -> int:
    """K runs per checkout, alternating; prints median and quartiles."""
    runs: dict[str, list[dict]] = {root: [] for root in roots}
    for i in range(args.repeat):
        order = roots if i % 2 == 0 else roots[::-1]
        for root in order:
            record = run_workload(root, args.workload, args.seed + i,
                                  args.seconds, 0)
            runs[root].append(record["result"])
            res = record["result"]
            print(f"[{root} seed {args.seed + i}] " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
                + f" failed={res['failed']}/{res['attempted']}", flush=True)
    for root, results in runs.items():
        print(f"== {args.workload} @ {root}: {len(results)} runs")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = _quartiles(values)
            print(f"  {name}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / med * 100:.2f}%")
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"  failed/attempted: {sorted(shares)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the simulator (see perfbench/README.md)")
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--other", default=None, metavar="DIR",
                        help="with --repeat: alternate with the program "
                             "of this other checkout")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    roots = [root] + ([os.path.abspath(args.other)] if args.other else [])
    for r in roots:
        if not os.path.isfile(os.path.join(r, "src", "repro", "__init__.py")):
            print(f"perfbench: no program under {r}/src/repro; run from the "
                  "root of a checkout", file=sys.stderr)
            return 2
    try:
        if args.repeat:
            if args.workload == "all":
                parser.error("--repeat needs one --workload")
            return repeat(args, roots)
        names = WORKLOADS if args.workload == "all" or args.smoke \
            else (args.workload,)
        records = []
        for name in names:
            size = SMOKE_SIZES[name] if args.smoke else None
            seconds = 0.0 if args.smoke else args.seconds
            records.append(run_workload(root, name, args.seed, seconds,
                                        args.trace, size))
            _report(records[-1])
        if args.smoke:
            workdir = os.path.join(root, ".perfbench",
                                   f"selftest-{os.getpid()}")
            try:
                selftest, _ = _worker(
                    root, ["selftest", "--store",
                           os.path.join(workdir, "store")],
                    time.monotonic() + RUN_BUDGET_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"selftest": selftest}))
            if not selftest["ok"] or not all(
                    r["result"]["correct"] for r in records):
                return 1
    except subprocess.TimeoutExpired:
        print("perfbench: a worker exceeded the run budget", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
