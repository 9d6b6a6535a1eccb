"""Output checks of the benchmark's workloads.

Every check is counted, never raised: a :class:`Tally` records how many
ran and which failed.  Each check is a plain function over the program's
own result objects, so ``worker.py selftest`` can plant a wrong answer
in a real result and show that the check rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    #: failed check name -> count (for the result record)
    failures: dict[str, int] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1
        return ok


def is_run_key(key) -> bool:
    """Run-payload keys are ``(loop, strategy, seed, config, timing, n,
    core)``; sampler keys start with ``"sample"``."""
    return not (isinstance(key, tuple) and key and key[0] == "sample")


# -- suite-cold: one exact run ---------------------------------------------


def oracle_ok(payload: dict) -> bool:
    """The run's memory matched the scalar IR oracle."""
    return payload["correct"] is True


def no_failure_ok(payload: dict) -> bool:
    """The run carries no RunFailure (no retry, no degradation)."""
    return not payload.get("failures")


def timed_ops_ok(payload: dict) -> bool:
    """A timed run timed exactly the ops it emulated."""
    pipe = payload["pipe"]
    return pipe is None or pipe.instructions == payload["emu"].dynamic_instructions


def replay_bound_ok(payload: dict, vector_lanes: int) -> bool:
    """No region replayed more than ``vector_lanes - 1`` times."""
    return payload["emu"].srv.max_replays_in_region <= vector_lanes - 1


def check_run(tally: Tally, key: tuple, payload: dict) -> None:
    tally.check("oracle", oracle_ok(payload))
    tally.check("no_run_failure", no_failure_ok(payload))
    tally.check("timed_ops", timed_ops_ok(payload))
    tally.check("replay_bound", replay_bound_ok(payload, key[3].vector_lanes))


# -- sweep-warm --------------------------------------------------------------


def table(result) -> tuple:
    """Comparable value of one experiment's output table."""
    return (result.name, result.title, tuple(result.columns),
            [tuple(row) for row in result.rows], repr(result.summary),
            repr(result.failures))


def tables_ok(results: dict, reference: dict, name: str) -> bool:
    """Experiment ``name`` reproduced the cold sweep's table exactly."""
    return name in results and table(results[name]) == reference.get(name)


def check_lookups(tally: Tally, lookups: list) -> None:
    """Each store lookup of a warm pass is one operation; a miss fails.

    ``lookups`` holds ``(key, hit)`` for every ``ResultCache.get`` that
    read the store.  A sampled entry's miss is fault 1
    (``sample_store_hit``); a run entry's miss is a fault of its own
    (``store_hit``).
    """
    for key, hit in lookups:
        tally.check("store_hit" if is_run_key(key) else "sample_store_hit",
                    hit)


# -- long-kernel -------------------------------------------------------------


def sampled_ops_ok(report, exact: dict) -> bool:
    """The sampler covered exactly the ops the exact run emulated."""
    return report.total_ops == exact["emu"].dynamic_instructions


def projection_error_pct(report, exact: dict) -> float:
    """The projection's distance from the exact cycles, in percent."""
    cycles = exact["pipe"].cycles
    return abs(report.projected_cycles - cycles) / cycles * 100.0


def projection_ok(report, exact: dict, bound_pct: float) -> bool:
    """The projection lies within ``bound_pct`` of the exact cycles."""
    return projection_error_pct(report, exact) <= bound_pct


def check_projection(tally: Tally, report, exact: dict,
                     bound_pct: float) -> None:
    """A miss of up to twice ``bound_pct`` is fault 2 (+5.15% today,
    ``long_projection``); a wider one is a fault of its own
    (``long_projection_far``)."""
    error = projection_error_pct(report, exact)
    name = "long_projection" if error <= 2 * bound_pct \
        else "long_projection_far"
    tally.check(name, error <= bound_pct)


def check_long(tally: Tally, exact: dict, report, bound_pct: float) -> None:
    """``exact`` is the exact run's payload, ``report`` the projection."""
    tally.check("long_oracle", oracle_ok(exact))
    tally.check("long_no_run_failure", no_failure_ok(exact))
    tally.check("long_timed_ops", timed_ops_ok(exact))
    tally.check("long_sampled_ops", sampled_ops_ok(report, exact))
    check_projection(tally, report, exact, bound_pct)
