"""Perf smoke test: the table-native feed must not lose to the row path.

Runs a one-seed slice of the ``benchmarks/bench_hotloop.py`` grid
through both feeds and asserts the table leg is at least roughly as
fast as the row-``Workload`` reference.  The two legs share the whole
overhauled event loop — the table feed's win over it is the skipped
``to_workload()`` materialization, a modest margin that CI jitter can
eat — so the tripwire only requires "not slower by much", while the
schedules themselves must match *exactly*.  Real numbers belong to
``benchmarks/bench_hotloop.py`` + ``benchmarks/compare_bench.py``
against the checked-in ``BENCH_hotloop.json``; this is the guard that
runs on every push (``-m perf``).  Each leg is timed as the median of
:data:`REPS` interleaved cold runs, as ``benchmarks/bench_chain.py``
does, so one scheduling hiccup in a ~50 ms leg cannot fail it.
"""

import pytest

from repro.experiments.config import WorkloadSpec

from benchmarks.bench_hotloop import (
    TRACE,
    _median,
    _time_leg,
    digest_sweep,
    run_row_serial,
    run_table_serial,
)

#: The table leg skips per-cell Job materialization for unreached rows
#: and shares everything else; require only that it is not meaningfully
#: slower than the row leg, so a noisy runner cannot false-alarm.
MAX_SLOWDOWN = 1.25

#: Interleaved timing repetitions per leg; the median is compared.
REPS = 3


@pytest.fixture()
def conditions():
    return [
        (WorkloadSpec(TRACE, 500, 1, load, "user"), horizon)
        for load in (0.9, 1.2)
        for horizon in (300, 500)
    ]


@pytest.mark.perf
def test_table_feed_keeps_up_with_row_feed(conditions):
    row_times, table_times = [], []
    for _ in range(REPS):
        seconds, row_events = _time_leg(run_row_serial, conditions)
        row_times.append(seconds)
        seconds, table_events = _time_leg(run_table_serial, conditions)
        table_times.append(seconds)
        assert row_events == table_events
    row_seconds = _median(row_times)
    table_seconds = _median(table_times)
    assert table_seconds <= row_seconds * MAX_SLOWDOWN, (
        f"table-native feed fell behind the row reference: "
        f"{table_seconds:.3f}s table vs {row_seconds:.3f}s rows; run "
        "benchmarks/bench_hotloop.py and compare against the checked-in "
        "BENCH_hotloop.json"
    )


@pytest.mark.perf
def test_both_feeds_schedule_identically(conditions):
    assert digest_sweep(conditions, table=False) == digest_sweep(
        conditions, table=True
    )
