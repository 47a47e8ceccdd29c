"""Property: the base-table cache answers every horizon exactly.

The runner memoizes one generated table per ``(trace, seed)`` stream and
answers shorter horizons with its prefix.  Whatever the cache held first
— a longer table of the stream, a shorter one, or nothing — the table it
returns must equal a fresh generation of that horizon in every column
and in its metadata, and so must every spec derived from it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    base_workload_table,
    clear_cache,
    make_workload_rows,
    make_workload_table,
)
from repro.workload.generators import CTCGenerator, LublinGenerator, SDSCGenerator
from repro.workload.table import JobTable

GENERATORS = {"CTC": CTCGenerator, "SDSC": SDSCGenerator, "LUBLIN": LublinGenerator}
ESTIMATES = ("exact", "r2", "r4", "user")


def _assert_same_table(got: JobTable, want: JobTable) -> None:
    assert got.max_procs == want.max_procs
    assert got.name == want.name
    assert got.metadata == want.metadata
    assert got.columns.keys() == want.columns.keys()
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        assert np.array_equal(got.columns[name], column), name


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cached_horizon_equals_fresh_generation(data):
    trace = data.draw(st.sampled_from(sorted(GENERATORS)), label="trace")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    n = data.draw(st.integers(1, 60), label="n")
    primed = data.draw(st.sampled_from(("nothing", "longer", "shorter")), label="primed")
    clear_cache()
    try:
        if primed == "longer":
            base_workload_table(trace, data.draw(st.integers(n, 90), label="N"), seed)
        elif primed == "shorter":
            base_workload_table(trace, data.draw(st.integers(1, n), label="m"), seed)

        fresh = JobTable.from_workload(GENERATORS[trace]().generate(n, seed=seed))
        _assert_same_table(base_workload_table(trace, n, seed), fresh)

        load = data.draw(st.sampled_from((0.75, 1.0, 1.3)), label="load")
        for estimate in ESTIMATES:
            spec = WorkloadSpec(trace, n, seed, load, estimate)
            _assert_same_table(
                make_workload_table(spec),
                JobTable.from_workload(make_workload_rows(spec)),
            )
    finally:
        clear_cache()
