"""ResultStore: layered lookup, disk round-trips, corruption tolerance."""

import json

import pytest

from repro.exec import Cell, ResultStore, StoredResult, metrics_digest, simulate_cell
from repro.experiments.config import WorkloadSpec

SPEC = WorkloadSpec(trace="CTC", n_jobs=80, seed=3, load_scale=0.75, estimate="exact")
CELL = Cell(SPEC, "easy", "FCFS")


@pytest.fixture(scope="module")
def stored():
    return simulate_cell(CELL)


class TestMemoryLayer:
    def test_miss_then_hit_returns_identical_object(self, stored):
        store = ResultStore()
        assert store.get(CELL) is None
        store.put(CELL, stored)
        assert store.get(CELL) is stored
        assert store.get(CELL) is stored
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 2

    def test_clear_memory(self, stored):
        store = ResultStore()
        store.put(CELL, stored)
        assert len(store) == 1
        store.clear_memory()
        assert len(store) == 0
        assert store.get(CELL) is None

    def test_memory_only_store_has_no_paths(self):
        assert ResultStore().path_for(CELL) is None

    def test_remember_many_fills_memory_and_writes_nothing(self, stored, tmp_path):
        store = ResultStore(cache_dir=tmp_path, backend="sqlite")
        store.remember_many([(CELL, stored)])
        assert store.get(CELL) is stored
        assert store.stats.memory_hits == 1
        assert store.stats.writes == 0
        assert store.entry_count() == 0


class TestDiskLayer:
    def test_round_trip_is_float_identical(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        fresh = ResultStore(cache_dir=tmp_path)
        loaded = fresh.get(CELL)
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        assert metrics_digest(loaded.metrics) == metrics_digest(stored.metrics)
        assert loaded.metrics.utilization == stored.metrics.utilization
        assert (
            loaded.metrics.overall.mean_bounded_slowdown
            == stored.metrics.overall.mean_bounded_slowdown
        )
        assert loaded.events_processed == stored.events_processed

    def test_disk_hit_promotes_to_memory(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        fresh = ResultStore(cache_dir=tmp_path)
        first = fresh.get(CELL)
        second = fresh.get(CELL)
        assert first is second
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1

    def test_put_writes_one_file_per_cell(self, stored, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put(CELL, stored)
        store.put(Cell(SPEC, "cons", "FCFS"), stored)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 2
        assert store.path_for(CELL) in files


class TestCorruptionTolerance:
    def test_truncated_file_is_dropped_and_remissed(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        path = ResultStore(cache_dir=tmp_path).path_for(CELL)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.corrupt_dropped == 1
        assert not path.exists()  # the bad file is unlinked, not left to rot

    def test_garbage_json_is_dropped(self, stored, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put(CELL, stored)
        store.path_for(CELL).write_text("not json at all {{{")
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.corrupt_dropped == 1

    def test_schema_mismatch_is_stale_not_corrupt(self, stored, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put(CELL, stored)
        path = store.path_for(CELL)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.stale_dropped == 1
        assert fresh.stats.corrupt_dropped == 0
        assert not path.exists()  # stale entries are reaped like corrupt ones

    def test_wrong_cell_payload_is_a_miss(self, stored, tmp_path):
        # A hash collision (or a hand-renamed file) must not serve the
        # wrong cell's result.
        store = ResultStore(cache_dir=tmp_path)
        other = Cell(SPEC, "cons", "FCFS")
        store.put(other, stored)
        store.path_for(other).rename(store.path_for(CELL))
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None

    def test_corruption_recovers_via_resimulation(self, stored, tmp_path):
        from repro.exec import CellExecutor

        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        path = ResultStore(cache_dir=tmp_path).path_for(CELL)
        path.write_text("corrupt")
        executor = CellExecutor(store=ResultStore(cache_dir=tmp_path))
        [metrics] = executor.execute([CELL])
        assert metrics_digest(metrics) == metrics_digest(stored.metrics)
        assert executor.last_report.simulated == 1
        # The rewritten file is valid again.
        assert ResultStore(cache_dir=tmp_path).get(CELL) is not None


class TestStats:
    def test_hit_rate(self, stored):
        store = ResultStore()
        assert store.stats.hit_rate == 0.0
        store.get(CELL)
        store.put(CELL, stored)
        store.get(CELL)
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == 0.5

    def test_stored_result_defaults(self, stored):
        bare = StoredResult(metrics=stored.metrics)
        assert bare.events_processed == 0
        assert bare.sim_seconds == 0.0
