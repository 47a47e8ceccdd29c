"""Unit tests for the experiment runner (factories + caching)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    cached_workload,
    clear_cache,
    make_estimate_model,
    make_scheduler,
    make_workload,
    run_cell,
)
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.workload.estimates import (
    ClampedEstimate,
    ExactEstimate,
    MultiplicativeEstimate,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


SMALL = WorkloadSpec(n_jobs=120, seed=3)


class TestEstimateModels:
    def test_exact(self):
        assert isinstance(make_estimate_model(SMALL), ExactEstimate)

    def test_multiplicative(self):
        model = make_estimate_model(SMALL.with_estimate("r2"))
        assert isinstance(model, MultiplicativeEstimate)
        assert model.factor == 2.0

    def test_user_is_clamped_to_trace_queue_limit(self):
        model = make_estimate_model(SMALL.with_estimate("user"))
        assert isinstance(model, ClampedEstimate)
        assert model.max_estimate == 64_800.0  # CTC 18 h limit


class TestWorkloadFactory:
    def test_ctc_machine_size(self):
        wl = make_workload(SMALL)
        assert wl.max_procs == 430
        assert len(wl) == 120

    def test_load_scaling_applied(self):
        normal = make_workload(WorkloadSpec(n_jobs=200, load_scale=1.0))
        high = make_workload(WorkloadSpec(n_jobs=200, load_scale=0.5))
        assert high.offered_load == pytest.approx(normal.offered_load * 2, rel=1e-6)

    def test_estimates_attached_for_user_regime(self):
        wl = make_workload(WorkloadSpec(n_jobs=300, estimate="user"))
        assert any(j.estimate > j.runtime for j in wl)

    def test_r2_estimates(self):
        wl = make_workload(SMALL.with_estimate("r2"))
        for job in wl:
            assert job.estimate == pytest.approx(2 * job.runtime)

    def test_estimate_rng_independent_of_workload_rng(self):
        # Same workload seed, different estimate regimes: shapes identical.
        exact = make_workload(SMALL)
        user = make_workload(SMALL.with_estimate("user"))
        assert [j.runtime for j in exact] == [j.runtime for j in user]
        assert [j.procs for j in exact] == [j.procs for j in user]


class TestSchedulerFactory:
    def test_kinds(self):
        assert isinstance(make_scheduler("cons"), ConservativeScheduler)
        assert isinstance(make_scheduler("easy", "SJF"), EasyScheduler)
        assert isinstance(make_scheduler("sel"), SelectiveScheduler)

    def test_priority_forwarded(self):
        assert make_scheduler("easy", "XF").priority.name == "XF"

    def test_options_forwarded(self):
        sched = make_scheduler("cons", compression="none")
        assert sched.compression == "none"
        sel = make_scheduler("sel", xfactor_threshold=3.0)
        assert sel.xfactor_threshold == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("magic")


class TestCellCache:
    def test_cell_results_are_cached(self):
        with pytest.deprecated_call():
            first = run_cell(SMALL, "easy", "FCFS")
            second = run_cell(SMALL, "easy", "FCFS")
        assert first is second

    def test_cache_distinguishes_options(self):
        with pytest.deprecated_call():
            a = run_cell(SMALL, "cons", "FCFS", compression="repack")
            b = run_cell(SMALL, "cons", "FCFS", compression="none")
        assert a is not b

    def test_workload_cache(self):
        assert cached_workload(SMALL) is cached_workload(SMALL)

    def test_clear_cache(self):
        with pytest.deprecated_call():
            first = run_cell(SMALL, "easy", "FCFS")
            clear_cache()
            assert run_cell(SMALL, "easy", "FCFS") is not first

    def test_run_cell_delegates_to_cell_api(self):
        from repro.exec import Cell, default_store

        with pytest.deprecated_call():
            metrics = run_cell(SMALL, "easy", "SJF")
        stored = default_store().get(Cell(SMALL, "easy", "SJF"))
        assert stored is not None
        assert stored.metrics is metrics

    def test_run_cell_deprecation_path_still_returns_correct_metrics(self):
        """The wrapper must warn AND keep producing the real simulation
        result — deprecation is a migration path, not a behaviour change."""
        from repro.sim.engine import simulate

        with pytest.deprecated_call():
            metrics = run_cell(SMALL, "cons", "SJF")
        direct = simulate(
            make_workload(SMALL), make_scheduler("cons", "SJF")
        ).metrics
        assert metrics.overall.mean_wait == direct.overall.mean_wait
        assert (
            metrics.overall.mean_bounded_slowdown
            == direct.overall.mean_bounded_slowdown
        )
        assert len(metrics.records) == len(direct.records)

    def test_workload_cache_is_bounded(self):
        from repro.experiments.runner import WORKLOAD_CACHE_LIMIT, _workload_cache

        specs = [
            WorkloadSpec(n_jobs=10, seed=seed)
            for seed in range(WORKLOAD_CACHE_LIMIT + 5)
        ]
        for spec in specs:
            cached_workload(spec)
        assert len(_workload_cache) == WORKLOAD_CACHE_LIMIT
        # Least-recently-used entries (the earliest seeds) were evicted...
        assert specs[0] not in _workload_cache
        # ...and the most recent survive.
        assert specs[-1] in _workload_cache

    def test_workload_cache_lru_order(self):
        from repro.experiments.runner import WORKLOAD_CACHE_LIMIT, _workload_cache

        first = WorkloadSpec(n_jobs=10, seed=0)
        cached_workload(first)
        for seed in range(1, WORKLOAD_CACHE_LIMIT):
            cached_workload(WorkloadSpec(n_jobs=10, seed=seed))
        cached_workload(first)  # touch: now most-recently used
        cached_workload(WorkloadSpec(n_jobs=10, seed=WORKLOAD_CACHE_LIMIT))
        assert first in _workload_cache  # survived the eviction
        assert WorkloadSpec(n_jobs=10, seed=1) not in _workload_cache


class TestBaseTableCache:
    """One cached table per (trace, seed) stream, shorter horizons as prefixes."""

    @pytest.fixture()
    def generated(self, monkeypatch):
        from repro.workload.generators.base import ModelGenerator

        calls = []
        real = ModelGenerator.generate

        def recording(self, n_jobs, *, seed=0):
            calls.append((self.model.name, n_jobs, seed))
            return real(self, n_jobs, seed=seed)

        monkeypatch.setattr(ModelGenerator, "generate", recording)
        return calls

    def test_shorter_horizon_is_a_prefix_without_regenerating(self, generated):
        from repro.experiments.runner import _base_table_cache, base_workload_table

        long = base_workload_table("CTC", 90, 4)
        short = base_workload_table("CTC", 30, 4)
        assert generated == [("CTC", 90, 4)]
        assert len(short) == 30
        for name, column in short.columns.items():
            assert (column == long.columns[name][:30]).all()
        assert base_workload_table("CTC", 90, 4) is long
        assert list(_base_table_cache) == [("CTC", 4)]

    def test_longer_horizon_regenerates_and_replaces(self, generated):
        from repro.experiments.runner import _base_table_cache, base_workload_table

        base_workload_table("SDSC", 30, 4)
        longer = base_workload_table("SDSC", 60, 4)
        base_workload_table("SDSC", 45, 4)
        assert generated == [("SDSC", 30, 4), ("SDSC", 60, 4)]
        assert _base_table_cache[("SDSC", 4)] is longer

    def test_negative_horizon_still_rejected_by_the_generator(self):
        from repro.errors import WorkloadError
        from repro.experiments.runner import base_workload_table

        base_workload_table("CTC", 30, 4)
        with pytest.raises(WorkloadError, match="n_jobs must be >= 0"):
            base_workload_table("CTC", -1, 4)
