"""Distributed sweep execution: a coordinator and N queue-draining workers.

Two halves, both thin over :class:`~repro.exec.queue.CellQueue`:

* :func:`run_worker` — the worker loop behind ``repro worker``: claim a
  batch of chain-group leases, simulate them through the existing
  :func:`~repro.exec.chains.simulate_chunk_chained` path (the runner's
  per-process base-table cache plays the preload role across leases — a
  worker generates each ``(trace, seed)`` stream once at the longest
  horizon it is asked for, answers shorter horizons with its prefix, and
  forks chains within a group exactly as the process-pool path does),
  and commit every group's results in the same transaction that marks
  its lease done.  Run any number of these, on one host or many sharing
  a filesystem.
* :class:`DistExecutor` — a drop-in :class:`CellExecutor`: resolves warm
  cells against the store in one ``get_many``, enqueues only the misses,
  optionally spawns local worker processes (spawn context — workers must
  never inherit the coordinator's SQLite handles), and waits for the
  queue to drain.  Results the coordinator simulated itself (inline
  drain, ``workers=0``) are handed to its store's memory layer as each
  group commits, so only results other workers committed are read back
  and decoded from the shared database; every result is still checked
  against the database's row metadata before it is returned.  Because it
  *is* a ``CellExecutor``, it installs with
  :func:`repro.exec.set_default_executor` and everything built on
  :func:`repro.exec.run_cells` — experiments, the CLI — distributes
  without knowing it.

Failure policy: a :class:`~repro.errors.ReproError` from the simulation
is deterministic — retrying cannot help — so the group is poisoned
immediately; any other exception returns the group to pending until its
attempt count hits the cap.  A worker that dies without a trace simply
stops renewing its lease, and the next claimant steals the group after
the deadline.  The coordinator surfaces poisoned cells as one loud
:class:`~repro.errors.ReproError` naming them.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.exec.backends.sqlite import SqliteBackend
from repro.exec.cell import Cell
from repro.exec.chains import simulate_chunk_chained
from repro.exec.executor import CellExecutor, ExecutionReport
from repro.exec.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    CellQueue,
)
from repro.exec.store import ResultStore, StoredResult
from repro.metrics.collector import RunMetrics

__all__ = ["WorkerReport", "run_worker", "worker_process_main", "DistExecutor"]

#: Groups per claim batch: enough to amortize the claim transaction
#: without hoarding work a crashed worker would strand until expiry.
DEFAULT_BATCH_GROUPS = 4


def _default_owner() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerReport:
    """What one :func:`run_worker` loop accomplished."""

    owner: str
    groups_completed: int = 0
    groups_failed: int = 0
    cells_simulated: int = 0
    events_processed: int = 0
    sim_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    chains: int = 0
    chained_cells: int = 0
    chain_forks: int = 0
    #: Claim calls that found nothing claimable (drain checks + waits on
    #: other workers' live leases).
    idle_polls: int = 0
    #: Cells whose lease deadline this worker pushed out between chain
    #: groups of a multi-group claim batch.
    leases_renewed: int = 0

    def render(self) -> str:
        line = (
            f"worker {self.owner}: {self.cells_simulated} cells in "
            f"{self.groups_completed} groups"
            f" | {self.events_processed} events"
            f" | {self.elapsed_seconds:.1f}s"
        )
        if self.chains:
            line += f" | {self.chains} chains ({self.chain_forks} forks)"
        if self.leases_renewed:
            line += f" | {self.leases_renewed} leases renewed"
        if self.groups_failed:
            line += f" | {self.groups_failed} groups failed"
        return line


def run_worker(
    queue_dir: str | os.PathLike,
    *,
    owner: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    batch_groups: int = DEFAULT_BATCH_GROUPS,
    poll_seconds: float = 0.5,
    idle_seconds: float = 0.0,
    progress: Callable[[WorkerReport], None] | None = None,
    commit: Callable[[list[tuple[Cell, StoredResult]]], None] | None = None,
) -> WorkerReport:
    """Drain the queue at ``queue_dir``: claim, simulate, commit, repeat.

    ``commit``, when given, receives each group's ``[(cell, stored), ...]``
    list right after the queue has committed it — the inline-draining
    coordinator passes its store's :meth:`~ResultStore.remember_many`
    here, so it never decodes what it has just simulated.

    Exits when the queue holds no open work (``idle_seconds`` lets a
    worker linger that long for new work first — useful for workers
    started before the sweep is enqueued).  While other workers hold
    live leases it waits rather than exiting, so it is there to steal
    should they die.  Claimed-but-unfinished leases are released on any
    exit path; a SIGKILL skips that and costs only the lease deadline.
    """
    queue = CellQueue(
        queue_dir, lease_seconds=lease_seconds, max_attempts=max_attempts
    )
    report = WorkerReport(owner=owner or _default_owner())
    started = time.perf_counter()
    idle_since: float | None = None
    try:
        while True:
            claimed = queue.claim(report.owner, limit_groups=batch_groups)
            if claimed:
                idle_since = None
                for index, group in enumerate(claimed):
                    _run_group(queue, group, report, commit)
                    # One group can outlive the whole batch's lease (a
                    # deep-queue condition simulates orders of magnitude
                    # slower than the median cell), so re-arm the
                    # deadline on the groups still waiting their turn
                    # before starting the next one.  Renewal skips
                    # anything already stolen — that work now belongs
                    # to the thief and re-simulating it here would race
                    # the commit.
                    remaining = [g.group_id for g in claimed[index + 1 :]]
                    if remaining:
                        report.leases_renewed += queue.renew(
                            report.owner, remaining
                        )
                    report.elapsed_seconds = time.perf_counter() - started
                    if progress is not None:
                        progress(report)
                continue
            report.idle_polls += 1
            if queue.stats().open_cells == 0:
                now = time.perf_counter()
                if idle_since is None:
                    idle_since = now
                if now - idle_since >= idle_seconds:
                    break
            # Open cells remain but nothing is claimable: other workers
            # hold live leases.  Wait — either they finish, or their
            # leases expire and the next claim steals the work.
            time.sleep(poll_seconds)
    finally:
        queue.release(report.owner)
        report.elapsed_seconds = time.perf_counter() - started
        queue.close()
    return report


def _run_group(queue: CellQueue, group, report: WorkerReport, commit) -> None:
    """Simulate one claimed group and commit or fail it."""
    cells = list(group.cells)
    try:
        storeds, stats = simulate_chunk_chained(cells)
    except Exception as exc:  # noqa: BLE001 — failure policy needs the lot
        poison = isinstance(exc, ReproError) or group.attempts >= queue.max_attempts
        queue.fail(group.group_id, f"{type(exc).__name__}: {exc}", poison=poison)
        report.groups_failed += 1
        return
    pairs = list(zip(cells, storeds))
    queue.complete(report.owner, [group.group_id], pairs)
    if commit is not None:
        commit(pairs)
    report.groups_completed += 1
    report.cells_simulated += len(cells)
    report.events_processed += sum(s.events_processed for s in storeds)
    report.sim_seconds += sum(s.sim_seconds for s in storeds)
    report.chains += stats.chains
    report.chained_cells += stats.chained_cells
    report.chain_forks += stats.forks


def worker_process_main(
    queue_dir: str,
    owner: str | None,
    lease_seconds: float,
    max_attempts: int,
    batch_groups: int,
    poll_seconds: float,
) -> None:
    """Spawn-safe process target wrapping :func:`run_worker`."""
    run_worker(
        queue_dir,
        owner=owner,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        batch_groups=batch_groups,
        poll_seconds=poll_seconds,
    )


class DistExecutor(CellExecutor):
    """A :class:`CellExecutor` that runs its misses through the queue.

    ``workers`` local worker processes are spawned per batch (0 means
    the coordinator drains inline — and external ``repro worker``
    processes pointed at the same directory join in either way).  The
    store is the queue directory's SQLite database, so workers' commits
    are immediately visible to the coordinator and to the next sweep.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        *,
        workers: int = 0,
        store: ResultStore | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        batch_groups: int = DEFAULT_BATCH_GROUPS,
        poll_seconds: float = 0.2,
        progress: Callable[[ExecutionReport], None] | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        queue_dir = Path(queue_dir)
        if store is None:
            store = ResultStore(queue_dir, backend="sqlite")
        else:
            backend = store.backend
            if (
                not isinstance(backend, SqliteBackend)
                or backend.path != SqliteBackend(queue_dir).path
            ):
                raise ConfigurationError(
                    "DistExecutor needs a sqlite-backed store on the queue "
                    "directory itself — workers commit results there"
                )
        super().__init__(max_workers=1, store=store, progress=progress)
        self.queue = CellQueue(
            queue_dir, lease_seconds=lease_seconds, max_attempts=max_attempts
        )
        self.workers = workers
        self.batch_groups = batch_groups
        self.poll_seconds = poll_seconds

    def execute(self, cells: Iterable[Cell]) -> list[RunMetrics]:
        ordered = list(cells)
        started = time.perf_counter()
        report = ExecutionReport(cells_total=len(ordered))
        report.parallel_requested = True
        self.last_report = report
        corrupt_before = self.store.stats.corrupt_dropped
        stale_before = self.store.stats.stale_dropped

        unique = list(dict.fromkeys(ordered))
        resolved = self.store.get_many(unique)
        misses = [cell for cell in unique if cell not in resolved]
        report.cache_hits = len(resolved)
        report.completed = len(resolved)
        report.elapsed_seconds = time.perf_counter() - started
        if report.completed:
            self._emit(report)

        if misses:
            sim_started = time.perf_counter()
            report.parallel_used = self.workers > 0
            report.parallel_reason = (
                f"dist queue, {self.workers} local workers"
                if self.workers
                else "dist queue, inline drain"
            )
            self.queue.enqueue(misses)
            procs = self._spawn_workers()
            try:
                if not procs:
                    # The coordinator is the local worker; any external
                    # workers steal from the same queue concurrently.
                    inline = run_worker(
                        self.queue.queue_dir,
                        lease_seconds=self.queue.lease_seconds,
                        max_attempts=self.queue.max_attempts,
                        batch_groups=self.batch_groups,
                        poll_seconds=self.poll_seconds,
                        commit=self.store.remember_many,
                    )
                    report.chains += inline.chains
                    report.chained_cells += inline.chained_cells
                    report.chain_forks += inline.chain_forks
                self._await_drain(misses, report, started, sim_started)
            finally:
                self._reap_workers(procs)
            self._raise_poisoned(misses)
            report.completed = report.cache_hits
            # Inline results answer from the memory layer; the rest are
            # read back.  Either way each must have its row on disk.
            fetched = self.store.get_many(misses)
            keys = [cell.content_hash() for cell in misses]
            persisted = self.store.backend.resolve_many(keys).hits
            lost = [
                cell
                for cell, key in zip(misses, keys)
                if cell not in fetched or key not in persisted
            ]
            if lost:
                raise ReproError(
                    f"distributed sweep finished but {len(lost)} result(s) "
                    f"did not read back (first: {lost[0].label()}); the "
                    "queue marked them done — store corruption?"
                )
            for cell in misses:
                stored = fetched[cell]
                resolved[cell] = stored
                self._note_simulated(report, stored, started, sim_started)
            report.sim_elapsed_seconds = time.perf_counter() - sim_started
        else:
            report.parallel_reason = "fully cached"

        report.corrupt_dropped = self.store.stats.corrupt_dropped - corrupt_before
        report.stale_dropped = self.store.stats.stale_dropped - stale_before
        report.elapsed_seconds = time.perf_counter() - started
        self.session.absorb(report)
        return [resolved[cell].metrics for cell in ordered]

    # -- internals -------------------------------------------------------------

    def _spawn_workers(self) -> list:
        """Start the local worker fleet (spawn context: no inherited
        SQLite handles, identical semantics on every platform)."""
        ctx = multiprocessing.get_context("spawn")
        procs = []
        for index in range(self.workers):
            proc = ctx.Process(
                target=worker_process_main,
                args=(
                    str(self.queue.queue_dir),
                    f"{_default_owner()}:w{index}",
                    self.queue.lease_seconds,
                    self.queue.max_attempts,
                    self.batch_groups,
                    self.poll_seconds,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        return procs

    def _reap_workers(self, procs: Sequence) -> None:
        """Collect workers (they exit at drain); escalate if one hangs."""
        for proc in procs:
            proc.join(timeout=max(30.0, 2 * self.queue.lease_seconds))
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    def _await_drain(
        self,
        misses: Sequence[Cell],
        report: ExecutionReport,
        started: float,
        sim_started: float,
    ) -> None:
        """Poll the queue until every miss is done or poisoned."""
        while True:
            states = self.queue.states_for(misses)
            finished = sum(
                1 for state in states.values() if state in ("done", "poisoned")
            )
            done = sum(1 for state in states.values() if state == "done")
            report.completed = report.cache_hits + done
            report.elapsed_seconds = time.perf_counter() - started
            report.sim_elapsed_seconds = time.perf_counter() - sim_started
            self._emit(report)
            if finished >= len(misses):
                return
            time.sleep(self.poll_seconds)

    def _raise_poisoned(self, misses: Sequence[Cell]) -> None:
        states = self.queue.states_for(misses)
        bad = [
            cell
            for cell in misses
            if states.get(cell.content_hash()) == "poisoned"
        ]
        if not bad:
            return
        errors = {p.key: p.error for p in self.queue.poisoned()}
        shown = ", ".join(
            f"{cell.label()} [{errors.get(cell.content_hash()) or 'unknown error'}]"
            for cell in bad[:5]
        )
        more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ReproError(
            f"distributed sweep poisoned {len(bad)} cell(s): {shown}{more}; "
            "inspect with 'repro queue stats', retry with 'repro queue requeue'"
        )
