"""The benchmark's three workloads.

Each workload is a sequence of *rounds*.  A round's inputs come from
one round seed (derived from the run's ``--seed``), so the same seed
always gives the same inputs; :meth:`run_round` drives the program
through its public API, times the measured parts, checks the outputs,
and returns a :class:`RoundResult`.  With a :class:`~tracer.Tracer`
installed, the measured parts are also recorded as spans.

* ``paper-grid`` — the paper's section 4 matrix (CTC+SDSC x {cons, easy}
  x {FCFS, SJF, XF} x {exact, r2, r4, user}, 48 cells) at
  ``HIGH_LOAD_SCALE``, cold through ``run_cells`` on a serial
  ``CellExecutor`` with a fresh SQLite store, then rerun from a freshly
  opened store.
* ``seed-sweep`` — seeds x {CTC, SDSC} x two load scales x three
  horizons x {nobf, easy} FCFS with user estimates, drained through
  ``DistExecutor(workers=0)`` and rerun.
* ``serve-live`` — the HTTP front-end in a thread of this process; one
  keep-alive client replays a high-load SDSC EASY stream: per job
  ``/advance`` + ``/submit`` (writes), then ``/what-if`` (a read).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec import CellExecutor, DistExecutor, ResultStore, metrics_digest, run_cells
from repro.exec.cell import Cell
from repro.exec.serialize import metrics_to_payload
from repro.experiments import runner
from repro.experiments.config import HIGH_LOAD_SCALE, WorkloadSpec
from repro.metrics.collector import RunMetrics
from repro.serve import Session
from repro.serve.http import make_server
from repro.serve.protocol import job_to_payload
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

from tracer import SPAN_HEADER, Tracer, instrument_handler

__all__ = ["WORKLOADS", "RoundResult", "round_seed"]

#: Jobs per paper-grid cell: queues deep enough that the profile kernel
#: and scheduler decisions take most of the cold pass, yet one seed's 48
#: cells take only seconds, so a run still covers several seeds.
PAPER_JOBS = 400
PAPER_TRACES = ("CTC", "SDSC")
PAPER_KINDS = ("cons", "easy")
PAPER_PRIORITIES = ("FCFS", "SJF", "XF")
PAPER_ESTIMATES = ("exact", "r2", "r4", "user")

#: Seeds per seed-sweep round, and the sweep's axes.
SWEEP_SEEDS_PER_ROUND = 4
SWEEP_TRACES = ("CTC", "SDSC")
SWEEP_LOADS = (HIGH_LOAD_SCALE, 1.0)
SWEEP_HORIZONS = (100, 200, 300)
SWEEP_KINDS = ("nobf", "easy")

#: Jobs per serve-live stream (one stream per round), and how often a
#: round restores the session from its end-of-stream snapshot (a restore
#: takes tens of microseconds, so one alone is too short to time).
SERVE_JOBS = 40
SERVE_RESTORES = 200


def round_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th input set (disjoint across run seeds)."""
    return seed * 1000 + index


@dataclass
class RoundResult:
    """What one round measured and checked."""

    ops: int  # operations attempted in the throughput pass
    failed: int  # of those, how many failed
    ops_seconds: float  # wall time of the throughput pass
    rerun_seconds: float
    read_ms: list[float]
    write_ms: list[float]
    #: Output digests by stable key, compared against pinned values.
    digests: dict[str, str]
    #: Correctness-gate failures (empty when the round is correct).
    problems: list[str] = field(default_factory=list)
    #: Deterministic counts the round produced outside the tracer.
    counts: dict[str, int] = field(default_factory=dict)


class _Timer:
    """Wall-clock timer for a measured region; records spans while a
    tracer is given."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        if self.tracer is not None:
            self.tracer.start()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.stop()


def written_bytes(tracer: Tracer) -> int:
    """Bytes of the metrics JSON the store was handed to write, measured
    outside every span; empties the stash."""
    total = 0
    for item in tracer.written_metrics:
        payload = metrics_to_payload(item) if isinstance(item, RunMetrics) else item
        total += len(json.dumps(payload).encode())
    tracer.written_metrics.clear()
    return total


# -- sweeps -------------------------------------------------------------------


def _cell_key(cell: Cell) -> str:
    spec = cell.spec
    return (
        f"{spec.trace}/{spec.n_jobs}/{spec.seed}/{spec.load_scale}/"
        f"{spec.estimate}/{cell.kind}/{cell.priority}"
    )


class _Sweep:
    """A cold pass, a rerun from a reopened store, and single-cell
    lookups, over one round's cells."""

    name = ""

    def cells(self, seed: int) -> list[Cell]:
        raise NotImplementedError

    def executor(self, store_dir: Path) -> CellExecutor:
        raise NotImplementedError

    def close(self, executor: CellExecutor) -> None:
        executor.store.backend.close()

    def check_executor(self, executor) -> list[str]:
        """Gates on the executor after the cold pass."""
        return []

    def check_digests(self, cells, digests: dict[str, str]) -> list[str]:
        """Gates on the cold pass's per-cell digests."""
        return []

    def setup(self, work: Path):
        """Build what a run starts with; returns its teardown."""
        executor = self.executor(work / "setup-store")
        executor.store.entry_count()  # the store opens lazily
        return lambda: self.close(executor)

    def run_round(self, seed: int, work: Path, tracer: Tracer | None) -> RoundResult:
        cells = self.cells(seed)
        store_dir = work / f"{self.name}-{seed}"
        problems: list[str] = []
        counts: dict[str, int] = {}
        try:
            runner.clear_cache()  # cold: regenerate every workload
            executor = self.executor(store_dir)
            with _Timer(tracer) as cold:
                cold_metrics = run_cells(cells, executor=executor)
            problems += self.check_executor(executor)
            if isinstance(executor, DistExecutor):
                counts["exec.queue.retries"] = executor.queue.stats().retried_cells
            self.close(executor)

            executor = self.executor(store_dir)
            with _Timer(tracer) as rerun:
                rerun_metrics = run_cells(cells, executor=executor)
            if executor.last_report.cache_hits != len(cells):
                problems.append(
                    f"rerun simulated {len(cells) - executor.last_report.cache_hits} "
                    "cells instead of reading them back"
                )
            self.close(executor)

            store = ResultStore(store_dir, backend="sqlite")
            store.entry_count()  # open the connection outside the timing
            read_ms, write_ms = [], []
            with _Timer(tracer):
                for cell in cells:
                    started = time.perf_counter()
                    stored = store.get(cell)
                    read_ms.append((time.perf_counter() - started) * 1e3)
                    write_ms.append(stored.sim_seconds * 1e3)
            store.backend.close()
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

        digests = {_cell_key(c): metrics_digest(m) for c, m in zip(cells, cold_metrics)}
        for cell, metrics in zip(cells, rerun_metrics):
            if metrics_digest(metrics) != digests[_cell_key(cell)]:
                problems.append(f"rerun digest differs from cold for {_cell_key(cell)}")
        problems += self.check_digests(cells, digests)
        if tracer is not None:
            counts["exec.store.bytes"] = written_bytes(tracer)
        return RoundResult(
            ops=len(cells),
            failed=0,
            ops_seconds=cold.seconds,
            rerun_seconds=rerun.seconds,
            read_ms=read_ms,
            write_ms=write_ms,
            digests=digests,
            problems=problems,
            counts=counts,
        )


class PaperGrid(_Sweep):
    name = "paper-grid"

    def cells(self, seed: int) -> list[Cell]:
        return [
            Cell.make(WorkloadSpec(trace, PAPER_JOBS, seed, HIGH_LOAD_SCALE, estimate), kind, priority)
            for trace in PAPER_TRACES
            for kind in PAPER_KINDS
            for priority in PAPER_PRIORITIES
            for estimate in PAPER_ESTIMATES
        ]

    def executor(self, store_dir: Path) -> CellExecutor:
        return CellExecutor(store=ResultStore(store_dir, backend="sqlite"))

    def check_digests(self, cells, digests) -> list[str]:
        # Section 4.1: with exact estimates, conservative backfilling's
        # schedule does not depend on the priority order.
        problems = []
        by_trace: dict[str, set[str]] = {}
        for cell in cells:
            if cell.kind == "cons" and cell.spec.estimate == "exact":
                by_trace.setdefault(cell.spec.trace, set()).add(digests[_cell_key(cell)])
        for trace, distinct in sorted(by_trace.items()):
            if len(distinct) != 1:
                problems.append(
                    f"{trace}: cons+exact FCFS/SJF/XF digests differ "
                    f"({len(distinct)} distinct), against section 4.1"
                )
        return problems


class SeedSweep(_Sweep):
    name = "seed-sweep"

    def cells(self, seed: int) -> list[Cell]:
        seeds = [seed * SWEEP_SEEDS_PER_ROUND + i for i in range(SWEEP_SEEDS_PER_ROUND)]
        return [
            Cell.make(WorkloadSpec(trace, horizon, s, load, "user"), kind, "FCFS")
            for s in seeds
            for trace in SWEEP_TRACES
            for load in SWEEP_LOADS
            for horizon in SWEEP_HORIZONS
            for kind in SWEEP_KINDS
        ]

    def executor(self, store_dir: Path) -> DistExecutor:
        return DistExecutor(store_dir, workers=0)

    def close(self, executor: DistExecutor) -> None:
        executor.queue.close()
        executor.store.backend.close()

    def check_executor(self, executor) -> list[str]:
        stats = executor.queue.stats()
        if stats.retried_cells or stats.poisoned_cells:
            return [
                f"queue retried {stats.retried_cells} and poisoned "
                f"{stats.poisoned_cells} cells; both must be 0"
            ]
        return []


# -- serve-live ---------------------------------------------------------------


class _Client:
    """One keep-alive HTTP/JSON client; counts responses and their bytes."""

    def __init__(self, address, tracer: Tracer | None) -> None:
        self.conn = http.client.HTTPConnection(*address, timeout=60)
        self.tracer = tracer
        self.response_bytes = 0

    def post(self, path: str, body: dict) -> tuple[int, dict, bytes]:
        data = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        tracer = self.tracer
        span = None
        if tracer is not None and tracer.recording:
            span = tracer.open("serve.net:request")
            headers[SPAN_HEADER] = str(span)
        self.conn.request("POST", path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        if span is not None:
            tracer.close(span)
        self.response_bytes += len(raw)
        return response.status, json.loads(raw), raw

    def close(self) -> None:
        self.conn.close()


def _hypothetical(seed: int, index: int) -> dict:
    """A deterministically varied what-if job for stream position ``index``."""
    mix = (seed * 7919 + index * 104729) % 997
    return {
        "runtime": float((60, 600, 3600, 14400)[mix % 4] * (1 + mix % 5)),
        "procs": (1, 4, 16, 64)[(mix // 4) % 4],
    }


class ServeLive:
    name = "serve-live"

    def setup(self, work: Path):
        server = make_server(Session(128, scheduler="easy", metrics="exact"))
        return server.server_close

    @staticmethod
    def _start(session: Session):
        """The HTTP front-end, serving the one client connection in one
        thread (the client is the only other thread)."""
        server = make_server(session)

        def serve_one_connection():
            request, address = server.get_request()
            try:
                server.finish_request(request, address)
            finally:
                server.shutdown_request(request)

        thread = threading.Thread(target=serve_one_connection, daemon=True)
        thread.start()
        return server, thread

    @staticmethod
    def _stop(server, thread) -> None:
        """Called once the client has closed its connection."""
        thread.join(timeout=30)
        server.server_close()

    def run_round(self, seed: int, work: Path, tracer: Tracer | None) -> RoundResult:
        stream = runner.make_workload_table(
            WorkloadSpec("SDSC", SERVE_JOBS, seed, HIGH_LOAD_SCALE, "user")
        ).to_workload()
        session = Session(stream.max_procs, scheduler="easy", priority="FCFS", metrics="exact")
        server, thread = self._start(session)
        if tracer is not None:
            instrument_handler(tracer, server.RequestHandlerClass)
        client = _Client(server.server_address, tracer)
        problems: list[str] = []
        read_ms, write_ms = [], []
        answers = hashlib.sha256()
        ops = failed = 0
        ops_seconds = 0.0
        try:
            for index, job in enumerate(stream.jobs):
                with _Timer(tracer) as timer:
                    started = time.perf_counter()
                    advanced = client.post("/advance", {"to_time": job.submit_time})
                    submitted = client.post("/submit", job_to_payload(job))
                    wrote = time.perf_counter()
                    answered = client.post("/what-if", {"job": _hypothetical(seed, index)})
                    read = time.perf_counter()
                ops_seconds += timer.seconds
                ops += 3
                write_ms.append((wrote - started) * 1e3)
                read_ms.append((read - wrote) * 1e3)
                for path, (status, payload, _) in (
                    ("/advance", advanced), ("/submit", submitted), ("/what-if", answered)
                ):
                    if status != 200:
                        failed += 1
                        problems.append(f"{path} for job {job.job_id}: {status} {payload}")
                status, payload, raw = answered
                if status == 200:
                    answers.update(raw)
                    target = payload["target"]
                    if target is None or target["start_time"] < payload["asked_at"]:
                        problems.append(
                            f"what-if after job {job.job_id} starts before it was asked"
                        )
            response_bytes = client.response_bytes
            with server.session_lock:
                snapshot = session.snapshot()
            restores = []
            for _ in range(SERVE_RESTORES):
                with _Timer(tracer) as restore:
                    Session.restore(snapshot)
                restores.append(restore.seconds)
            # Drain the live session: every submitted job finishes.
            status, payload, _ = client.post("/advance", {"to_time": 1e12})
            if status != 200:
                problems.append(f"final /advance: {status} {payload}")
        finally:
            client.close()
            self._stop(server, thread)
        with server.session_lock:
            live = metrics_digest(session.metrics())

        # The same stream, as the server received it, offline.
        received = Workload.from_jobs(
            [Job(**job_to_payload(job)) for job in stream.jobs], stream.max_procs
        )
        offline = simulate(received, runner.make_scheduler("easy", "FCFS"))
        if metrics_digest(offline.metrics) != live:
            problems.append("live session metrics differ from an offline simulate")
        return RoundResult(
            ops=ops,
            failed=failed,
            ops_seconds=ops_seconds,
            rerun_seconds=statistics.median(restores),
            read_ms=read_ms,
            write_ms=write_ms,
            digests={"final_metrics": live, "what_if_answers": answers.hexdigest()},
            problems=problems,
            counts={"serve.protocol.bytes": response_bytes},
        )


WORKLOADS = {w.name: w for w in (PaperGrid(), SeedSweep(), ServeLive())}
