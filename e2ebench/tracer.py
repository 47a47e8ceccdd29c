"""Span tracer for the end-to-end benchmark.

Spans are recorded from the benchmark's side: :func:`instrument` swaps
the public functions and methods of each layer for thin wrappers while
a measured region runs, and :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` changes.

Every span records its name, start, end and parent (the span open on
the same thread when it began; HTTP handler spans take the client's
request span as parent through an ``X-Bench-Span`` header, so a
request's spans on both threads share one tree).  Spans live in flat
``array`` buffers until :meth:`Tracer.summary` turns them into

* each layer's *self* time — its spans' durations minus the part their
  child spans cover — which partitions the traced wall time together
  with the benchmark's own residual;
* inclusive time and call counts per span name;
* counters bumped by hooks (jobs generated, engine events, claims in a
  batch, chain forks and fallbacks, bytes written).

A span name is ``"<layer>:<call>"``; the layer is the part before the
colon.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

__all__ = ["Tracer", "instrument", "layer_of"]

#: Header carrying the client's request span id to the server thread.
SPAN_HEADER = "X-Bench-Span"


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Metrics objects or payloads the store was handed to write.
        self.written_metrics: list = []
        #: ``[recording?]`` — shared with every wrapper; spans and counts
        #: are taken only between :meth:`start` and :meth:`stop`.
        self._state = [False]
        #: Wall time spent recording (the traced wall time).
        self.wall_s = 0.0
        self._started = 0.0

    # -- recording regions ----------------------------------------------------

    @property
    def recording(self) -> bool:
        return self._state[0]

    def start(self) -> None:
        self._state[0] = True
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.wall_s += time.perf_counter() - self._started
        self._state[0] = False

    # -- recording ------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, parent: int | None = None) -> int:
        """Start a span by hand; returns its id for :meth:`close`."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        index = len(self.starts)
        self.name_ids.append(self.intern(name))
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recorded as a span named ``name``.

        ``before(args)`` runs ahead of the span and its return value is
        handed to ``after(args, result, token)``, which runs once the
        span is closed; both feed :attr:`counts`.
        """
        nid = self.intern(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack_of = self._stack
        clock = time.perf_counter

        state = self._state

        def traced(*args, **kwargs):
            if not state[0]:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            stack = stack_of()
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``cls.attr`` where the class itself defines it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, before, after))
        else:
            wrapped = self.wrap(raw, name, before, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(self, fn, name: str, before=None, after=None) -> None:
        """Wrap ``fn`` under every name a ``repro`` module binds it to."""
        wrapped = self.wrap(fn, name, before, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A position in the record, for :meth:`summary`."""
        return len(self.starts), Counter(self.counts)

    def summary(self, since=None, until=None) -> dict:
        """Self time per layer, inclusive time and calls per span name,
        and counters, over the spans recorded between two marks."""
        first, counts_before = since or (0, Counter())
        n, counts_after = until or self.mark()
        names = np.frombuffer(self.name_ids, dtype=np.int32)[first:n]
        parents = np.frombuffer(self.parents, dtype=np.int64)[first:n] - first
        starts = np.frombuffer(self.starts, dtype=np.float64)[first:n]
        ends = np.frombuffer(self.ends, dtype=np.float64)[first:n]
        durations = ends - starts
        inside = parents >= 0
        covered = np.bincount(
            parents[inside], weights=durations[inside], minlength=len(durations)
        )
        self_times = durations - covered
        k = len(self.names)
        self_by_name = np.bincount(names, weights=self_times, minlength=k)
        incl_by_name = np.bincount(names, weights=durations, minlength=k)
        calls_by_name = np.bincount(names, minlength=k)
        layer_self: Counter = Counter()
        for nid, name in enumerate(self.names):
            layer_self[layer_of(name)] += float(self_by_name[nid])
        counts = Counter(counts_after)
        counts.subtract(counts_before)
        return {
            "layer_self_s": dict(layer_self),
            "inclusive_s": {
                name: float(incl_by_name[nid]) for nid, name in enumerate(self.names)
            },
            "calls": {
                name: int(calls_by_name[nid]) for nid, name in enumerate(self.names)
            },
            "counts": {key: value for key, value in counts.items() if value},
            "spans": len(durations),
        }

    def spans(self) -> dict:
        """Every recorded span as columns (name id, parent, start, end)."""
        return {
            "names": np.array(self.names),
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.exec.backends.sqlite import SqliteBackend
    from repro.exec.chains import run_chain
    from repro.exec.dist import DistExecutor, run_worker
    from repro.exec.executor import CellExecutor, simulate_cell
    from repro.exec.queue import CellQueue
    from repro.exec.store import ResultStore
    from repro.experiments.runner import base_workload_table, make_workload_table
    from repro.metrics.collector import summarize
    from repro.sched.backfill.conservative import ConservativeScheduler
    from repro.sched.backfill.easy import EasyScheduler
    from repro.sched.backfill.nobf import FCFSScheduler
    from repro.sched.base import Scheduler
    from repro.sched.profile import Profile
    from repro.serve import protocol
    from repro.serve.session import Session, SessionBranch
    from repro.sim.engine import Simulator, simulate
    from repro.workload.generators.base import ModelGenerator

    counts = tracer.counts

    def count(key, amount):
        counts[key] += amount

    # workload
    tracer.patch_function(base_workload_table, "workload.generators:base_table")
    tracer.patch_method(
        ModelGenerator, "generate", "workload.generators:generate",
        after=lambda a, r, t: count("workload.generators.jobs", len(r.jobs)),
    )
    tracer.patch_function(make_workload_table, "workload.transforms:derive")

    # engine: events processed inside each driving call
    def events_before(args):
        return getattr(args[0], "_events_processed", 0)

    def events_after(args, result, before):
        count("sim.engine.events", args[0]._events_processed - before)

    tracer.patch_function(simulate, "sim.engine:simulate")
    tracer.patch_method(Simulator, "__init__", "sim.engine:init")
    for attr in ("run", "run_until", "run_until_time", "drain"):
        tracer.patch_method(
            Simulator, attr, "sim.engine:run", before=events_before, after=events_after
        )
    tracer.patch_method(Simulator, "snapshot", "sim.engine:snapshot")
    tracer.patch_method(Simulator, "resume", "sim.engine:resume")
    tracer.patch_method(Simulator, "extend_workload", "sim.engine:extend")

    # scheduler decisions, on whichever class defines them
    for cls in (Scheduler, FCFSScheduler, EasyScheduler, ConservativeScheduler):
        for attr in ("on_arrival", "on_finish", "on_wakeup"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, "sched.backfill:decide")
    tracer.patch_method(Scheduler, "fork", "sched.backfill:fork")

    # profile kernel
    tracer.patch_method(Profile, "claim", "sched.profile:claim")
    tracer.patch_method(
        Profile, "claim_many", "sched.profile:claim_many",
        after=lambda a, r, t: count("sched.profile.batched_claims", len(r)),
    )
    for attr in ("find_start", "release", "reserve", "advance", "rebuild_into", "fork"):
        tracer.patch_method(Profile, attr, f"sched.profile:{attr}")

    tracer.patch_function(summarize, "metrics.collector:summarize")

    # execution: executors, chains, store, queue
    tracer.patch_method(CellExecutor, "execute", "exec.executor:execute")
    tracer.patch_method(DistExecutor, "execute", "exec.executor:execute")
    tracer.patch_function(simulate_cell, "exec.executor:simulate_cell")
    tracer.patch_function(run_worker, "exec.executor:worker")

    def chain_before(args):
        return args[1].forks, args[1].fallbacks

    def chain_after(args, result, before):
        count("exec.chains.forks", args[1].forks - before[0])
        count("exec.chains.fallbacks", args[1].fallbacks - before[1])

    tracer.patch_function(
        run_chain, "exec.chains:run_chain", before=chain_before, after=chain_after
    )

    # Written metrics are stashed by reference and measured after the
    # round (see :func:`written_bytes`), outside every span.
    def stash_store_put(args, result, token):
        tracer.written_metrics.extend(stored.metrics for _, stored in args[1])

    def stash_queue_put(args, result, token):
        tracer.written_metrics.extend(payload["metrics"] for _, payload in args[3])

    tracer.patch_method(ResultStore, "get_many", "exec.store:get")
    tracer.patch_method(ResultStore, "put_many", "exec.store:put", after=stash_store_put)
    tracer.patch_method(
        SqliteBackend, "queue_complete", "exec.store:put", after=stash_queue_put
    )
    for attr in ("enqueue", "claim", "complete", "renew", "release", "stats", "states_for"):
        tracer.patch_method(CellQueue, attr, f"exec.queue:{attr}")

    # serve
    tracer.patch_method(Session, "submit", "serve.session:write")
    tracer.patch_method(Session, "advance", "serve.session:write")
    tracer.patch_method(Session, "branch", "serve.session:fork")
    tracer.patch_method(Session, "restore", "serve.session:restore")
    tracer.patch_method(SessionBranch, "what_if", "serve.session:drain")
    for attr in ("what_if_to_payload", "run_metrics_to_payload", "stats_to_payload"):
        tracer.patch_function(getattr(protocol, attr), "serve.protocol:encode")
    tracer.patch_function(protocol.job_from_payload, "serve.protocol:decode")


def instrument_handler(tracer: Tracer, handler_cls) -> None:
    """Wrap an HTTP handler's ``do_GET``/``do_POST`` as ``serve.http``
    spans parented to the client span named in :data:`SPAN_HEADER`
    (once; later calls find the wrappers in place)."""
    for attr in ("do_GET", "do_POST"):
        original = handler_cls.__dict__.get(attr)
        if original is None or hasattr(original, "__wrapped__"):
            continue

        def handle(self, _original=original):
            if not tracer.recording:
                return _original(self)
            parent = self.headers.get(SPAN_HEADER)
            index = tracer.open(
                "serve.http:handle", None if parent is None else int(parent)
            )
            try:
                return _original(self)
            finally:
                tracer.close(index)

        handle.__wrapped__ = original
        tracer._patches.append((handler_cls, attr, original))
        setattr(handler_cls, attr, handle)
