"""End-to-end benchmark of the backfilling simulator, with per-layer
attribution.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all            # every workload, in turn

Each run sets up the program (``setup_s``, measured in fresh child
processes), runs the workload's first round once untimed as a warm-up,
then runs rounds — each on fresh inputs derived from ``--seed`` — until
``--seconds`` have passed.  Every round's outputs go through the
correctness gates; the warm-up round's digests are also compared with
the values pinned in ``pinned.json`` for that seed, when there are any.
Human-readable lines come first; the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The exit code is 0 when every gate passed,
1 when one failed, and 2 when the program could not be set up at all
(then no JSON line is printed).  README.md in this directory describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "e2ebench"
PINS = HERE / "pinned.json"

WORKLOAD_NAMES = ("paper-grid", "seed-sweep", "serve-live")
DEFAULT_SEED = 1
#: Child processes whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Tail percentile: the highest one with at least ten samples beyond it
#: in a default-length serve-live run.
TAIL = 95

#: Layers whose self time partitions the traced wall time (with the
#: benchmark's own residual).
LAYERS = (
    "workload.generators",
    "workload.transforms",
    "sim.engine",
    "sched.backfill",
    "sched.profile",
    "metrics.collector",
    "exec.executor",
    "exec.chains",
    "exec.store",
    "exec.queue",
    "serve.session",
    "serve.protocol",
    "serve.http",
    "serve.net",
)

#: Per-layer metric -> span name whose inclusive time it reports.
INCLUSIVE = {
    "exec.store.put_s": "exec.store:put",
    "exec.store.get_s": "exec.store:get",
    "exec.queue.claim_s": "exec.queue:claim",
    "exec.queue.complete_s": "exec.queue:complete",
    "serve.session.fork_s": "serve.session:fork",
    "serve.session.drain_s": "serve.session:drain",
    "serve.session.write_s": "serve.session:write",
    "serve.protocol.encode_s": "serve.protocol:encode",
}

#: Counts that must repeat exactly for the same inputs.
COUNTS = (
    "workload.generators.jobs",
    "sim.engine.events",
    "sched.backfill.calls",
    "sched.profile.claim_many_calls",
    "sched.profile.claims",
    "exec.chains.forks",
    "exec.chains.fallbacks",
    "exec.store.bytes",
    "exec.queue.retries",
    "serve.protocol.bytes",
)

#: How each workload names its end-to-end figures in the human report.
ALIASES = {
    "paper-grid": {
        "ops_per_s": "cells_per_s", "read_p50_ms": "lookup_p50_ms",
        f"read_p{TAIL}_ms": f"lookup_p{TAIL}_ms", "write_p50_ms": "cell_p50_ms",
        f"write_p{TAIL}_ms": f"cell_p{TAIL}_ms",
    },
    "serve-live": {
        "rerun_s": "restore_s", "read_p50_ms": "whatif_p50_ms",
        f"read_p{TAIL}_ms": f"whatif_p{TAIL}_ms", "write_p50_ms": "submit_p50_ms",
        f"write_p{TAIL}_ms": f"submit_p{TAIL}_ms",
    },
}
ALIASES["seed-sweep"] = ALIASES["paper-grid"]


class SetupError(Exception):
    """The program could not be set up; no result is printed."""


def _import_program():
    if not (SRC / "repro").is_dir():
        raise SetupError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import workloads  # noqa: F401  (imports the program)
    except ImportError as exc:
        raise SetupError(f"cannot import the program: {exc}") from exc
    return workloads


def setup_probe(name: str, work: Path) -> None:
    """Child process: import the program, build the workload's store,
    queue or session and server, and print the seconds it took."""
    started = time.perf_counter()
    workloads = _import_program()
    teardown = workloads.WORKLOADS[name].setup(work)
    print(time.perf_counter() - started)
    teardown()


def measure_setup(name: str, work: Path) -> float:
    samples = []
    for index in range(SETUP_REPEATS):
        probe_dir = work / f"setup-{index}"
        probe_dir.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", name,
             "--work", str(probe_dir)],
            capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if done.returncode != 0:
            raise SetupError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def check_pins(name: str, seed: int, digests: dict, write: bool) -> list[str]:
    """Compare a seed's first-round digests with ``pinned.json`` (or,
    with ``write``, record them there)."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    if write:
        pins.setdefault(name, {})[str(seed)] = digests
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return []
    pinned = pins.get(name, {}).get(str(seed))
    if pinned is None or pinned == digests:
        return []
    differ = sorted(k for k in set(pinned) | set(digests) if pinned.get(k) != digests.get(k))
    return [f"{len(differ)} digests differ from pinned.json (first: {differ[0]})"]


def round_counts(tracer, since, until, result) -> dict[str, int]:
    """The deterministic counts of one traced round."""
    summary = tracer.summary(since, until)
    calls, counts = summary["calls"], summary["counts"]
    out = {
        "workload.generators.jobs": counts.get("workload.generators.jobs", 0),
        "sim.engine.events": counts.get("sim.engine.events", 0),
        "sched.backfill.calls": calls.get("sched.backfill:decide", 0),
        "sched.profile.claim_many_calls": calls.get("sched.profile:claim_many", 0),
        "sched.profile.claims": calls.get("sched.profile:claim", 0)
        + counts.get("sched.profile.batched_claims", 0),
        "exec.chains.forks": counts.get("exec.chains.forks", 0),
        "exec.chains.fallbacks": counts.get("exec.chains.fallbacks", 0),
    }
    for key in COUNTS:
        out.setdefault(key, result.counts.get(key, 0))
    return out


def traced_round(workload, seed, work, tracer):
    """One round, plus its counts when traced."""
    before = tracer.mark() if tracer else None
    result = workload.run_round(seed, work, tracer)
    counts = round_counts(tracer, before, tracer.mark(), result) if tracer else None
    return result, counts


def end_to_end_metrics(rounds, setup_s: float, rss_mb: float) -> dict:
    reads = [x for r in rounds for x in r.read_ms]
    writes = [x for r in rounds for x in r.write_ms]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (ops_per_s(rounds), "1/s"),
        "rerun_s": (statistics.median(r.rerun_seconds for r in rounds), "s"),
        "read_p50_ms": (percentile(reads, 50), "ms"),
        f"read_p{TAIL}_ms": (percentile(reads, TAIL), "ms"),
        "write_p50_ms": (percentile(writes, 50), "ms"),
        f"write_p{TAIL}_ms": (percentile(writes, TAIL), "ms"),
    }


def layer_metrics(tracer, since, rounds, counts: dict) -> dict:
    summary = tracer.summary(since)
    self_s = summary["layer_self_s"]
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    for metric, span in INCLUSIVE.items():
        metrics[metric] = (summary["inclusive_s"].get(span, 0.0), "s")
    for key in COUNTS:
        metrics[key] = (counts[key], "B" if key.endswith(".bytes") else "count")
    metrics["trace.wall_s"] = (tracer.wall_s, "s")
    metrics["trace.residual_s"] = (tracer.wall_s - sum(self_s.values()), "s")
    metrics["trace.spans"] = (summary["spans"], "count")
    metrics["trace.rounds"] = (len(rounds), "count")
    metrics["trace.ops_per_s"] = (ops_per_s(rounds), "1/s")
    reads = [x for r in rounds for x in r.read_ms]
    metrics["trace.read_p50_ms"] = (percentile(reads, 50), "ms")
    return metrics


def ops_per_s(rounds) -> float:
    return sum(r.ops for r in rounds) / sum(r.ops_seconds for r in rounds)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 write_pins: bool) -> int:
    workloads = _import_program()
    workload = workloads.WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        setup_s = measure_setup(name, work)
        if trace:
            from tracer import Tracer, instrument

            tracer = Tracer()
            instrument(tracer)

        # Warm-up: the first round, untimed.  Its digests are the pinned
        # ones, and its counts must equal the first measured round's,
        # which has the same inputs.
        warm, warm_counts = traced_round(
            workload, workloads.round_seed(seed, 0), work, tracer
        )
        problems = warm.problems + check_pins(
            name, seed, warm.digests, write_pins and not warm.problems
        )

        if tracer:
            tracer.wall_s = 0.0
            measured_from = tracer.mark()
        rounds = []
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < seconds:
            result, counts = traced_round(
                workload, workloads.round_seed(seed, len(rounds)), work, tracer
            )
            if not rounds:
                first_counts = counts
            problems += result.problems
            rounds.append(result)
        elapsed = time.perf_counter() - began
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if first_counts != warm_counts:
            drift = {k: (warm_counts[k], first_counts[k]) for k in COUNTS
                     if warm_counts[k] != first_counts[k]}
            problems.append(f"counts drifted between identical rounds: {drift}")
        if tracer:
            metrics = layer_metrics(tracer, measured_from, rounds, first_counts)
            import numpy as np

            np.savez_compressed(work.parent / f"spans-{name}-{seed}.npz", **tracer.spans())
        else:
            metrics = end_to_end_metrics(rounds, setup_s, rss_mb)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    from repro.hostinfo import host_provenance

    print(f"# {name}: seed {seed}, {len(rounds)} rounds in {elapsed:.1f}s, "
          f"{'traced' if trace else 'untraced'}; host {json.dumps(host_provenance())}, "
          f"nproc {len(os.sched_getaffinity(0))}")
    samples = {"read": sum(len(r.read_ms) for r in rounds),
               "write": sum(len(r.write_ms) for r in rounds)}
    for metric, (value, unit) in metrics.items():
        kind = metric.split("_p")[0] if metric.startswith(("read_p", "write_p")) else None
        extra = f"  (n={samples[kind]})" if kind else ""
        print(f"{name:11s} {ALIASES[name].get(metric, metric):34s} {value:14.6g} {unit}{extra}")
    failed = sum(r.failed for r in rounds)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.ops for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode == 2 or not lines:
            return 2
        worst = max(worst, done.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this seed's warm-up digests in pinned.json")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe, args.work)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.write_pins)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
