#!/usr/bin/env python3
"""Layered benchmark of the cwtasym command line, run from a source checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py`` and NOTES.md) drives the CLI
subcommands in-process as one closed-loop client: one process, one thread,
the next task starts when the previous one returns.

``--trace 0`` reports the end-to-end metrics.  The task list is fixed by the
seed and ``--seconds`` (``workloads.task_list``); every task is a fresh draw,
so a cache kept across tasks is only hit where real inputs would hit it.
Set-up time is measured in separate fresh processes.  Outputs are checked
by ``verify.py`` after the timed window.

``--trace 1`` runs the seed's first tasks in this process with every public
function of the layer modules wrapped (``tracing.py``), reports the
per-layer metrics and writes the spans to ``perfbench/out/``; as many later
tasks then run untraced to give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name and unit, and each failed task with its reason.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One-thread client: without this, OpenBLAS starts a thread per CPU that
# spins after each BLAS call and competes with the client for the CPUs.
# Set before numpy is imported, here and in the set-up probes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# Seconds between the client's moves to its next CPU (see run_tasks).
ROTATE_S = 1.0
MELLIN_METHODS = ("closed_form", "eps_extrapolation", "pure_quadrature",
                  "split_tail_analytic")
SPECFUN = ("gamma_complex", "upper_incomplete_gamma", "parabolic_cylinder_D",
           "oscillatory_power_tail")
UNITS = {"calls": "count", "evals": "count", "panels": "count",
         "unconverged": "count", "nodes": "count", "busy_s": "s",
         "self_s": "s", "integrand_s": "s"}


def _import_cli():
    if not (SRC / "cwtasym" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/cwtasym")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cwtasym import cli

    return cli


def call_cli(cli, argv):
    """One in-process CLI call: (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a task that raises is a failed task, not a crash
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _warm_up(cli, workload):
    code, _, err = call_cli(cli, workloads.warmup_task(workload).argv)
    if code not in (0, 3):
        raise SystemExit(f"error: warm-up task failed ({code}): {err}")


# -- set-up --------------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """Child process: time ``import cwtasym`` plus the fixed warm-up task."""
    start = time.perf_counter()
    _warm_up(_import_cli(), workload)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(proc.stderr.strip() or "error: set-up probe failed")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# -- running and checking tasks --------------------------------------------------

class Record:
    __slots__ = ("task", "ms", "code", "out", "err", "reason", "known")

    def __init__(self, task, ms, code, out, err):
        self.task, self.ms, self.code, self.out, self.err = task, ms, code, out, err
        self.reason = None
        self.known = None


def run_tasks(cli, tasks, run=None):
    """Run tasks back to back; ``run`` wraps each call (the tracer's).

    On a shared host each CPU's speed drifts on its own, by up to a factor of
    1.5 over tens of seconds, so a client that stays on one CPU measures that
    CPU's drift.  The client therefore moves to the next CPU it may use at
    the first task boundary after every ``ROTATE_S`` seconds, and a run
    averages over all of them.  The original affinity is restored at the end.
    """
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    cpus = sorted(allowed)
    records = []
    turn, moved = 0, time.perf_counter()
    try:
        for task in tasks:
            if len(cpus) > 1 and time.perf_counter() - moved >= ROTATE_S:
                turn += 1
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                moved = time.perf_counter()
            records.append(_run_task(cli, task, run))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, allowed)
    return records


def _run_task(cli, task, run):
    start = time.perf_counter()
    if run is None:
        code, out, err = call_cli(cli, task.argv)
    else:
        code, out, err = run(task.task_id, call_cli, cli, task.argv)
    ms = (time.perf_counter() - start) * 1e3
    return Record(task, ms, code, out, err)


def check(records) -> None:
    """Fill in each failed record's reason and known-defect class."""
    import verify  # imports numpy, which the set-up probe must time itself

    for rec in records:
        if rec.code not in (0, 3):
            # exit 3 means non-converged quadrature: reported, not failed
            last = rec.err.strip().splitlines()[-1:] or ["no message"]
            rec.reason = f"exit {rec.code}: {last[0]}"
        else:
            try:
                rec.reason = verify.CHECKERS[rec.task.workload](rec.task, rec.out)
            except Exception as exc:  # unparseable output fails the task
                rec.reason = f"checker raised {exc!r}"
        if rec.reason is not None:
            rec.known = verify.known_defect(rec.task, rec.reason)


def task_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(("\0".join(rec.task.argv) + "\n").encode())
    return h.hexdigest()


# -- metrics -------------------------------------------------------------------

def end_to_end(records, setup_times, rss_mb):
    times = [r.ms for r in records]
    p90 = statistics.quantiles(times, n=10)[-1]
    failed = sum(r.reason is not None for r in records)
    return {
        "tasks_per_s": (1e3 * len(times) / sum(times), "1/s"),
        "task_ms.p50": (statistics.median(times), "ms"),
        "task_ms.p90": (p90, "ms"),
        "failed_frac": (failed / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {
        "tasks_per_s": f"{len(times)} tasks in {sum(times) / 1e3:.3f} s",
        "task_ms.p90": f"{len(times)} samples, {sum(t > p90 for t in times)} beyond",
        "failed_frac": f"{failed} of {len(records)}",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
    }


def per_layer(stats, moments, traced_tps, untraced_tps):
    def g(key):
        return stats.get(key, 0)

    m = {}

    def put(name, stat, source=None):
        m[f"{name}.{stat}"] = (g(source or f"{name}.{stat}"), UNITS[stat])

    for stat in ("calls", "evals", "panels", "unconverged", "self_s"):
        put("quadrature.integrate", stat)
    put("quadrature.integrate", "integrand_s", "quadrature.integrand.busy_s")
    calls = g("quadrature.integrate.calls")
    m["quadrature.evals_per_call"] = (
        g("quadrature.integrate.evals") / calls if calls else 0.0, "count")
    for stat in ("calls", "nodes", "busy_s"):
        put("backends.eval_kernel", stat)
    nodes = g("backends.eval_kernel.nodes")
    m["backends.ns_per_node"] = (
        g("backends.eval_kernel.busy_s") * 1e9 / nodes if nodes else 0.0, "ns")
    for name in ("oracle.cwt_time", "oracle.cwt_fourier",
                 "mellin.mellin_transform", "expansion.remainder_frequency"):
        for stat in ("calls", "busy_s", "evals"):
            put(name, stat)
    for method in MELLIN_METHODS:
        m[f"mellin.calls.{method}"] = (g(f"mellin.calls.{method}"), "count")
    calls = g("mellin.mellin_transform.calls")
    m["mellin.distinct_frac"] = (moments / calls if calls else 0.0, "ratio")
    expand = ("expand_frequency", "expand_time", "expand_morlet_time")
    m["expansion.expand.calls"] = (
        sum(g(f"expansion.{f}.calls") for f in expand), "count")
    m["expansion.expand.self_s"] = (
        sum(g(f"expansion.{f}.self_s") for f in expand), "s")
    for fn in SPECFUN:
        for stat in ("calls", "busy_s"):
            put(f"specfun.{fn}", stat)
    m["trace.overhead_frac"] = (1.0 - traced_tps / untraced_tps, "ratio")
    return m


# -- modes ---------------------------------------------------------------------

def traced_run(cli, workload, seed, seconds):
    """Trace the head of the seed's task list, then run as many more untraced.

    The untraced tasks are the next ones in the list: fresh draws of the same
    strata, never repeats, so a cache kept across tasks cannot make the
    comparison unfair.
    """
    from tracing import Tracer

    tasks = workloads.task_list(workload, seed, seconds)
    size = workloads.block_size(workload)
    half = len(tasks) // (2 * size) * size
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_tasks(cli, tasks[:half], run=tracer.run_task)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    untraced = run_tasks(cli, tasks[half:2 * half])
    untraced_wall = time.perf_counter() - start
    return tracer, traced, traced_wall, untraced, untraced_wall


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    cli = _import_cli()
    setup_times = measure_setup(args.workload) if args.trace == 0 else []
    _warm_up(cli, args.workload)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    if args.trace == 0:
        records = run_tasks(cli, workloads.task_list(args.workload, args.seed,
                                                     args.seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check(records)
        metrics, notes = end_to_end(records, setup_times, rss_mb)
        listed = records
        reported = spec["end_to_end"]
    else:
        tracer, traced, traced_wall, untraced, untraced_wall = traced_run(
            cli, args.workload, args.seed, args.seconds)
        records = traced + untraced
        check(records)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(HERE.parent)}")
        metrics = per_layer(tracer.stats(), len(tracer.moment_keys),
                            len(traced) / traced_wall,
                            len(untraced) / untraced_wall)
        notes = {"trace.overhead_frac":
                 f"{len(traced)} traced tasks in {traced_wall:.3f} s, "
                 f"{len(untraced)} untraced in {untraced_wall:.3f} s"}
        listed = traced
        reported = spec["per_layer"]
    print(f"task list sha256 {task_digest(listed)}")

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {_fmt(value):>14} {unit}{note}")
    failed = [r for r in records if r.reason is not None]
    for rec in failed:
        tag = f"known defect {rec.known}" if rec.known else "UNEXPECTED"
        print(f"FAIL task {rec.task.task_id} [{tag}] {' '.join(rec.task.argv)}: "
              f"{rec.reason}")

    print(json.dumps({
        "correct": all(r.known for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
