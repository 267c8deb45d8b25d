"""Seeded task generators for the three benchmark workloads.

A task is one CLI invocation (the argv after the program name) plus the
parameters the correctness checks need.  A task list is made of stratified
blocks: every block holds each stratum (signal x wavelet x ...) exactly once
in a seeded random order.  The continuous parameters (|b|, and a where the
workload draws it) are Latin-hypercube sampled over the blocks: with k
blocks, each stratum draws each parameter once from each of k equal bins.
The mix of cheap and expensive tasks is therefore nearly the same for every
seed, and only the draws within a bin vary.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

SIGNALS = ("lorentzian", "two_sided_exp", "gaussian")
WAVELETS = ("morlet", "mexhat", "haar")
DOMAINS = ("frequency", "time")
ORDERS = (2, 3, 4)
U0 = 5.0
B_MAX = 2.0

SWEEP_A_MIN = 1e-3
SWEEP_A_MAX = 0.3
SWEEP_A_COUNT = 16

# Tasks per second of each workload, in a slow phase of a 2-core x86 VM, at
# the commit that added the benchmark.
# Together with --seconds it fixes how many tasks a run holds, so the task
# list depends only on the seed and the seconds, never on how fast the
# machine happened to be; a faster program finishes the same list sooner.
NOMINAL_TASKS_PER_S = {"sweep": 12.0, "oracle": 130.0, "remainder": 100.0}
MIN_TASKS = 100


@dataclass(frozen=True)
class Task:
    task_id: int
    workload: str
    argv: tuple
    signal: str
    wavelet: str
    b: float
    n: int = 0
    a: float = math.nan
    domain: str = ""


def _common(signal, wavelet, b):
    # "--b=-4.9e-05", not "--b -4.9e-05": argparse reads the latter as a flag.
    return ["--signal", signal, "--wavelet", wavelet, f"--u0={U0!r}",
            f"--b={b!r}"]


def _b(u_abs, rng):
    """b with |b| = B_MAX * u_abs, either sign: uniform on [-B_MAX, B_MAX]."""
    return rng.choice((-1.0, 1.0)) * B_MAX * u_abs


def _log_scale(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _sweep(task_id, stratum, u, rng):
    signal, wavelet, domain, n = stratum
    b = _b(u[0], rng)
    argv = ["sweep", *_common(signal, wavelet, b),
            f"--a-min={SWEEP_A_MIN!r}", f"--a-max={SWEEP_A_MAX!r}",
            f"--a-count={SWEEP_A_COUNT}", "--log", f"--n={n}",
            "--domain", domain, "--jobs", "1"]
    return Task(task_id, "sweep", tuple(argv), signal, wavelet, b, n=n,
                domain=domain)


def _oracle(task_id, stratum, u, rng):
    signal, wavelet = stratum
    b = _b(u[0], rng)
    a = _log_scale(u[1], 1e-3, 1.0)
    argv = ["cwt", *_common(signal, wavelet, b), f"--a={a!r}",
            "--oracle", "both"]
    return Task(task_id, "oracle", tuple(argv), signal, wavelet, b, a=a)


def _remainder(task_id, stratum, u, rng):
    signal, wavelet, domain, n = stratum
    b = _b(u[0], rng)
    a = _log_scale(u[1], 1e-2, 0.3)
    argv = ["expand", *_common(signal, wavelet, b), f"--a={a!r}",
            f"--n={n}", "--domain", domain, "--remainder", "integral_m0"]
    return Task(task_id, "remainder", tuple(argv), signal, wavelet, b, n=n,
                a=a, domain=domain)


# workload -> (task maker, strata, number of continuous parameters)
WORKLOADS = {
    "sweep": (_sweep, list(itertools.product(SIGNALS, WAVELETS, DOMAINS, ORDERS)), 1),
    "oracle": (_oracle, list(itertools.product(SIGNALS, WAVELETS)), 2),
    "remainder": (
        _remainder,
        list(itertools.product(SIGNALS, WAVELETS, DOMAINS, ORDERS)),
        2,
    ),
}


def block_size(workload: str) -> int:
    return len(WORKLOADS[workload][1])


def task_list(workload: str, seed, seconds: float) -> list:
    """Whole blocks worth about ``seconds`` of work, and at least MIN_TASKS."""
    make, strata, params = WORKLOADS[workload]
    size = len(strata)
    count = max(math.ceil(MIN_TASKS / size),
                round(seconds * NOMINAL_TASKS_PER_S[workload] / size))
    rng = random.Random(f"{workload}:{seed}")
    bins = {(s, p): rng.sample(range(count), count)
            for s in strata for p in range(params)}
    tasks = []
    for k in range(count):
        for stratum in rng.sample(strata, size):
            u = [(bins[stratum, p][k] + rng.random()) / count
                 for p in range(params)]
            tasks.append(make(len(tasks), stratum, u, rng))
    return tasks


def warmup_task(workload: str) -> Task:
    """Fixed task for the set-up measurement; no seed's list contains it."""
    return task_list(workload, "warm-up", 0.0)[0]
