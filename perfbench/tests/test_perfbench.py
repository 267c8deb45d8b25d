"""Self-test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Two traced runs of one seed must give the same task list and the same
counters, and every workload's checker must reject a perturbed output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

COUNTER_SUFFIXES = (".calls", ".evals", ".panels", ".unconverged", ".nodes")


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    digest = next(ln for ln in lines if ln.startswith("task list sha256"))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_exactly(workload):
    first_digest, first = _traced(workload, 11)
    second_digest, second = _traced(workload, 11)
    assert first_digest == second_digest

    def counters(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith(COUNTER_SUFFIXES) or k == "mellin.distinct_frac"}

    assert counters(first) == counters(second)
    assert counters(first)["quadrature.integrate.calls"] > 0


def _task(workload, **want):
    """First task of a fixed seed's list whose fields match ``want``."""
    return next(t for t in workloads.task_list(workload, 5, 0.0)
                if all(getattr(t, k) == v for k, v in want.items()))


def _output(task):
    cli = run._import_cli()
    code, out, err = run.call_cli(cli, task.argv)
    assert code == 0, err
    return out


def _replace_cell(text, row, col, fn):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scaled(factor):
    return lambda cell: verify._g(float(cell) * factor)


def test_oracle_checker_rejects_disagreeing_routes():
    task = _task("oracle", signal="lorentzian", wavelet="morlet")
    out = _output(task)
    assert verify.check_oracle(task, out) is None
    bad = _replace_cell(out, 2, 1, _scaled(1.0 + 1e-5))
    assert "routes disagree" in verify.check_oracle(task, bad)
    assert verify.check_oracle(task, "\n".join(out.splitlines()[:2])) is not None


def test_remainder_checker_rejects_moved_prediction():
    task = _task("remainder", signal="lorentzian", wavelet="morlet",
                 domain="frequency")
    out = _output(task)
    assert verify.check_remainder(task, out) is None
    budget = float(out.splitlines()[-1].split(",")[3])
    shift = max(1e3 * budget, 1e-9)
    bad = _replace_cell(out, -1, 1, lambda c: verify._g(float(c) + shift))
    assert "exceeds budget" in verify.check_remainder(task, bad)


def _resummed(text, col, factor):
    """Scale one value column of every grid row and keep abs_error consistent."""
    lines = text.splitlines()
    for i in range(1, len(lines) - 1):
        cells = lines[i].split(",")
        cells[col] = verify._g(float(cells[col]) * factor)
        o = complex(float(cells[1]), float(cells[2]))
        e = complex(float(cells[3]), float(cells[4]))
        cells[5] = verify._g(abs(o - e))
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("signal,domain", [("lorentzian", "frequency"),
                                           ("gaussian", "time")])
def test_sweep_checker_rejects_perturbations(signal, domain):
    task = _task("sweep", signal=signal, wavelet="mexhat", domain=domain)
    out = _output(task)
    assert verify.check_sweep(task, out) is None

    bad_expansion = _resummed(out, 3, 1.0 + 1e-5)
    assert "independent moment route" in verify.check_sweep(task, bad_expansion)
    bad_oracle = _resummed(out, 1, 1.0 + 1e-5)
    assert "off cwt_time" in verify.check_sweep(task, bad_oracle)
    bad_column = _replace_cell(out, 1, 5, _scaled(2.0))
    assert "abs_error column" in verify.check_sweep(task, bad_column)
    lines = out.splitlines()
    assert "rows" in verify.check_sweep(task, "\n".join(lines[:-2] + lines[-1:]))


def test_only_documented_defects_are_known():
    task = _task("remainder", signal="lorentzian", domain="time")
    assert verify.known_defect(task, "|oracle - prediction| = 1e-12 exceeds") \
        == "time-remainder-budget"
    assert verify.known_defect(task, "exit 1: error: something else") is None
    oracle_task = _task("oracle")
    assert verify.known_defect(oracle_task, "routes disagree: rel 1e-3") is None


def test_task_lists_are_seeded_and_stratified():
    for workload in workloads.WORKLOADS:
        size = workloads.block_size(workload)
        tasks = workloads.task_list(workload, 3, 0.0)
        assert len(tasks) >= workloads.MIN_TASKS and len(tasks) % size == 0
        again = workloads.task_list(workload, 3, 0.0)
        other = workloads.task_list(workload, 4, 0.0)
        assert [t.argv for t in tasks] == [t.argv for t in again]
        assert [t.argv for t in tasks] != [t.argv for t in other]
        for k in range(0, len(tasks), size):
            block = tasks[k:k + size]
            assert len({(t.signal, t.wavelet, t.domain, t.n) for t in block}) == size
        # |b| is Latin-hypercube sampled: each stratum hits every bin once.
        count = len(tasks) // size
        bins = {}
        for t in tasks:
            key = (t.signal, t.wavelet, t.domain, t.n)
            bins.setdefault(key, set()).add(int(abs(t.b) / workloads.B_MAX * count))
        assert all(b == set(range(count)) for b in bins.values())
