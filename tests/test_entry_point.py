"""The ``python -m cwtasym`` entry point, run in process.

Every other command-line test calls ``cli.main``.  These run
``cwtasym/__main__.py`` itself through ``runpy``, with ``sys.argv``
patched, once for each way a command ends: the process exits with the
code ``main`` returns (0, 1 for a runtime failure, 2 for a refused input,
3 for an unconverged route), a failure or refusal prints one ``error:``
line or argparse's usage, and no run prints a traceback or a warning.
"""

import json
import runpy
import sys
import warnings

import pytest


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def _routes(out):
    return [row.split(",")[0] for row in out.splitlines()[1:]]


def _real_fourier_value(out):
    routes = json.loads(out)["routes"]
    return (sorted(routes) == ["fourier", "time"]
            and routes["fourier"]["value"][1] == 0.0)


# argv, exit code, a check of stdout, a check of stderr
_CASES = [
    pytest.param(
        ["cwt", "--signal", "two_sided_exp", "--wavelet", "mexhat", "--a", "0.05",
         "--b", "0.6", "--oracle", "both", "--format", "json"],
        0, _real_fourier_value, lambda err: err == "", id="converged-json"),
    pytest.param(
        ["sweep", "--signal", "gaussian", "--wavelet", "haar", "--b", "0.3",
         "--a-min", "0.1", "--a-max", "0.1", "--a-count", "3", "--n", "2"],
        0, lambda out: out.splitlines()[-1] == "order,,,,,nan,,2,",
        lambda err: err == "", id="sweep-without-slope"),
    # the Lorentzian's t*t overflows at a = 1e300
    pytest.param(
        ["cwt", "--signal", "lorentzian", "--wavelet", "morlet", "--b", "0.3",
         "--a", "1e300", "--oracle", "both"],
        3, lambda out: _routes(out) == ["time", "fourier"],
        lambda err: err == "", id="unconverged"),
    pytest.param(
        ["expand", "--signal", "lorentzian", "--wavelet", "morlet", "--a", "1e150",
         "--n", "4"],
        1, lambda out: out == "", _one_error_line, id="overflow"),
    pytest.param(
        ["mellin", "--signal", "lorentzian", "--z", "0.02"],
        1, lambda out: out == "", _one_error_line, id="moment-not-finite"),
    pytest.param(
        ["sweep", "--a-min", "2", "--a-max", "1"],
        2, lambda out: out == "", _one_error_line, id="out-of-range"),
    pytest.param(
        ["mellin", "--mellin-method", "tail"],
        2, lambda out: out == "",
        lambda err: err.startswith("usage: ") and "--mellin-method" in err,
        id="unknown-flag"),
]


@pytest.mark.parametrize("argv,code,out_ok,err_ok", _CASES)
def test_entry_point_exits_with_the_code_main_returns(argv, code, out_ok, err_ok,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cwtasym", *argv])
    # "always": a warning raised earlier in the session still shows here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("cwtasym", run_name="__main__")
    out, err = capsys.readouterr()
    assert stop.value.code == code, err
    assert out_ok(out), out
    assert err_ok(err), err
    assert "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []
