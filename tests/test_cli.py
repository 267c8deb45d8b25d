"""Command-line interface: schemas, exit codes, config precedence."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cwtasym.cli as cli
import cwtasym.expansion as expansion
from cwtasym.cli import main
from cwtasym.oracle import cwt_fourier, cwt_time
from cwtasym.quadrature import QuadratureResult
from cwtasym.signals import SignalKind, make_signal
from cwtasym.wavelets import WaveletKind, make_wavelet, small_u_coefficients


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_coeffs_csv_matches_library(tmp_path):
    out = tmp_path / "coeffs.csv"
    code = main(["coeffs", "--wavelet", "haar", "--n", "5", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["s", "c_re", "c_im"]
    table = small_u_coefficients(make_wavelet(WaveletKind.Haar), 5).coefficients
    assert len(rows) == 6
    for s, row in enumerate(rows[1:]):
        assert int(row[0]) == s
        assert_allclose([float(row[1]), float(row[2])],
                        [table[s].real, table[s].imag], rtol=0, atol=1e-17)


def test_coeffs_json_roundtrip(tmp_path):
    out = tmp_path / "coeffs.json"
    code = main(["coeffs", "--wavelet", "mexhat", "--n", "4",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["wavelet"] == "mexhat"
    got = [complex(re, im) for re, im in obj["coefficients"]]
    want = small_u_coefficients(make_wavelet(WaveletKind.MexicanHat), 4).coefficients
    assert_allclose(got, want, rtol=0, atol=1e-17)


def test_cwt_both_routes(tmp_path, capsys):
    code = main(["cwt", "--signal", "gaussian", "--wavelet", "morlet",
                 "--u0", "5", "--a", "0.5", "--b", "0", "--oracle", "both"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "route"
    body = [ln.split(",") for ln in lines[1:]]
    routes = {row[0] for row in body}
    assert routes == {"time", "fourier"}
    vals = {row[0]: complex(float(row[1]), float(row[2])) for row in body}
    assert abs(vals["time"] - vals["fourier"]) < 1e-9 * abs(vals["time"])


def test_cwt_unconverged_route_exits_3(monkeypatch, capsys):
    def unconverged(*args, **kwargs):
        return QuadratureResult(value=1.0 + 0.0j, abs_error_estimate=1e-3,
                                n_evaluations=61, n_panels=2000,
                                converged=False)

    monkeypatch.setattr(cli, "cwt_time", unconverged)
    code = main(["cwt", "--a", "0.5", "--oracle", "both"])
    assert code == 3
    rows = {ln.split(",")[0]: ln.split(",")
            for ln in capsys.readouterr().out.strip().splitlines()[1:]}
    assert rows["time"][4] == "false" and rows["fourier"][4] == "true"
    assert main(["cwt", "--a", "0.5", "--oracle", "fourier"]) == 0


def test_cwt_json_reports_status(capsys):
    code = main(["cwt", "--signal", "lorentzian", "--wavelet", "morlet",
                 "--u0", "5", "--a", "0.01", "--oracle", "both",
                 "--format", "json"])
    assert code == 0
    routes = json.loads(capsys.readouterr().out)["routes"]
    # the time route's estimate stops at the panels' roundoff floor
    assert routes["time"]["status"] == "roundoff"
    assert routes["fourier"]["status"] == "tolerance"
    assert all(r["converged"] for r in routes.values())


_SCALED = {"amplitude": -2, "time_scale": 0.2}


@pytest.mark.parametrize("config,signal,wavelet,a,b,least", [
    pytest.param(_SCALED, "two_sided_exp", wavelet, "0.05", "0.6", 1e-8,
                 id=wavelet)
    for wavelet in ("haar", "morlet", "mexhat")
] + [
    # |W| is about 4e-25, far below abs_tol, so the single cut of the
    # Morlet line sets the time route's estimate
    pytest.param(_SCALED, "gaussian", "morlet", "0.045", "1.93", 1e-26,
                 id="tiny-valued"),
    # a unit config gives the built-in signal itself
    pytest.param({"amplitude": 1, "time_scale": 1}, "two_sided_exp", "mexhat",
                 "0.05", "0.6", 1e-8, id="unit-mexhat"),
] + [
    # the transform's poles at +-i/s place the Fourier head's octave mesh
    pytest.param({"time_scale": scale}, "two_sided_exp", wavelet, "0.01",
                 "0.6", 1e-8, id=f"time-scale-{scale}-{wavelet}")
    for scale in (0.2, 5) for wavelet in ("morlet", "mexhat", "haar")
])
def test_cwt_scaled_signal_from_config(config, signal, wavelet, a, b, least,
                                       tmp_path, capsys):
    """A config with amplitude/time_scale builds a scaled copy of the base
    signal.  Both oracle routes converge (exit 0) and agree within their
    printed estimates, and the fold keeps a real wavelet's Fourier value
    exactly real."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code = main(["cwt", "--signal", signal, "--wavelet", wavelet,
                 "--a", a, "--b", b, "--oracle", "both",
                 "--config", str(cfg), "--format", "json"])
    assert code == 0
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert sorted(routes) == ["fourier", "time"]
    time, fourier = routes["time"], routes["fourier"]
    diff = abs(complex(*time["value"]) - complex(*fourier["value"]))
    assert diff <= time["abs_error_estimate"] + fourier["abs_error_estimate"]
    assert abs(complex(*time["value"])) > least
    if wavelet != "morlet":
        assert fourier["value"][1] == 0.0


def test_expand_scaled_signal_time_route(tmp_path, capsys):
    # A scaled Lorentzian's Taylor coefficients are the built-in's under the
    # change of variables, so its time route runs from the entry point, and
    # the prediction matches the time-domain oracle.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"time_scale": 0.2}))
    common = ["--signal", "lorentzian", "--wavelet", "morlet", "--a", "0.01",
              "--b", "0.3", "--config", str(cfg)]
    code = main(["expand", *common, "--n", "4", "--domain", "time",
                 "--remainder", "integral_m0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {r[0]: r[1:] for r in (line.split(",") for line in lines[1:])}
    pred = complex(float(rows["prediction"][0]), float(rows["prediction"][1]))
    pred_err = float(rows["prediction"][2])
    code = main(["cwt", *common, "--oracle", "time", "--format", "json"])
    assert code == 0
    route = json.loads(capsys.readouterr().out)["routes"]["time"]
    diff = abs(pred - complex(*route["value"]))
    assert diff <= pred_err + route["abs_error_estimate"]


def test_mellin_known_value(capsys):
    code = main(["mellin", "--signal", "lorentzian", "--b", "1", "--z", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert abs(float(row["value_re"])) < 1e-12
    assert abs(float(row["value_im"]) - math.pi / 2.0) < 1e-10
    assert row["mirror"] == "false"


@pytest.mark.parametrize("z", ["0.02", "0.01", "0.001"])
@pytest.mark.parametrize("signal", ["lorentzian", "two_sided_exp"])
def test_mellin_moment_that_is_not_finite_exits_1(signal, z, capsys):
    """Near z = 0 the numeric route's u^(z-1) overflows at its smallest
    nodes: one error line and exit 1, not a row of NaN."""
    assert main(["mellin", "--signal", signal, "--z", z]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "not finite" in captured.err


def test_mellin_small_z_is_still_right(capsys):
    # M[pi e^{-u}; 0.05] = pi Gamma(0.05)
    assert main(["mellin", "--signal", "lorentzian", "--z", "0.05",
                 "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    exact = math.pi * math.gamma(0.05)
    assert abs(complex(*row["value"]) - exact) <= row["abs_error_estimate"]
    assert abs(row["value"][0] - exact) <= 1e-9 * exact


@pytest.mark.parametrize("a", ["1e20", "1e300"])
def test_huge_dilation_time_route_is_judged_in_its_units(a, capsys):
    """sqrt(a) scales the time route's estimate: at a = 1e20 it is about
    1e-4 and at a = 1e300 about 2e136, far above the tolerance, so the
    route is not converged and the command exits 3.  The Fourier route is
    judged in its units too: at a = 1e20 its estimate is 1.1e-10 on a value
    of 2.8e-10, not converged, and at a = 1e300 1.1e-150, within abs_tol.
    The Lorentzian's t*t overflows at a = 1e300 without a warning."""
    argv = ["cwt", "--signal", "lorentzian", "--wavelet", "morlet",
            "--b", "0.3", "--a", a, "--oracle", "both", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "Warning" not in captured.err
    routes = json.loads(captured.out)["routes"]
    assert not routes["time"]["converged"]
    assert routes["fourier"]["converged"] == (a == "1e300")


@pytest.mark.parametrize("b", ["0.3", "0"])
@pytest.mark.parametrize("a", ["1e-312", "5e-324"])
@pytest.mark.parametrize("wavelet", ["morlet", "mexhat", "haar"])
@pytest.mark.parametrize("signal", ["lorentzian", "gaussian", "two_sided_exp"])
def test_tiny_dilation_ends_in_a_result_or_one_error_line(
        signal, wavelet, a, b, capsys):
    """At dilations where 1/a overflows and a*delta underflows, both
    routes end in a result (exit 0, or 3 unconverged) or in exit 1 with one
    error line; no exception escapes.  At b = 0 the analytic tail's ray has
    no height, a^2 = 0 included."""
    code = main(["cwt", "--signal", signal, "--wavelet", wavelet, "--a", a,
                 f"--b={b}", "--oracle", "both"])
    err = capsys.readouterr().err
    assert code in (0, 1, 3), err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wavelet": "haar", "n": 3}))
    code = main(["coeffs", "--config", str(cfg)])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4  # header + 3

    # explicit flags win over the file
    code = main(["coeffs", "--config", str(cfg), "--n", "6"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"wavelett": "haar"}))
    code = main(["coeffs", "--config", str(cfg)])
    assert code == 2
    assert "wavelett" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,entry",
    [
        pytest.param("expand", {"n": "3"}, id="int-from-string"),
        pytest.param("sweep", {"a_count": 2.5}, id="int-from-float"),
        pytest.param("cwt", {"a": True}, id="float-from-bool"),
        pytest.param("sweep", {"log": 1}, id="bool-from-int"),
        pytest.param("mellin", {"mirror": "yes"}, id="bool-from-string"),
        pytest.param("cwt", {"format": "xml"}, id="format-choice"),
        pytest.param("sweep", {"oracle": "both"}, id="sweep-oracle-choice"),
        pytest.param("expand", {"domain": "space"}, id="domain-choice"),
    ],
)
def test_config_entry_type_and_choice_exit_2(command, entry, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    assert main([command, "--config", str(cfg)]) == 2
    (key,) = entry
    assert f"error: {key} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,entry",
    [
        pytest.param("expand", {"oracle": "both"}, id="expand-oracle"),
        pytest.param("cwt", {"domain": "space"}, id="cwt-domain"),
        pytest.param("coeffs", {"amplitude": 2}, id="coeffs-amplitude"),
        pytest.param("expand", {"z": "1.5"}, id="expand-z"),
        pytest.param("sweep", {"mirror": True}, id="sweep-mirror"),
        pytest.param("coeffs", {"tol": 1e-8}, id="coeffs-tol"),
    ],
)
def test_config_key_the_subcommand_does_not_read_exits_2(
        command, entry, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    assert main([command, "--config", str(cfg)]) == 2
    (key,) = entry
    assert f"error: {key} is not read by {command}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mellin", "expand", "sweep"])
def test_no_subcommand_takes_a_mellin_method(command, tmp_path, capsys):
    """The signal's tail chooses the numeric Mellin route, so neither a
    flag nor a config entry names one."""
    for value in ("tail", "quad", "auto"):
        assert main([command, "--mellin-method", value]) == 2
        assert "--mellin-method" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mellin_method": "tail"}))
    assert main([command, "--config", str(cfg)]) == 2
    assert "unknown config keys: mellin_method" in capsys.readouterr().err


@pytest.mark.parametrize("signal,route", [
    ("lorentzian", "pure_quadrature"),
    ("gaussian", "pure_quadrature"),
    ("two_sided_exp", "split_tail_analytic"),
])
def test_mellin_reports_the_route_its_signal_chooses(signal, route, capsys):
    """Each signal's tail picks its route, with and without --mirror.  Every
    built-in signal is real and even, so h(-u) = conj(h(u)), and at real z
    the mirror moment is the conjugate of the plus moment within their
    summed estimates."""
    for z in ("1.5", "3"):
        rows = []
        for mirror in ([], ["--mirror"]):
            assert main(["mellin", "--signal", signal, "--b", "0.6", "--z", z,
                         "--format", "json", *mirror]) == 0
            rows.append(json.loads(capsys.readouterr().out))
        plus, minus = rows
        assert plus["method"] == minus["method"] == route
        assert (plus["mirror"], minus["mirror"]) == (False, True)
        gap = abs(complex(*minus["value"]) - complex(*plus["value"]).conjugate())
        assert gap <= plus["abs_error_estimate"] + minus["abs_error_estimate"]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    assert main(["coeffs", "--wavelet", "haar", "--n", "2"]) == 0
    assert main(["coeffs", "--wavelet", "mexhat", "--n", "3"]) == 0
    assert len(built) <= 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 3 + 4


def test_config_entry_of_the_field_type_is_accepted(tmp_path, capsys):
    # an int where a float is expected, a null where the field is optional,
    # and a choice that the subcommand's flag offers
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a": 1, "tol": None, "oracle": "both"}))
    assert main(["cwt", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--signal", "lorentzian", "--wavelet", "morlet", "--u0", "5",
        "--b", "0", "--a-min", "0.02", "--a-max", "0.1", "--a-count", "4",
        "--log", "--n", "2", "--tol", "1e-8", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["a", "oracle_re", "oracle_im", "expansion_re",
                       "expansion_im", "abs_error", "rel_error", "n",
                       "converged"]
    assert len(rows) == 6  # header, four grid points, summary
    grid = [float(r[0]) for r in rows[1:5]]
    assert grid == sorted(grid)
    assert rows[5][0] == "order"
    # b = 0 with two terms leaves the quadratic order: slope near 2.5
    assert abs(float(rows[5][5]) - 2.5) < 0.2
    for r in rows[1:5]:
        assert r[8] == "true"
        assert float(r[5]) > 0.0


def test_sweep_json(capsys):
    code = main([
        "sweep", "--signal", "gaussian", "--wavelet", "mexhat",
        "--a-min", "0.05", "--a-max", "0.2", "--a-count", "3",
        "--n", "3", "--format", "json",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["rows"]) == 3
    assert "order" in obj


def test_default_sweep_oracle_matches_the_fourier_route(capsys):
    """The default sweep takes the time route over the whole grid in one
    quadrature; near the two-sided exponential's kink its oracle column
    stays within the summed estimates of the independent Fourier route."""
    argv = ["sweep", "--signal", "two_sided_exp", "--wavelet", "mexhat",
            "--b", "0.03", "--a-min", "0.001", "--a-max", "0.3",
            "--a-count", "16", "--log", "--n", "4"]
    assert main(argv) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:-1]]
    grid = np.geomspace(1e-3, 0.3, 16)
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(WaveletKind.MexicanHat)
    timed = cwt_time(sig, wav, grid, 0.03)
    assert len(rows) == grid.size
    for row, a, t in zip(rows, grid, timed):
        printed = complex(float(row[1]), float(row[2]))
        assert printed == t.value and row[8] == "true"
        f = cwt_fourier(sig, wav, float(a), 0.03)
        assert abs(printed - f.value) <= t.abs_error_estimate + f.abs_error_estimate
    # --oracle fourier keeps the per-point route, threads and all
    assert main(argv + ["--oracle", "fourier", "--jobs", "2"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:-1]]
    for row, a in zip(rows, grid):
        f = cwt_fourier(sig, wav, float(a), 0.03)
        assert complex(float(row[1]), float(row[2])) == f.value


@pytest.mark.parametrize("oracle", [["--oracle", "time"],
                                    ["--oracle", "fourier", "--jobs", "2"]])
def test_sweep_csv_and_json_carry_the_same_numbers(oracle, capsys):
    argv = ["sweep", "--signal", "two_sided_exp", "--wavelet", "morlet",
            "--b", "0.2", "--a-min", "0.01", "--a-max", "0.2", "--a-count", "5",
            "--log", "--n", "3", *oracle]
    assert main(argv) == 0
    lines = [ln.split(",") for ln in capsys.readouterr().out.splitlines()]
    assert main(argv + ["--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(lines) == len(obj["rows"]) + 2  # header and order row
    for line, row in zip(lines[1:-1], obj["rows"]):
        numbers = [row["a"], *row["oracle"], *row["expansion"],
                   row["abs_error"], row["rel_error"]]
        assert line[:7] == [format(v, ".17g") for v in numbers]
        assert line[7:] == [str(row["n"]), str(row["converged"]).lower()]
    assert lines[-1][5] == format(obj["order"], ".17g")


@pytest.mark.parametrize("grid,a_values", [
    (["--a-min", "0.1", "--a-max", "0.1", "--a-count", "3"], [0.1] * 3),
    (["--a-count", "1", "--a-min", "0.05", "--a-max", "0.2"], [0.05]),
], ids=["coincident", "one-point"])
def test_sweep_on_a_grid_of_one_dilation_prints_nan_order(grid, a_values,
                                                          capsys):
    """Dilations that all coincide, or a grid of one (at --a-min), leave the
    fitted slope undefined: the order is nan, with nothing on stderr and
    exit code 0."""
    argv = ["sweep", "--signal", "gaussian", "--wavelet", "haar", "--b", "0.3",
            *grid, "--n", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [float(ln.split(",")[0]) for ln in lines[1:-1]] == a_values
    assert lines[-1] == "order,,,,,nan,,2,"


def test_sweep_jobs_starts_a_pool_only_for_the_fourier_oracle(monkeypatch,
                                                             capsys):
    """With the default grid oracle nothing is left per point but
    arithmetic on the grid, which costs less than a pool; --jobs then runs
    the sweep on one thread and prints the same bytes as --jobs 1."""
    import cwtasym.cli as cli

    pools = []
    real_pool = cli.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", counting_pool)
    argv = ["sweep", "--signal", "gaussian", "--wavelet", "haar", "--b", "0.4",
            "--a-min", "0.01", "--a-max", "0.2", "--a-count", "6", "--log",
            "--n", "3"]
    assert main(argv + ["--jobs", "1"]) == 0
    one = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == one
    assert pools == []
    assert main(argv + ["--jobs", "2", "--oracle", "fourier"]) == 0
    assert pools == [{"max_workers": 2}]


def test_cwt_defaults_to_the_time_route(capsys):
    assert main(["cwt", "--a", "0.05", "--b", "0.4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["time"]


def test_validate_list_names_every_check(capsys):
    code = main(["validate", "--list"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    names = [ln.split(":")[0] for ln in lines]
    assert "coefficient_tables" in names
    assert "sweep_determinism" in names


def test_validate_only_subset(capsys):
    code = main(["validate", "--only", "coefficient_tables"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS coefficient_tables" in out
    assert "1/1 checks passed" in out


def test_validate_unknown_check(capsys):
    code = main(["validate", "--only", "nonexistent_check"])
    assert code == 2
    assert "nonexistent_check" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,config,message",
    [
        pytest.param(["cwt", "--wavelet", "spline"], None, "invalid choice",
                     id="cwt-wavelet-choice"),
        pytest.param(["mellin", "--z", "abc"], None, "malformed",
                     id="mellin-z-malformed"),
        pytest.param(["cwt", "--b", "nan"], None, "--b must be finite",
                     id="cwt-b-nan"),
        pytest.param(["cwt", "--a", "inf"], None, "--a must be finite",
                     id="cwt-a-inf"),
        pytest.param(["cwt", "--tol", "nan"], None, "--tol must be finite",
                     id="cwt-tol-nan"),
        pytest.param(["mellin", "--z", "nan"], None, "--z must be finite",
                     id="mellin-z-nan"),
        pytest.param(["mellin", "--z", "1+infj"], None, "--z must be finite",
                     id="mellin-z-imag-inf"),
        pytest.param(["expand", "--b", "inf"], None, "--b must be finite",
                     id="expand-b-inf"),
        pytest.param(["sweep", "--jobs", "0"], None,
                     "--jobs must be at least 1", id="sweep-jobs-0"),
        pytest.param(["sweep", "--jobs", "-1"], None,
                     "--jobs must be at least 1", id="sweep-jobs-negative"),
        pytest.param(["sweep", "--a-max", "inf", "--log"], None,
                     "--a-max must be finite", id="sweep-a-max-inf"),
        pytest.param(["expand"], {"u0": math.inf}, "--u0 must be finite",
                     id="config-u0-inf"),
        pytest.param(["cwt"], {"amplitude": math.nan},
                     "--amplitude must be finite", id="config-amplitude-nan"),
        pytest.param(["cwt"], {"time_scale": -math.inf},
                     "--time-scale must be finite", id="config-time-scale-inf"),
        pytest.param(["sweep"], {"a_min": math.nan}, "--a-min must be finite",
                     id="config-a-min-nan"),
        pytest.param(["sweep"], {"jobs": 0}, "--jobs must be at least 1",
                     id="config-jobs-0"),
        pytest.param(["cwt"], {"b": "1"}, "must be real number",
                     id="config-b-string"),
        # finite but out of range: refused where the value is used
        pytest.param(["cwt", "--a", "0"], None,
                     "the dilation parameter must be positive", id="cwt-a-0"),
        pytest.param(["cwt", "--a", "-1"], None,
                     "the dilation parameter must be positive",
                     id="cwt-a-negative"),
        pytest.param(["coeffs", "--n", "0"], None,
                     "need at least one coefficient", id="coeffs-n-0"),
        pytest.param(["expand", "--n", "0"], None,
                     "need at least one expansion term", id="expand-n-0"),
        pytest.param(["cwt", "--u0", "0"], None,
                     "the modulated-Gaussian wavelet needs u0 > 0",
                     id="cwt-u0-0"),
        pytest.param(["mellin", "--z", "0"], None,
                     "the transform needs Re(z) > 0", id="mellin-z-0"),
        pytest.param(["mellin", "--z", "-1"], None,
                     "the transform needs Re(z) > 0", id="mellin-z-negative"),
        pytest.param(["cwt", "--tol", "1e-20"], None,
                     "--tol must be at least 100*machine epsilon",
                     id="cwt-tol-tiny"),
        # coeffs integrates nothing, so it takes no tolerance
        pytest.param(["coeffs", "--tol", "1e-8"], None,
                     "unrecognized arguments: --tol", id="coeffs-tol"),
        pytest.param(["sweep", "--a-count", "0"], None,
                     "--a-count must be at least 1", id="sweep-a-count-0"),
        pytest.param(["sweep", "--a-min", "0"], None,
                     "need 0 < --a-min <= --a-max", id="sweep-a-min-0"),
        pytest.param(["sweep", "--a-min", "2", "--a-max", "1"], None,
                     "need 0 < --a-min <= --a-max", id="sweep-a-min-above-max"),
        pytest.param(["cwt"], {"time_scale": 0}, "time_scale must be positive",
                     id="config-time-scale-0"),
    ],
)
def test_invalid_flag_values_exit_2(argv, config, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))  # writes NaN/Infinity literals
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    # argparse prints its usage first; every other refusal is one line
    lines = captured.err.splitlines()
    if not lines[0].startswith("usage: "):
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["expand", "--a", "1e150", "--n", "4"],
    ["expand", "--a", "1e150", "--n", "4", "--remainder", "integral_m0"],
    ["sweep", "--a-min", "1e100", "--a-max", "1e200"],
], ids=["expand", "expand-remainder", "sweep"])
def test_huge_dilation_overflow_exits_1(argv, capsys):
    """a**s past the float range ends in one error line, not a traceback."""
    code = main([*argv, "--signal", "lorentzian", "--wavelet", "morlet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_divergent_moment_exits_1(capsys):
    code = main(["mellin", "--signal", "two_sided_exp", "--b", "0",
                 "--z", "2.5"])
    assert code == 1
    assert "tail term of order 0 diverges" in capsys.readouterr().err


@pytest.mark.parametrize("rotation,checks", [
    ((1.0, 1.0, 1.0, 1.0), ("route_agreement", "convergence_orders")),
    ((1.0, 1.0j, -1.0, -1.0j), ("route_agreement",)),
], ids=["no-rotation", "odd-sign"])
def test_mutated_product_formula_is_caught(rotation, checks, monkeypatch,
                                           capsys):
    """Breaking the (-i)^s factor of the products must fail validation:
    dropping it breaks the cancellation behind the measured orders, and
    taking i^s flips the odd orders' sign, which ``route_agreement`` sees
    against both routes' moments at b != 0."""
    monkeypatch.setattr(expansion, "_MINUS_I_POW", rotation)
    for name in checks:
        code = main(["validate", "--only", name])
        out = capsys.readouterr().out
        assert code == 1, name
        assert f"FAIL {name}" in out


_MOMENT_ROUTES = ("mellin_transform", "_time_moment_closed",
                  "_time_moment_quadrature", "parabolic_cylinder_D")


def _count_moment_calls(monkeypatch):
    """Count calls of every moment route, by whichever module binds it."""
    import sys

    calls = []
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("cwtasym")]:
        for name in _MOMENT_ROUTES:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "domain,wavelet", [("frequency", "morlet"), ("time", "mexhat")])
def test_sweep_plan_computes_no_moment(domain, wavelet, monkeypatch, capsys):
    """The plan's products come from the two Taylor tables alone: a sweep
    of 16 dilations takes no Mellin moment, wavelet time moment or
    parabolic cylinder function on either route."""
    calls = _count_moment_calls(monkeypatch)
    code = main([
        "sweep", "--signal", "lorentzian", "--wavelet", wavelet, "--u0", "5",
        "--b", "0.5", "--a-min", "0.001", "--a-max", "0.3", "--a-count", "16",
        "--log", "--n", "3", "--domain", domain,
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 18
    assert calls == []


def test_far_modulated_gaussian_time_route_exits_0(capsys):
    """At u0 = 40 e^{-u0^2/2} underflows: every wavelet coefficient, and so
    every term, is an exact zero within its estimate, where the time
    route's parabolic cylinder moments used to exit 1 out of range."""
    code = main(["expand", "--signal", "lorentzian", "--wavelet", "morlet",
                 "--u0", "40", "--a", "0.05", "--b", "0.3", "--n", "4",
                 "--domain", "time"])
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:]
            for ln in capsys.readouterr().out.strip().splitlines()[1:]}
    for s in range(4):
        re_, im, est = map(float, rows[f"term_{s}"])
        assert math.isfinite(est) and abs(complex(re_, im)) <= est, s


def test_far_gaussian_expansion_prints_zeros(capsys):
    """At b = 45 every Taylor coefficient of the Gaussian rounds to 0, so
    every term is 0, within an estimate of a few least subnormals, not a
    quadrature's -1.9e-18 +- 1e-16."""
    code = main(["expand", "--signal", "gaussian", "--wavelet", "mexhat",
                 "--b", "45", "--a", "0.05", "--n", "4"])
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:]
            for ln in capsys.readouterr().out.strip().splitlines()[1:]}
    for field in [f"term_{s}" for s in range(4)] + ["partial_sum"]:
        re_, im, est = map(float, rows[field])
        assert re_ == im == 0.0 and est < 1e-300, field


def test_time_remainder_within_printed_budget(capsys):
    """The Taylor-tail series below the cutover is summed to full precision;
    a fixed series length left a 4.3e-10 error here against a claimed
    6.7e-15."""
    b, a = 0.34861763532192774, 0.14427185700077563
    code = main(["expand", "--signal", "lorentzian", "--wavelet", "mexhat",
                 "--b", repr(b), "--a", repr(a), "--n", "2",
                 "--domain", "time", "--remainder", "integral_m0"])
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:]
            for ln in capsys.readouterr().out.strip().splitlines()[1:]}
    re_, im, budget = map(float, rows["prediction"])
    orc = cwt_fourier(make_signal(SignalKind.Lorentzian),
                      make_wavelet(WaveletKind.MexicanHat), a, b)
    assert abs(complex(re_, im) - orc.value) <= budget + orc.abs_error_estimate


def test_haar_time_remainder_splits_at_signal_kink(capsys):
    """With the two-sided exponential's kink at t = 0 inside the step
    wavelet's support (0 < -b/a < 1), the remainder's panels must break
    there; without that breakpoint it missed by 3.8e-12 against 2.6e-16."""
    b, a = -0.007880560910214376, 0.09033171147416766
    code = main(["expand", "--signal", "two_sided_exp", "--wavelet", "haar",
                 "--b", repr(b), "--a", repr(a), "--n", "3",
                 "--domain", "time", "--remainder", "integral_m0"])
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:]
            for ln in capsys.readouterr().out.strip().splitlines()[1:]}
    re_, im, budget = map(float, rows["prediction"])
    orc = cwt_fourier(make_signal(SignalKind.TwoSidedExp),
                      make_wavelet(WaveletKind.Haar), a, b)
    assert abs(complex(re_, im) - orc.value) <= budget + orc.abs_error_estimate
