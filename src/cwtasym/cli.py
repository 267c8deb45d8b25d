"""Command-line interface.

Subcommands::

    coeffs     small-argument wavelet coefficient table
    cwt        transform value at one (a, b) from either oracle
    mellin     regularized Mellin moment of the boundary function
    expand     truncated expansion with optional remainder at one dilation
    sweep      expansion-vs-oracle error table over a dilation grid
    validate   run the built-in numerical validation checks

``sweep`` computes the expansion's coefficients and moments once (an
``ExpansionPlan``) and its terms at the whole grid in one array evaluation
(``plan.terms``).  Its default oracle, the time route, is one vector-valued
quadrature over the whole grid (``cwt_time`` given the grid); ``--oracle
fourier`` integrates each point on its own.  ``--jobs`` takes only ``1``
and changes nothing.  The ``order`` row is the least-squares slope of log
error against log a, ``nan`` where it is undefined.  ``cwt`` and
``sweep`` both default to the time route.

Options may come from flags or from a JSON config file (``--config``);
flags win over the file, the file wins over defaults.  Config keys that
the subcommand does not read are rejected (a key is read if the subcommand
has that flag, and ``amplitude``/``time_scale`` by every subcommand that
builds a signal), as are config entries of the wrong JSON type or outside
the choices of the subcommand's matching flag, and, from either source, a
non-finite ``a``, ``b``, ``u0``, ``a_min``, ``a_max``, ``tol``,
``amplitude``, ``time_scale`` or ``z``.  Exit codes:
0 success, 1 runtime/validation failure, 2 invalid arguments, 3 ``cwt`` or
``sweep`` produced non-converged quadrature results.  ``cwt --format json`` also
reports why each route's quadrature stopped (``status``).

``expand`` and ``sweep`` build their expansion one way, from the signal's
and the wavelet's Taylor coefficients, and ``expand`` its remainder one
way, the Taylor tail of the signal against the wavelet (its empirical
remainder from ``cwt_time``).  ``--domain`` changes no byte of either
command's CSV; it is accepted for scripts that pass it, and ``expand
--format json`` echoes it, but nothing past the parser reads it.  ``mellin`` prints ``mellin_transform``'s
``"auto"`` moment, whose route the signal's tail decides (the split tail
for the two-sided exponential, direct quadrature otherwise) and whose
``method`` column names it; the ``mellin_method_agreement`` check compares
the split tail with the closed form.  The argument parser is built once
per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .checks import available_checks, run_all
from .expansion import convergence_order, expansion_plan
from .mellin import MellinError, mellin_transform
from .oracle import cwt_fourier, cwt_time
from .quadrature import QuadratureConfig, QuadratureError
from .signals import SignalKind, make_h, make_signal
from .specfun import SpecFunError
from .wavelets import WaveletKind, make_wavelet, small_u_coefficients


@dataclass
class RunConfig:
    """Merged view of flags, config-file entries, and defaults."""

    signal: str = "lorentzian"
    wavelet: str = "morlet"
    u0: float = 5.0
    b: float = 0.0
    a: float = 0.1
    a_min: float = 0.01
    a_max: float = 0.1
    a_count: int = 8
    log: bool = False
    n: int = 3
    domain: str = "frequency"
    oracle: str = "time"
    format: str = "csv"
    out: Optional[str] = None
    config: Optional[str] = None
    tol: Optional[float] = None
    remainder: str = "none"
    z: str = "1.5"
    mirror: bool = False
    amplitude: float = 1.0
    time_scale: float = 1.0


# The JSON types a config-file entry may take, by its RunConfig field's type.
_CONFIG_TYPES = {
    "bool": ("boolean", (bool,)),
    "int": ("integer", (int,)),
    "float": ("real number", (int, float)),
    "str": ("string", (str,)),
}


def _check_config_entry(field, value, choices) -> None:
    """Reject a config-file value of the wrong type or outside ``choices``."""
    if value is None and field.type.startswith("Optional["):
        return
    kind = field.type.removeprefix("Optional[").removesuffix("]")
    name, types = _CONFIG_TYPES[kind]
    # bool is a subclass of int, but true is not a number here
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{field.name} must be {name}, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(
            f"{field.name} must be one of {', '.join(choices)}, got {value!r}"
        )


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence: command-line flags > config file > defaults.

    Each config-file entry must be one the subcommand reads (see
    ``build_parser``), have its field's type and, where the subcommand's
    matching flag has choices, be one of them.
    """
    cfg = RunConfig()
    by_name = {f.name: f for f in fields(RunConfig)}
    path = getattr(args, "config", None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(by_name))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        flag_choices = getattr(args, "flag_choices", {})
        for key, value in data.items():
            if key not in args.config_keys:
                raise ValueError(f"{key} is not read by {args.command}")
            _check_config_entry(by_name[key], value, flag_choices.get(key))
            setattr(cfg, key, value)
    for key, value in vars(args).items():
        if key in by_name and value is not None:
            setattr(cfg, key, value)
    return cfg


_FINITE_FIELDS = ("a", "b", "u0", "a_min", "a_max", "tol", "amplitude",
                  "time_scale")


def _check_inputs(rc: RunConfig) -> None:
    """Reject non-finite numbers."""
    for name in _FINITE_FIELDS:
        value = getattr(rc, name)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if not cmath.isfinite(complex(rc.z)):
        raise ValueError(f"--z must be finite, got {rc.z!r}")


def _quad_config(rc: RunConfig) -> QuadratureConfig:
    if rc.tol is None:
        return QuadratureConfig()
    try:
        return QuadratureConfig(rel_tol=float(rc.tol))
    except ValueError as exc:
        raise ValueError(str(exc).replace("rel_tol", "--tol", 1)) from None


def _build_signal(rc: RunConfig):
    return make_signal(
        SignalKind(rc.signal), amplitude=rc.amplitude, time_scale=rc.time_scale
    )


def _build_wavelet(rc: RunConfig):
    return make_wavelet(WaveletKind(rc.wavelet), u0=rc.u0)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _emit(rc: RunConfig, header, rows, json_obj) -> None:
    if rc.format == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if rc.out:
        with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(rc: RunConfig) -> int:
    wav = _build_wavelet(rc)
    table = small_u_coefficients(wav, rc.n)
    rows = [
        (s, _g(c.real), _g(c.imag)) for s, c in enumerate(table.coefficients)
    ]
    obj = {
        "wavelet": rc.wavelet,
        "u0": rc.u0,
        "n": rc.n,
        "coefficients": [[c.real, c.imag] for c in table.coefficients],
    }
    _emit(rc, ("s", "c_re", "c_im"), rows, obj)
    return 0


def _cmd_cwt(rc: RunConfig) -> int:
    sig = _build_signal(rc)
    wav = _build_wavelet(rc)
    qcfg = _quad_config(rc)
    routes = ("time", "fourier") if rc.oracle == "both" else (rc.oracle,)
    rows = []
    obj = {"a": rc.a, "b": rc.b, "routes": {}}
    all_converged = True
    for route in routes:
        fn = cwt_time if route == "time" else cwt_fourier
        res = fn(sig, wav, rc.a, rc.b, qcfg)
        all_converged = all_converged and res.converged
        rows.append(
            (
                route,
                _g(res.value.real),
                _g(res.value.imag),
                _g(res.abs_error_estimate),
                str(res.converged).lower(),
            )
        )
        obj["routes"][route] = {
            "value": [res.value.real, res.value.imag],
            "abs_error_estimate": res.abs_error_estimate,
            "converged": res.converged,
            "status": res.status,
        }
    _emit(
        rc,
        ("route", "value_re", "value_im", "abs_error_estimate", "converged"),
        rows,
        obj,
    )
    return 0 if all_converged else 3


def _cmd_mellin(rc: RunConfig) -> int:
    sig = _build_signal(rc)
    h = make_h(sig, rc.b)
    z = complex(rc.z)
    qcfg = _quad_config(rc)
    res = mellin_transform(h, z, "auto", qcfg, mirror=rc.mirror)
    rows = [
        (
            _g(z.real),
            _g(z.imag),
            str(rc.mirror).lower(),
            res.method.value,
            _g(res.value.real),
            _g(res.value.imag),
            _g(res.abs_error_estimate),
        )
    ]
    obj = {
        "z": [z.real, z.imag],
        "b": rc.b,
        "mirror": rc.mirror,
        "method": res.method.value,
        "value": [res.value.real, res.value.imag],
        "abs_error_estimate": res.abs_error_estimate,
    }
    _emit(
        rc,
        ("z_re", "z_im", "mirror", "method", "value_re", "value_im",
         "abs_error_estimate"),
        rows,
        obj,
    )
    return 0


def _cmd_expand(rc: RunConfig) -> int:
    sig = _build_signal(rc)
    wav = _build_wavelet(rc)
    qcfg = _quad_config(rc)
    res = expansion_plan(sig, wav, rc.b, rc.n, qcfg).at(rc.a, rc.remainder)
    rows = [
        (f"term_{s}", _g(t.real), _g(t.imag), _g(e))
        for s, (t, e) in enumerate(zip(res.terms, res.term_error_estimates))
    ]
    rows.append(
        (
            "partial_sum",
            _g(res.partial_sum.real),
            _g(res.partial_sum.imag),
            _g(res.abs_error_estimate),
        )
    )
    rows.append(
        (
            "remainder",
            _g(res.remainder_estimate.real),
            _g(res.remainder_estimate.imag),
            _g(res.remainder_error_estimate),
        )
    )
    rows.append(
        (
            "prediction",
            _g(res.prediction.real),
            _g(res.prediction.imag),
            _g(res.abs_error_estimate + res.remainder_error_estimate),
        )
    )
    obj = {
        "domain": rc.domain,
        "a": res.a,
        "b": res.b,
        "n": res.n,
        "terms": [[t.real, t.imag] for t in res.terms],
        "term_error_estimates": list(map(float, res.term_error_estimates)),
        "partial_sum": [res.partial_sum.real, res.partial_sum.imag],
        "remainder_kind": res.remainder_kind.value,
        "remainder_estimate": [
            res.remainder_estimate.real,
            res.remainder_estimate.imag,
        ],
        "prediction": [res.prediction.real, res.prediction.imag],
    }
    _emit(rc, ("field", "value_re", "value_im", "abs_error_estimate"), rows, obj)
    return 0


def _sweep_grid(rc: RunConfig) -> np.ndarray:
    if rc.a_count < 1:
        raise ValueError("--a-count must be at least 1")
    if not (rc.a_min > 0.0 and rc.a_max >= rc.a_min):
        raise ValueError("need 0 < --a-min <= --a-max")
    if rc.a_count == 1:
        return np.array([rc.a_min])
    if rc.log:
        return np.geomspace(rc.a_min, rc.a_max, rc.a_count)
    return np.linspace(rc.a_min, rc.a_max, rc.a_count)


def _cmd_sweep(rc: RunConfig) -> int:
    sig = _build_signal(rc)
    wav = _build_wavelet(rc)
    qcfg = _quad_config(rc)
    a_values = _sweep_grid(rc)
    plan = expansion_plan(sig, wav, rc.b, rc.n, qcfg)
    terms, _ = plan.terms(a_values)
    partials = terms.sum(axis=1).tolist()
    # The time route is one quadrature over the whole grid; the Fourier
    # route integrates each point on its own.
    if rc.oracle == "time":
        oracles = cwt_time(sig, wav, a_values, rc.b, qcfg)
    else:
        oracles = [cwt_fourier(sig, wav, a, rc.b, qcfg)
                   for a in a_values.tolist()]

    points = []
    for a, oracle, partial in zip(a_values.tolist(), oracles, partials):
        abs_err = abs(oracle.value - partial)
        rel_err = abs_err / abs(oracle.value) if oracle.value != 0.0 else math.nan
        points.append((a, oracle, partial, abs_err, rel_err))
    try:
        order = convergence_order(a_values, [p[3] for p in points])
    except ValueError:
        order = math.nan

    rows = obj = None
    if rc.format == "json":
        obj = {
            "rows": [
                {
                    "a": a,
                    "oracle": [o.value.real, o.value.imag],
                    "expansion": [p.real, p.imag],
                    "abs_error": abs_err,
                    "rel_error": rel_err,
                    "n": rc.n,
                    "converged": o.converged,
                }
                for a, o, p, abs_err, rel_err in points
            ],
            "order": order,
        }
    else:
        rows = [
            (
                _g(a),
                _g(o.value.real),
                _g(o.value.imag),
                _g(p.real),
                _g(p.imag),
                _g(abs_err),
                _g(rel_err),
                rc.n,
                str(o.converged).lower(),
            )
            for a, o, p, abs_err, rel_err in points
        ]
        rows.append(("order", "", "", "", "", _g(order), "", rc.n, ""))
    header = (
        "a",
        "oracle_re",
        "oracle_im",
        "expansion_re",
        "expansion_im",
        "abs_error",
        "rel_error",
        "n",
        "converged",
    )
    _emit(rc, header, rows, obj)
    return 0 if all(o.converged for o in oracles) else 3


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.list:
        for name, desc in available_checks():
            sys.stdout.write(f"{name}: {desc}\n")
        return 0
    names = args.only if args.only else None
    try:
        results = run_all(names)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failed += 1
        sys.stdout.write(f"{status} {res.name}: {res.detail}\n")
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} checks passed\n"
    )
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwtasym",
        description="Small-dilation wavelet-transform expansions with "
        "oracle-grade quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, grid=False, point=True, tol=True):
        p.add_argument("--signal", choices=[k.value for k in SignalKind])
        p.add_argument("--wavelet", choices=[k.value for k in WaveletKind])
        p.add_argument("--u0", type=float)
        p.add_argument("--b", type=float)
        if point:
            p.add_argument("--a", type=float)
        if grid:
            p.add_argument("--a-min", dest="a_min", type=float)
            p.add_argument("--a-max", dest="a_max", type=float)
            p.add_argument("--a-count", dest="a_count", type=int)
            p.add_argument("--log", action="store_const", const=True)
        p.add_argument("--n", type=int)
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out")
        p.add_argument("--config")
        if tol:
            p.add_argument("--tol", type=float)

    p = sub.add_parser("coeffs", help="wavelet coefficient table")
    add_common(p, point=False, tol=False)

    p = sub.add_parser("cwt", help="transform value from the oracles")
    add_common(p)
    p.add_argument("--oracle", choices=["time", "fourier", "both"],
                   help="quadrature route(s) to print (default: time)")

    p = sub.add_parser("mellin", help="regularized Mellin moment")
    add_common(p, point=False)
    p.add_argument("--z", help="complex exponent, e.g. '2' or '1.5+0.5j'")
    p.add_argument("--mirror", action="store_const", const=True)

    p = sub.add_parser("expand", help="truncated expansion at one dilation")
    add_common(p)
    p.add_argument("--domain", choices=["frequency", "time"],
                   help="accepted and echoed in --format json; every "
                   "remainder takes the time route, so the CSV is the same "
                   "either way")
    p.add_argument("--remainder", choices=["none", "integral_m0", "empirical"])

    p = sub.add_parser("sweep", help="error table over a dilation grid")
    add_common(p, grid=True, point=False)
    p.add_argument("--domain", choices=["frequency", "time"],
                   help="accepted and ignored; a sweep prints no remainder, "
                   "so its output is the same either way")
    p.add_argument("--oracle", choices=["time", "fourier"],
                   help="reference route (default: time, one quadrature over "
                   "the whole grid; fourier integrates each point on its own)")
    p.add_argument("--jobs", type=int, choices=[1],
                   help="accepted and ignored; the sweep runs on one thread")

    for name, p in sub.choices.items():
        # The keys a config file may give (the subcommand's flags, plus the
        # signal's scaling where it builds a signal) and the choices an
        # entry is held to (see _merge_config).
        keys = {a.dest for a in p._actions}
        if name != "coeffs":
            keys |= {"amplitude", "time_scale"}
        p.set_defaults(config_keys=keys, flag_choices={
            a.dest: a.choices for a in p._actions if a.choices is not None
        })

    p = sub.add_parser("validate", help="run numerical validation checks")
    p.add_argument("--list", action="store_true")
    p.add_argument("--only", action="append")

    return parser


# Built by the first main call and reused: building it costs more than a
# whole one-point ``cwt`` command.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    if args.command == "validate":
        return _cmd_validate(args)

    try:
        rc = _merge_config(args)
        _check_inputs(rc)
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    dispatch = {
        "coeffs": _cmd_coeffs,
        "cwt": _cmd_cwt,
        "mellin": _cmd_mellin,
        "expand": _cmd_expand,
        "sweep": _cmd_sweep,
    }
    try:
        return dispatch[args.command](rc)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (MellinError, QuadratureError, SpecFunError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OverflowError as exc:
        # a term's power a**s past the float range, for a huge dilation
        sys.stderr.write(f"error: floating-point overflow: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
