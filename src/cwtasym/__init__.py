"""Continuous wavelet transforms by quadrature and small-dilation asymptotic expansions.

The package evaluates the wavelet transform W(b, a) two independent ways — a
ground-truth adaptive quadrature oracle (time domain and Fourier domain) and a
truncated small-a expansion built from two closed-form Taylor tables, the
signal's and the wavelet's — and provides the diagnostics that compare them.
"""

from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    QuadratureResult,
    QuadratureResults,
    integrate,
)
from .signals import (
    SignalKind,
    SignalSpec,
    HSpec,
    make_signal,
    make_h,
    f_hat,
    h_eval,
    time_coefficients,
)
from .specfun import (
    SpecFunError,
    SpecFunResult,
    gamma_complex,
    upper_incomplete_gamma,
    parabolic_cylinder_D,
)
from .wavelets import (
    WaveletKind,
    WaveletSpec,
    CoefficientTable,
    make_wavelet,
    psi_conj,
    psi_hat_conj,
    small_u_coefficients,
    small_u_coefficients_numeric,
)
from .oracle import cwt_time, cwt_fourier
from .mellin import (
    MellinError,
    MellinMethod,
    MellinValue,
    mellin_transform,
    mellin_morlet_time,
)
from .expansion import (
    ExpansionPlan,
    ExpansionResult,
    RemainderKind,
    convergence_order,
    expansion_plan,
)
from .checks import available_checks, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureResults",
    "integrate",
    "SignalKind",
    "SignalSpec",
    "HSpec",
    "make_signal",
    "make_h",
    "f_hat",
    "h_eval",
    "time_coefficients",
    "SpecFunError",
    "SpecFunResult",
    "gamma_complex",
    "upper_incomplete_gamma",
    "parabolic_cylinder_D",
    "WaveletKind",
    "WaveletSpec",
    "CoefficientTable",
    "make_wavelet",
    "psi_conj",
    "psi_hat_conj",
    "small_u_coefficients",
    "small_u_coefficients_numeric",
    "cwt_time",
    "cwt_fourier",
    "MellinError",
    "MellinMethod",
    "MellinValue",
    "mellin_transform",
    "mellin_morlet_time",
    "ExpansionPlan",
    "ExpansionResult",
    "RemainderKind",
    "convergence_order",
    "expansion_plan",
    "available_checks",
    "run_all",
    "run_check",
    "__version__",
]
