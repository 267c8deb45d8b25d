"""30-digit formulas of the built-in signals and Gaussian wavelets, shared
by the seeded audits of the oracles' and the remainder's estimates."""

import mpmath as mp

from cwtasym.signals import SignalKind
from cwtasym.wavelets import WaveletKind

# f(t) of each built-in signal at unit amplitude and time scale
MP_SIGNALS = {
    SignalKind.Lorentzian: lambda t: 1 / (1 + t * t),
    SignalKind.TwoSidedExp: lambda t: mp.exp(-abs(t)),
    SignalKind.Gaussian: lambda t: mp.exp(-t * t / 2),
}


def mp_wavelet(kind, u0):
    """conj(psi)(s) of a Gaussian wavelet in mpmath, its values kept across
    the calls of one audit, which share most nodes."""
    psi = {}

    def psi_at(s):
        if s not in psi:
            gauss = mp.exp(-s * s / 2)
            psi[s] = (mp.expj(-u0 * s) * gauss if kind == WaveletKind.Morlet
                      else (1 - s * s) * gauss)
        return psi[s]

    return psi_at
