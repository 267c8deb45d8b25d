"""60-digit reference moments shared by the Mellin and expansion tests."""

import mpmath as mp


def two_sided_exp_moment(amplitude, scale, b, z, mirror):
    """The Abel-regularized moment of h(u) = e^{ibu} A s 2/(1 + s^2 u^2).

    With A s 2/(1 + s^2 u^2) = A s [(i/s)/(u + i/s) + (-i/s)/(u - i/s)],
    each fraction is Gradshteyn-Ryzhik 3.383.10,
    int_0^inf u^{z-1} e^{-mu u}/(u + beta) du
    = beta^{z-1} e^{beta mu} Gamma(z) Gamma(1 - z, beta mu),
    at mu = 1e-40 -+ ib: the damping e^{-eps u} of the Abel limit, which
    also keeps beta*mu off Gamma's branch cut.
    """
    with mp.workdps(60):
        mu = mp.mpf("1e-40") - 1j * mp.mpf(-b if mirror else b)
        z = mp.mpc(z)
        total = 0
        for beta in (mp.mpc(0, 1) / scale, mp.mpc(0, -1) / scale):
            total += (beta * beta ** (z - 1) * mp.exp(beta * mu) * mp.gamma(z)
                      * mp.gammainc(1 - z, beta * mu))
        return complex(amplitude * scale * total)
