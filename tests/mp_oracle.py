"""The arbitrary-precision oracle of the symbol tests: the direct sums
B(w)/A(w) of exact taps, at mpmath's working precision.

mpmath is a test-only dependency; the library evaluates every symbol in
float, from the exact factored form that these sums are checked against.
"""

import mpmath as mp


def _mpf(q):
    """An exact rational (a Fraction or an int) as an mpf."""
    return mp.mpf(q.numerator) / q.denominator


def direct_sum(taps, alpha, beta, derivative_order, omega):
    """psi(w) (T(w) for d = 0) of (h/2 offset, weight) taps over the band
    1 + 2 alpha cos(w) + 2 beta cos(2w), summed directly.

    On e^{ikx} the scheme acts as i^d B(w)/A(w), and B carries a factor i for
    antisymmetric taps, so one real sign covers d = 0, 1 and 3.  Only offsets
    m >= 0 are read: w_0 + sum 2 w_m cos(m w/2) for even d, sum 2 w_m
    sin(m w/2) for odd d.
    """
    omega = mp.mpf(omega)
    odd = derivative_order % 2 == 1
    trig = mp.sin if odd else mp.cos
    num = mp.mpf(0)
    for m, w in taps:
        if m > 0:
            num += 2 * _mpf(w) * trig(m * omega / 2)
        elif m == 0 and not odd:
            num += _mpf(w)
    den = 1 + 2 * _mpf(alpha) * mp.cos(omega) + 2 * _mpf(beta) * mp.cos(2 * omega)
    sign = -1 if derivative_order % 4 == 3 else 1
    return sign * num / den


def psi_mp(sym, omega):
    """The direct sum of a ``spectral.SchemeSymbol``, times its CI transfer
    if it is composed with one."""
    out = direct_sum(sym.taps, sym.alpha, sym.beta, sym.derivative_order, omega)
    if sym.transfer is not None:
        out = out * psi_mp(sym.transfer, omega)
    return out
