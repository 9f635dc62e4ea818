"""The reference evaluator of the symbol tests: a ``SchemeSymbol``'s factored
form built in ``Fraction`` arithmetic on object arrays and evaluated by
``numpy.polynomial.polynomial.polyval``.

The library builds the same form in integers over one common denominator and
runs Horner's rule in place; these functions are what it must equal bit for
bit.
"""

import numpy as np
from numpy.polynomial.polynomial import polyval


def _chebyshev_in_y(first, count):
    """T_k (first = [1, -1]) or U_k (first = [2, -2]) of x = 1 - y for k < count,
    as exact coefficient arrays of count terms in ascending powers of y."""
    polys = [np.array([1] + [0] * (count - 1), dtype=object),
             np.array(first + [0] * (count - 2), dtype=object)]
    while len(polys) < count:
        p = polys[-1]
        polys.append(2 * p - 2 * np.roll(p, 1) - polys[-2])  # 2 x p - q
    return polys


def _divide_out(poly, root):
    """(j, q) with poly(y) = (y - root)^j q(y) and q(root) != 0, exactly."""
    j = 0
    while True:
        quotient, acc = [], 0
        for c in reversed(poly):  # synthetic division, highest power first
            acc = acc * root + c
            quotient.append(acc)
        if acc != 0:
            return j, poly
        poly, j = quotient[-2::-1], j + 1


def factored(sym):
    """(k_r, P, A) of ``sym`` as float arrays in ascending powers of y, with
    the zero high coefficients that the rational build leaves in place."""
    odd = sym.derivative_order % 2 == 1
    count = max(4, *(m for m, _ in sym.taps)) + 1
    cheb_t = _chebyshev_in_y([1, -1], count)
    cheb_u = _chebyshev_in_y([2, -2], count)
    sign = -1 if sym.derivative_order % 4 == 3 else 1
    num = sum(sign * 2 * w * (cheb_u[m - 1] if odd else cheb_t[m])
              for m, w in sym.taps if m > 0)
    if not odd:
        num = num + sum(w * cheb_t[0] for m, w in sym.taps if m == 0)
    den = cheb_t[0] + 2 * sym.alpha * cheb_t[2] + 2 * sym.beta * cheb_t[4]
    powers = []
    for root in (0, 1, 2):
        k_num, num = _divide_out(num, root)
        k_den, den = _divide_out(den, root)
        powers.append(k_num - k_den)
    return powers, np.array(num, dtype=float), np.array(den, dtype=float)


def trim(coeffs):
    """``coeffs`` without its zero high coefficients, keeping at least one."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def evaluate(sym, trig):
    """psi or T of ``sym`` from ``spectral._trig`` factors, by ``polyval``
    on the untrimmed coefficients, times the CI transfer."""
    factors, sine = trig
    powers, num, den = factored(sym)
    out = polyval(factors[0], num) / polyval(factors[0], den)
    for factor, k in zip(factors, powers):
        if k:  # x * 1 = x exactly
            out = out * factor ** k
    if sym.derivative_order % 2 == 1:
        out = out * sine
    if sym.transfer is not None:
        out = out * evaluate(sym.transfer, trig)
    return out


def resolving_efficiency(sym, eps_t, mode):
    """w_f of ``spectral.resolving_efficiency`` with every psi from
    ``evaluate``: the scan on the 20,000 midpoints of (0, pi), allocated per
    call, its crossing found by ``np.nonzero``, then bisection to
    |dw| <= 1e-5 on scalar psi."""
    from dispersive_compact import spectral

    d = sym.derivative_order

    def err(w):
        psi = evaluate(sym, spectral._trig(np.asarray(w, dtype=float)))
        return np.abs(psi - w ** d) / w ** d

    def refine(lo, hi):
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if err(mid) > eps_t:
                hi = mid
            else:
                lo = mid
        return lo

    samples = 20000
    omega = (np.arange(1, samples + 1) - 0.5) * np.pi / samples
    scan = err(omega)
    if mode == "strict":
        beyond = np.nonzero(scan > eps_t)[0]
        if not beyond.size:
            return np.pi
        k = beyond[0]
        return refine(float(omega[max(k - 1, 0)]), float(omega[k]))
    within = np.nonzero(scan <= eps_t)[0]
    if not within.size:
        return float(omega[0])
    k = within[-1]
    return np.pi if k == samples - 1 else refine(float(omega[k]), float(omega[k + 1]))
