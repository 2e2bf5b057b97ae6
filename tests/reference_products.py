"""Reference Pochhammer products for the tests, kept apart from the library's
one-pass dense kernel.

``schoolbook_binomials`` multiplies the factors (1 - sign q^e) one at a time,
each as a two-term series, at a truncation padded by the negative exponents
so those factors cannot erode exactness below the order.  The symbols and
their inverses are built from it with ``LaurentSeries`` products and
``invert`` only.  ``ref_compose`` is the product form of ``compose_exact``:
the parent times each unit as such a series, and ``ref_beta_from_spec``
builds a registry beta the same way.
"""

from qbailey.laurent import LaurentSeries, one, zero
from qbailey.qproducts import PochFactor


def schoolbook_binomials(exps_signs, order):
    """prod (1 - sign q^e) over (e, sign), negative e allowed, exact to order."""
    pad = -sum(e for e, _ in exps_signs if e < 0)
    work = order + pad
    if work < 0:
        return zero(order)  # the product starts at q^{-pad}, above the order
    acc = one(work)
    for e, sign in sorted(exps_signs):
        if e == 0:
            if sign == 1:
                return zero(order)
            acc = acc * 2
        elif e <= work:
            acc = acc * LaurentSeries({0: 1, e: -sign}, work)
    assert acc.trunc >= order
    return acc.truncated(order)


def ref_poch_finite(f, n, order):
    if order < 0:
        return zero(order)
    return schoolbook_binomials(
        [(f.base_exp + t * f.step, f.sign) for t in range(n)], order)


def ref_inv_poch_finite(f, n, order):
    if order < 0:
        return zero(order)
    return ref_poch_finite(f, n, order).invert().truncated(order)


def ref_poch_inf(f, order):
    if order < 0:
        return zero(order)
    exps = []
    t = 0
    while f.base_exp + t * f.step <= order:
        exps.append((f.base_exp + t * f.step, f.sign))
        t += 1
    return schoolbook_binomials(exps, order)


def ref_inv_poch_inf(f, order):
    if order < 0:
        return zero(order)
    return ref_poch_inf(f, order).invert().truncated(order)


def ref_qtpi_product(u, v, order):
    """Q(q^u, q^v) as the product of its factors (1 - q^{a n + b}), n >= 1,
    over its five families (a, b): every factor of exponent <= 0, then the
    positive ones up to the order less the sum of those."""
    families = ((u, 0), (u, v), (u, -u - v), (2 * u, 2 * v - u), (2 * u, -2 * v - u))
    exps = []
    for a, b in families:
        n = 1
        while a * n + b <= 0:
            exps.append(a * n + b)
            n += 1
    top = order - sum(exps)
    for a, b in families:
        exps += [a * n + b for n in range(1, (top - b) // a + 1) if a * n + b > 0]
    return schoolbook_binomials([(e, 1) for e in exps], order)


def ref_compose(order, shift, parent_get, *units):
    """parent * units * q^shift to order, by series products.

    The parent is re-requested deeper when its valuation is negative, and
    every unit series is built to the depth that valuation needs."""
    p = parent_get(order - shift)
    v = min(0, p._effval())
    if v < 0:
        p = parent_get(order - shift - v)
        v = min(0, p._effval())
    need = order - shift - v
    if p.is_zero() or need < 0:
        return zero(order)
    for f, length, power in units:
        p = p * (ref_poch_finite if power == 1 else ref_inv_poch_finite)(
            f, length, need)
    return p.shift(shift).truncated(order)


def ref_beta_from_spec(spec, n, order):
    """beta_n of a registry spec as the product of its symbols' series,
    the denominators inverted, with (-1; q^d)_L written 2 (-q^d; q^d)_{L-1}."""
    shift = spec.mono_quad * n * n + spec.mono_lin * n
    work = order - shift
    if order < 0 or work < 0:
        return zero(order)
    acc = one(work)
    scalars = {1: 1, -1: 1}
    for factors, power in ((spec.numerator, 1), (spec.denominator, -1)):
        for f, kind in factors:
            length = {"n": n, "2n": 2 * n}[kind]
            if f.sign == -1 and f.base_exp == 0 and length:
                scalars[power] *= 2
                f, length = PochFactor(-1, f.step, f.step), length - 1
            build = ref_poch_finite if power == 1 else ref_inv_poch_finite
            acc = acc * build(f, length, work)
    assert scalars[1] % scalars[-1] == 0
    return (acc * (scalars[1] // scalars[-1])).shift(shift).truncated(order)
