"""q-Pochhammer symbols, Euler products, and the quintuple product identity.

The symbol (sign*q^m; q^d)_n is represented by a ``PochFactor`` together with
a length.  Infinite products are truncated exactly: every factor that can
touch a coefficient at or below the requested order is included, with the
bookkeeping done through valuations so Laurent factors (negative exponents)
are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .laurent import InversionError, LaurentSeries, zero


class DivergentProductError(ValueError):
    """An infinite product whose factors do not tend to 1."""


@dataclass(frozen=True)
class PochFactor:
    """The base of a q-Pochhammer symbol: (sign * q^base_exp ; q^step)."""

    sign: int = 1
    base_exp: int = 1
    step: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.step < 1:
            raise ValueError(f"step must be positive, got {self.step}")

    def factor_exponent(self, t: int) -> int:
        return self.base_exp + t * self.step

    def infinite_ok(self) -> bool:
        # (q^0; q^d)_inf has the factor (1 - 1) = 0 and is identically zero;
        # (-q^0; q^d)_inf = 2(-q^d; q^d)_inf is a perfectly good series.
        return self.base_exp > 0 or (self.sign == -1 and self.base_exp >= 0)


# The q-Pochhammer (q; q) base, used pervasively.
Q_FACTOR = PochFactor(1, 1, 1)


def binomial_step(a: list[int], e: int, sign: int, power: int) -> None:
    """Multiply (power 1) or divide (power -1) the dense coefficient list
    ``a`` in place by the factor (1 - sign*q^e), for e >= 1.

    ``a[i]`` is the coefficient of q^{v+i} for some fixed v, and whatever
    lies past the end of the list is never read.  Every step is one pass:

      * times (1 - sign q^e):  a[i] -= sign a[i-e], one vector step on a[e:];
      * divided by (1 - q^e):  a[i] += a[i-e] for rising i, a prefix sum
        along each residue class mod e;
      * divided by (1 + q^e):  times (1 - q^e), then divided by (1 - q^{2e}).

    A factor whose exponent lies past the list is 1 there and changes
    nothing.
    """
    n = len(a)
    if e >= n:
        return
    if power == 1:
        a[e:] = map(sub if sign == 1 else add, a[e:], a[:-e])
        return
    if sign == -1:
        a[e:] = map(sub, a[e:], a[:-e])
        e *= 2
    for r in range(min(e, n - e)):
        a[r::e] = accumulate(a[r::e])


def _product_of_binomials(exps_signs: list[tuple[int, int]], order: int) -> LaurentSeries:
    """Exact product of factors (1 - sign*q^e), allowing negative e.

    A factor with e < 0 is rewritten as -sign q^e (1 - sign q^{-e}), and a
    constant factor (1 - sign q^0) is 0 or 2, so the product is a scalar
    times a power q^low times factors of positive exponent.  Those are
    applied by one ``binomial_step`` each to the dense list of exponents
    0..order - low, which the shift by q^low carries to exactly ``order``.
    """
    scale, low = 1, 0
    positive = []
    for e, sign in exps_signs:
        if e == 0:
            if sign == 1:
                return zero(order)
            scale *= 2
            continue
        if e < 0:
            scale *= -sign
            low += e
            e = -e
        positive.append((e, sign))
    work = order - low
    if work < 0:
        return zero(order)  # the product starts at q^low, above the order
    a = [scale] + [0] * work
    for e, sign in positive:
        binomial_step(a, e, sign, 1)
    return LaurentSeries({low + i: c for i, c in enumerate(a) if c}, order)


@lru_cache(maxsize=None)
def poch_finite(f: PochFactor, n: int, order: int) -> LaurentSeries:
    """(sign*q^m; q^d)_n = prod_{0<=t<n} (1 - sign*q^{m+t*d}), exact to order."""
    if n < 0:
        raise ValueError(f"Pochhammer length must be nonnegative, got {n}")
    if order < 0:
        return zero(order)
    exps = [(f.factor_exponent(t), f.sign) for t in range(n)]
    return _product_of_binomials(exps, order)


@lru_cache(maxsize=None)
def poch_inf(f: PochFactor, order: int) -> LaurentSeries:
    """(sign*q^m; q^d)_inf, exact to order."""
    if not f.infinite_ok():
        raise DivergentProductError(
            f"({f.sign:+d}*q^{f.base_exp}; q^{f.step})_inf does not converge "
            "as a formal series"
        )
    if order < 0:
        return zero(order)
    exps = []
    t = 0
    while f.factor_exponent(t) <= order:
        exps.append((f.factor_exponent(t), f.sign))
        t += 1
    return _product_of_binomials(exps, order)


@lru_cache(maxsize=None)
def inv_poch_finite(f: PochFactor, n: int, order: int) -> LaurentSeries:
    """1 / (sign*q^m; q^d)_n.  The product must be unit-leading."""
    if order < 0:
        return zero(order)
    return poch_finite(f, n, order).invert().truncated(order)


@lru_cache(maxsize=None)
def inv_poch_inf(f: PochFactor, order: int) -> LaurentSeries:
    """1 / (sign*q^m; q^d)_inf.  The product must be unit-leading."""
    if order < 0:
        return zero(order)
    return poch_inf(f, order).invert().truncated(order)


def apply_poch_units(a: list[int], units) -> None:
    """Multiply the dense coefficient list ``a`` in place by finite Pochhammers.

    ``a[i]`` is the coefficient of q^{v+i} for some fixed v; the list is
    the window of exponents still wanted, and whatever lies past its end is
    never read.  Each unit is a triple ``(f, length, power)``: power 1
    multiplies by (f; q^step)_length, power -1 divides by it.  Every factor
    (1 - s q^e) costs one ``binomial_step``, a single pass over the window,
    and the factors past the window, which are 1 there, are skipped.

    Only valuation-zero units keep the window's exponents, so a factor with
    a negative exponent is rejected, and dividing by the constant factor
    (1 - s q^0), which is 0 or 2, raises ``InversionError`` because the
    quotient has no integral expansion.  Multiplying by it scales by 0 or
    2.  The checks run before any coefficient is touched, whatever the
    window.
    """
    for f, length, power in units:
        if power not in (1, -1):
            raise ValueError(f"unit power must be +1 or -1, got {power}")
        if length < 0:
            raise ValueError(f"Pochhammer length must be nonnegative, got {length}")
        if length and f.base_exp < 0:
            raise ValueError(
                f"({f.sign:+d}*q^{f.base_exp}; q^{f.step})_{length} has a "
                "negative exponent and is not a valuation-zero unit")
        if length and f.base_exp == 0 and power == -1:
            raise InversionError(
                f"1/({f.sign:+d}*q^0; q^{f.step})_{length} is not unit-leading")
    n = len(a)
    for f, length, power in units:
        s = f.sign
        for t in range(length):
            e = f.base_exp + t * f.step
            if e >= n:
                break  # this factor and the later, larger ones are 1 here
            if e == 0:
                a[:] = [0] * n if s == 1 else [2 * c for c in a]
            else:
                binomial_step(a, e, s, power)


# -- partitions and Euler's product -----------------------------------------

@lru_cache(maxsize=None)
def partition_numbers(n_max: int) -> tuple[int, ...]:
    """p(0), ..., p(n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return tuple(p)


def euler_inf(order: int) -> LaurentSeries:
    """(q; q)_inf."""
    return poch_inf(Q_FACTOR, order)


@lru_cache(maxsize=None)
def inv_euler(order: int) -> LaurentSeries:
    """1/(q;q)_inf, i.e. the partition generating function.

    Fast path via the pentagonal recurrence; generic inversion of the Euler
    product is kept as the oracle in the test suite.
    """
    if order < 0:
        return zero(order)
    p = partition_numbers(order)
    return LaurentSeries({n: p[n] for n in range(order + 1)}, order)


# -- quintuple product -------------------------------------------------------

def _qtpi_factor_exponents(u: int, v: int, order: int) -> list[tuple[int, int]] | None:
    """Exponents (with signs) of all quintuple-product factors that can
    affect coefficients <= order, for s = q^u, t = q^v.  Returns None when
    some factor is exactly (1 - q^0) = 0, i.e. the product vanishes.
    """
    families = (
        lambda n: u * n,                  # (1 - s^n)
        lambda n: u * n + v,              # (1 - s^n t)
        lambda n: u * (n - 1) - v,        # (1 - s^(n-1) / t)
        lambda n: u * (2 * n - 1) + 2 * v,  # (1 - s^(2n-1) t^2)
        lambda n: u * (2 * n - 1) - 2 * v,  # (1 - s^(2n-1) / t^2)
    )
    neg = 0
    for fam in families:
        n = 1
        while True:
            e = fam(n)
            if e > 0:
                break
            if e == 0:
                return None
            neg += e
            n += 1
    bound = order - neg
    exps = []
    for fam in families:
        n = 1
        while True:
            e = fam(n)
            if e > bound:
                break
            exps.append((e, 1))
            n += 1
    return exps


def qtpi_product(u: int, v: int, order: int) -> LaurentSeries:
    """The quintuple product Q(q^u, q^v) in infinite-product form."""
    if u < 1:
        raise ValueError(f"the first argument must satisfy u >= 1, got {u}")
    exps = _qtpi_factor_exponents(u, v, order)
    if exps is None:
        return zero(order)
    return _product_of_binomials(exps, order)


def _sum_family(terms: dict[int, int], exponent, sign: int, order: int,
                start: int = 0) -> None:
    """Accumulate sign * q^{exponent(n)} for n >= start until the exponent
    stays above the order for three consecutive n (the quadratic growth of
    every family makes this a sound stopping rule)."""
    n = start
    dead = 0
    while dead < 3:
        e = exponent(n)
        if e > order:
            dead += 1
        else:
            dead = 0
            terms[e] = terms.get(e, 0) + sign
        n += 1


def qtpi_sum(u: int, v: int, form: str, order: int) -> LaurentSeries:
    """Q(q^u, q^v) via one of the three series rearrangements I, II, III."""
    if u < 1:
        raise ValueError(f"the first argument must satisfy u >= 1, got {u}")
    terms: dict[int, int] = {}
    if form == "I":
        # bilateral: sum over all integers n of s^{(3n^2+n)/2} (t^{3n} - t^{-3n-1})
        def run(ns):
            dead = 0
            for n in ns:
                e1 = u * (3 * n * n + n) // 2 + 3 * n * v
                e2 = u * (3 * n * n + n) // 2 - (3 * n + 1) * v
                if e1 > order and e2 > order:
                    dead += 1
                    if dead >= 3:
                        return
                else:
                    dead = 0
                if e1 <= order:
                    terms[e1] = terms.get(e1, 0) + 1
                if e2 <= order:
                    terms[e2] = terms.get(e2, 0) - 1

        def forward():
            n = 0
            while True:
                yield n
                n += 1

        def backward():
            n = -1
            while True:
                yield n
                n -= 1

        run(forward())
        run(backward())
    elif form == "II":
        _sum_family(terms, lambda n: u * (3 * n * n + n) // 2 + 3 * n * v, 1, order)
        _sum_family(terms, lambda n: u * (3 * n * n - n) // 2 - 3 * n * v, 1, order, start=1)
        _sum_family(terms, lambda n: u * (3 * n * n + n) // 2 - (3 * n + 1) * v, -1, order)
        _sum_family(terms, lambda n: u * (3 * n * n - n) // 2 + (3 * n - 1) * v, -1, order, start=1)
    elif form == "III":
        _sum_family(terms, lambda n: u * (3 * n * n - n) // 2 - 3 * n * v, 1, order)
        _sum_family(terms, lambda n: u * (3 * n * n + 7 * n + 4) // 2 + (3 * n + 3) * v, 1, order)
        _sum_family(terms, lambda n: u * (3 * n * n + n) // 2 - (3 * n + 1) * v, -1, order)
        _sum_family(terms, lambda n: u * (3 * n * n + 5 * n + 2) // 2 + (3 * n + 2) * v, -1, order)
    else:
        raise ValueError(f"form must be 'I', 'II' or 'III', got {form!r}")
    return LaurentSeries({e: c for e, c in terms.items() if c != 0}, order)
