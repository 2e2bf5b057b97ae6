"""q-Pochhammer symbols, Euler products, and the quintuple product identity.

The symbol (sign*q^m; q^d)_n is represented by a ``PochFactor`` together with
a length, and one function walks the factors of a symbol:
``apply_poch_units`` multiplies or divides a dense window by unit triples
(f, length, power), one ``binomial_step`` per factor, skipping the factors
past the window.  Beside it sit the Horner kernels of ``lattice``'s DP and
``bailey``'s moves: ``_link_sum``, which both use, and ``_unit_horner``.  An
infinite product is the unit of its factors at or below the order, one
term of ``term_sum``.  Theta series of O(sqrt(order)) terms
(``theta_window``) give ``divide_euler``, ``apply_inf_ratio`` and
``qtpi_product``, the only product with Laurent factors.

Every finite signed sum goes through one accumulator, ``term_sum``.  A
term is (sign, q-shift, parent, unit triples): the parent is a series
requested once at the order minus the shift, or None for 1, and the units
are finite Pochhammer symbols that ``apply_poch_units`` applies in one
pass per factor on the parent's window.  Every series that is summed term
by term "until it vanishes" (the alpha sides, reindexed single sums and
multisum j_1-blocks of ``lattice``, the two series forms of the quintuple
product) ends by one rule, ``vanishing_terms``, which holds each block to
``laurent``'s runaway floor; ``vanishing_sum`` hands its terms to
``term_sum``, and a multisum's proved j_1 grid is summed to its end
before the rule can end it.

Chains.  A product of symbols whose lengths grow with an index n, such as
a registry beta's (-q^b; q)_n / (q^c; q)_{2n}, gains only a few factors
from n - 1 to n.  ``chain_step`` applies just those to the previous
index's window, so walking a chain costs a few passes per index instead
of O(n).  ``running_chain`` keeps the windows of one chain, a registry
pair's betas for the pair's life (``bailey.beta_chain``).  A ratio whose
two lengths are equal needs no chain: (a; q)_{m+n} = (a; q)_m (a q^m; q)_n
gives (-q; q)_r / (-q^d; q)_r = (-q; q)_{d-1} / (-q^{r+1}; q)_{d-1}, the
2(d - 1) factors of an alpha side's term however large r is.

Inverses.  1/(f; q^d)_n and 1/(f; q^d)_inf divide the factors out one
pass each, so no series is inverted.  Every division by (q; q)_inf (the
partition numbers, both characters, and the multisum limit's
1/(-q^b; q)_inf = [(q; q)_inf / (-q^b; q)_inf] / (q; q)_inf) is one
``divide_euler``, Euler's pentagonal recurrence on a window.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .laurent import InversionError, LaurentSeries, add_window, check_floor, zero


class DivergentProductError(ValueError):
    """An infinite product whose factors do not tend to 1."""


class PochFactor(namedtuple("PochFactor", "sign base_exp step")):
    """The base of a q-Pochhammer symbol: (sign * q^base_exp ; q^step),
    with int fields sign (+1 or -1), base_exp and step (at least 1)."""

    __slots__ = ()

    def __new__(cls, sign: int = 1, base_exp: int = 1, step: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if step < 1:
            raise ValueError(f"step must be positive, got {step}")
        return tuple.__new__(cls, (sign, base_exp, step))

    @classmethod
    def _make(cls, fields) -> PochFactor:
        # ``_replace`` builds through ``_make``: validate it too
        return cls(*fields)

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
        along each residue class mod e (block by block once e^2 >= len(a));
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
    if e * e >= n:
        for j in range(e, n, e):
            a[j:j + e] = map(add, a[j:j + e], a[j - e:j])
        return
    for r in range(min(e, n - e)):
        a[r::e] = accumulate(a[r::e])


# (f, length, power): the finite symbol (f; q^step)_length to the power +-1
Unit = tuple[PochFactor, int, int]

# One term of a finite signed sum: (sign, shift, parent, units) stands for
# sign * q^shift * parent * the product of the units, where the parent is a
# callable of the order or None for 1.
SumTerm = tuple[int, int, Callable[[int], LaurentSeries] | None, tuple[Unit, ...]]


@lru_cache(maxsize=None)
def poch_finite(f: PochFactor, n: int, order: int) -> LaurentSeries:
    """(sign*q^m; q^d)_n = prod_{0<=t<n} (1 - sign*q^{m+t*d}), exact to
    order: one unit of ``term_sum``, so m must be >= 0."""
    return term_sum([(1, 0, None, ((f, n, 1),))], order)


def _check_infinite(f: PochFactor) -> None:
    if not f.infinite_ok():
        raise DivergentProductError(
            f"({f.sign:+d}*q^{f.base_exp}; q^{f.step})_inf does not converge "
            "as a formal series"
        )


def _inf_unit(f: PochFactor, top: int, power: int = 1) -> Unit:
    """(f; q^step)_inf^power as a unit: its factors at or below q^top."""
    return (f, max((top - f.base_exp) // f.step + 1, 0), power)


@lru_cache(maxsize=None)
def poch_inf(f: PochFactor, order: int) -> LaurentSeries:
    """(sign*q^m; q^d)_inf, exact to order."""
    _check_infinite(f)
    return term_sum([(1, 0, None, (_inf_unit(f, order),))], order)


@lru_cache(maxsize=None)
def inv_poch_finite(f: PochFactor, n: int, order: int) -> LaurentSeries:
    """1 / (sign*q^m; q^d)_n, exact to order: one division step per factor
    (``apply_poch_units``), so the symbol must have m >= 1."""
    return term_sum([(1, 0, None, ((f, n, -1),))], order)


@lru_cache(maxsize=None)
def inv_poch_inf(f: PochFactor, order: int) -> LaurentSeries:
    """1 / (sign*q^m; q^d)_inf, exact to order: one division unit
    (``apply_poch_units``), so m must be >= 1 once the order reaches 0."""
    _check_infinite(f)
    return term_sum([(1, 0, None, (_inf_unit(f, order, -1),))], order)


def neg_ratio(up: int, down: int, j: int, n: int) -> tuple[Unit, Unit]:
    """(-q^up; q)_j / (-q^down; q)_n as unit triples."""
    return ((PochFactor(-1, up, 1), j, 1), (PochFactor(-1, down, 1), n, -1))


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


# A chain of symbols (f; q^step)_{mult t}^power over t = 0, 1, ...: triples
# (f, mult, power), the length of each symbol a multiple of the index t.
Chain = tuple[tuple[PochFactor, int, int], ...]


def chain_step(a: list[int], chain: Chain, t: int) -> None:
    """Step the dense window ``a`` of a chain's product from index t - 1
    to t in place: each symbol (f, mult, power) gains its factors
    mult (t - 1) .. mult t - 1, one ``binomial_step`` each.  Their
    exponents must be positive, as they are from t = 2 on."""
    n = len(a)
    for f, mult, power in chain:
        for j in range(mult * (t - 1), mult * t):
            e = f.base_exp + j * f.step
            if e >= n:
                break
            binomial_step(a, e, f.sign, power)


def running_chain(chain: Chain, start: Callable[[int, int], list[int]]
                  ) -> Callable[[int, int], list[int]]:
    """``window(t, top)``: the chain's product at index t as a dense window
    from q^0 to at least q^top.  It is stepped (``chain_step``, a few
    passes per index) from the nearest lower index whose window reaches
    top, and every window it passes is kept, cut at that top.  Indices 0
    and 1, and a chain with no window deep enough, begin at
    ``start(t, top)``, the product built from scratch, so a step never
    meets a factor (1 - s q^0).  A window is never changed once handed
    out."""
    kept: dict[int, list[int]] = {}

    def window(t: int, top: int) -> list[int]:
        if top < 0:
            return []
        a = kept.get(t)
        if a is not None and len(a) > top:
            return a
        m = t - 1
        while m >= 1 and len(kept.get(m, ())) <= top:
            m -= 1
        if m < 1:
            m = min(t, 1)
            kept[m] = start(m, top)
        a = kept[m]
        for j in range(m + 1, t + 1):
            a = kept[j] = a[:top + 1]
            chain_step(a, chain, j)
        return a

    return window


STEP = "step"  # lattice.Level.link of a j_1 whose j_2 lemma b1bc1 summed out


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _link_sum(carries: list[tuple[int, int, list[int]]], v: int, top: int,
              link: bool | str) -> tuple[int, list[int]]:
    """sum over carries (w, lo, g) of g times the ``link`` kernel at v - w
    (``lattice.Level``), as a window up to ``top``.  A carry is a window:
    g[i] is the coefficient of q^{lo+i}, known up to q^{lo+len(g)-1}, and
    is only read.  The carries come in strictly ascending w <= v.  The step
    kernel adds the carries at w = v - 1 and w = v as they are.

    Since q^{binom(d, 2)} / (q)_d = prod_{m=1..d} q^{m-1} / (1 - q^m), the
    sum is the Horner chain

        g_v + q^0/(1 - q) (g_{v-1} + q^1/(1 - q^2) (g_{v-2} + ...)),

    run on one dense window that ends at ``top``: going from w - 1 to w
    shifts by v - w (on a linked level only), divides by (1 - q^{v-w+1})
    and adds g_w by ``add_window``, and after the last carry the
    steps go on up to v.  A shift moves the window's start up and drops as
    many coefficients past ``top``; a carry that starts below the window
    extends it downward.  Every step is one pass over the window
    (``binomial_step``).  A carry must itself reach ``top`` once
    shifted by its binom(v-w, 2); one that does not would make the sum
    claim coefficients it does not know.  A dead carry, one that its shift
    puts wholly above ``top``, is still checked, but neither added nor
    allowed to start the chain: the window opens at the first live carry
    as a copy of it, cut at ``top`` or padded with zeros up to it.  When
    that carry is at w = v, no step or add follows, and the copy is the sum.
    """
    horner = link is not STEP
    if not horner:
        carries = [c for c in carries[-2:] if c[0] >= v - 1]
    live = []
    for w, glo, g in carries:
        s = (v - w) * (v - w - 1) // 2 if link else 0  # 0 at the step's v - w <= 1
        if glo + len(g) - 1 + s < top:
            raise AssertionError(
                f"carry at j={w} is exact to {glo + len(g) - 1 + s} after its "
                f"shift, short of {top}")
        if glo + s <= top:  # a dead carry's every term lands above top
            live.append((w, glo, g))
    if not live:
        return top + 1, []
    live.reverse()  # popped from the end, w ascending
    u, lo, g = live.pop()
    a = g[:top + 1 - lo]  # a copy, never the carry itself
    a += [0] * (top + 1 - lo - len(a))
    if u == v:  # the copy path: nothing is stepped or added after g_v
        return lo, a
    # the steps u + 1 .. v, d = v - u falling, each carry added after its
    # own; the step kernel's u is v - 1, and it adds g_v as it is
    for d in range(v - u - 1, -1, -1):
        if link and d:
            del a[-d:]
            lo = top + 1 - len(a)
        if horner and d + 1 < len(a):  # a longer factor is 1 on the window
            binomial_step(a, d + 1, 1, -1)
        if live and live[-1][0] + d == v:
            _, glo, g = live.pop()
            lo = add_window(a, lo, glo, g)
    return lo, a


def _units(row, v: int, length: int) -> list[Unit]:
    """The units of ``row`` (a ``lattice.Level``) from index v on:
    (-q^{b+v}; q)_length^{+-1}."""
    return [(PochFactor(-1, b + v, 1), length, power)
            for bases, power in ((row.numer, 1), (row.denom, -1)) for b in bases]


def _unit_horner(blocks: list[tuple[int, int, list[int]]], row,
                 top: int) -> tuple[int, list[int]]:
    """sum over the blocks (v, lo, g), v ascending and each exact to
    ``top``, of g times the ``row``'s units (-q^b; q)_v^{+-1}: one Horner
    chain g_0 + f_0 (g_1 + f_1 (...)), f_v = prod_b (1 + q^{b+v})^{+-1},
    from the last block down, a pass per base and index, not v per block.
    The blocks are only read: the window opens as a copy of the last one
    that starts at or below ``top``."""
    lo, a, u = top + 1, [], 0
    for w, glo, g in reversed(blocks):
        if glo + len(g) <= top:
            raise AssertionError(f"block at j_1={w} is exact to "
                                 f"{glo + len(g) - 1}, short of {top}")
        if a:
            apply_poch_units(a, _units(row, w, u - w))  # f_w ... f_{u-1}
            lo = add_window(a, lo, glo, g)
        elif glo <= top:  # cut at top: every block reaches it
            lo, a = glo, g[:top + 1 - glo]
        u = w
    apply_poch_units(a, _units(row, 0, u))  # f_0 ... f_{u-1}
    return lo, a


# -- partitions and Euler's product -----------------------------------------

def divide_euler(a: list[int]) -> list[int]:
    """Divide the window ``a`` in place by (q; q)_inf and return it, by
    Euler's pentagonal-number recurrence out[n] = a[n] - sum_{i >= 1} e_i
    out[n - i], e_i the coefficients of (q; q)_inf (``theta_window``):
    O(sqrt(n)) terms per coefficient.  (q; q)_inf has valuation 0 and
    constant term 1, so the window may start anywhere."""
    terms = [(i, c) for i, c in enumerate(theta_window(3, -1, len(a) - 1)[1]) if c][1:]
    for n in range(1, len(a)):
        s = a[n]
        for i, c in terms:
            if i > n:
                break
            s -= c * a[n - i]
        a[n] = s
    return a


def partition_numbers(n_max: int) -> tuple[int, ...]:
    """p(0), ..., p(n_max): 1/(q; q)_inf by ``divide_euler``."""
    return tuple(divide_euler([1] + [0] * n_max))


@lru_cache(maxsize=None)
def inv_euler(order: int) -> LaurentSeries:
    """1/(q;q)_inf, the partition generating function, by ``partition_numbers``."""
    if order < 0:
        return zero(order)
    return LaurentSeries.from_window(0, partition_numbers(order), order)


# -- theta series and the quintuple product ---------------------------------

def theta_window(a: int, b: int, top: int) -> tuple[int, list[int]]:
    """sum_{n in Z} (-1)^n q^{(a n^2 + b n)/2}, a >= 1 and a + b even, as a
    window from its least exponent (at n0 or n0 + 1) up to ``top``, or
    ``(top + 1, [])``: O(sqrt(top)) terms; n and -b/a - n share one."""
    n0 = -b // (2 * a)
    lo = min(a * n0 * n0 + b * n0, a * (n0 + 1) ** 2 + b * (n0 + 1), 2 * top + 2) // 2
    w = [0] * (top - lo + 1)
    for n, step in ((n0, -1), (n0 + 1, 1)):
        while (e := (a * n * n + b * n) // 2) <= top:
            w[e - lo] += -1 if n % 2 else 1
            n += step
    return lo, w


def apply_inf_ratio(a: list[int], c: int, b: int | None = None) -> None:
    """Multiply the window ``a`` in place by (q^c; q)_inf, or, given b, by
    (q^c; q)_inf / (-q^b; q)_inf (c, b >= 1): Euler's (q; q)_inf, or Gauss's
    (q; q)_inf / (-q; q)_inf = sum_n (-1)^n q^{n^2} times (-q; q)_{b-1}, over
    (q; q)_{c-1}; a shifted add per theta term, a step per factor."""
    apply_poch_units(a, ((Q_FACTOR, c - 1, -1),
                         (PochFactor(-1, 1, 1), 0 if b is None else b - 1, 1)))
    _, w = theta_window(*((3, -1) if b is None else (2, 0)), len(a) - 1)
    orig = a[:]
    for i, t in enumerate(w[1:], 1):
        for _ in range(abs(t)):  # Gauss's terms are +-2
            a[i:] = map(add if t > 0 else sub, a[i:], orig)


@lru_cache(maxsize=None)
def qtpi_product(u: int, v: int, order: int) -> LaurentSeries:
    """The quintuple product Q(q^u, q^v), built once per argument triple
    (every cell of a module shares it) as J(s, 1/t) J(s^2, s t^2) /
    (s^2; s^2)_inf, s = q^u, t = q^v, with Jacobi's J(p, x) = sum_n (-1)^n
    p^{binom(n, 2)} x^n = (x; p)_inf (p/x; p)_inf (p; p)_inf: one product
    of two theta series of O(sqrt(order)) terms each, then one division
    step per factor.  A factor (1 - q^0) makes one J, and Q, zero."""
    if u < 1:
        raise ValueError(f"the first argument must satisfy u >= 1, got {u}")
    thetas = ((u, -u - 2 * v), (2 * u, 4 * v))
    (lo1, _), (lo2, _) = (theta_window(*ab, 0) for ab in thetas)
    j1, j2 = (LaurentSeries.from_window(*theta_window(*ab, order - lo), order - lo)
              for ab, lo in zip(thetas, (lo2, lo1)))
    if j1.is_zero() or j2.is_zero():
        return zero(order)
    lo, a = (j1 * j2).window(order)
    apply_poch_units(a, (_inf_unit(PochFactor(1, 2 * u, 2 * u), len(a) - 1, -1),))
    return LaurentSeries.from_window(lo, a, order)


def term_sum(terms: Iterable[SumTerm], order: int) -> LaurentSeries:
    """The sum of the terms ``(sign, shift, parent, units)``, exact to
    ``order``, added into one window that ends at the order (``add_window``;
    a monomial adds the window ``[sign]``).  A parent is requested once, at
    ``order - shift``, and its window up to there (or the window of 1) is
    multiplied by the units in place (``apply_poch_units``), so no
    coefficient above that is ever needed, however negative its valuation."""
    lo, total = order + 1, []
    for sign, shift, parent, units in terms:
        top = order - shift
        if parent is None:
            if not units:  # a monomial
                lo = add_window(total, lo, shift, [sign])
                continue
            alo, a = (0, [1] + [0] * top) if top >= 0 else (top + 1, [])
        else:
            p = parent(top)
            if p.trunc < top:
                raise AssertionError("truncation underflow in move composition")
            alo, a = p.window(top)
        apply_poch_units(a, units)
        if sign != 1:
            a = [sign * c for c in a]
        lo = add_window(total, lo, alo + shift, a)
    return LaurentSeries.from_window(lo, total, order)


def vanishing_terms(block: Callable[[int], list[SumTerm]],
                    order: int) -> Iterator[SumTerm]:
    """The terms of ``block(t)``, t = 0, 1, ..., until they vanish to
    ``order``.  Block terms have parent None, or a series from q^0, and
    units of valuation zero, so a term's lowest exponent is at least its
    shift.  The terms stop after three consecutive blocks that have terms
    but none at or below the order; a block with no terms (alpha~_t = 0 on
    one residue class, a zero j_1-block on a proved grid or an infeasible
    one below a feasible one) does not count toward the three.  A shift
    below ``laurent``'s runaway floor raises ``RunawayValuationError``.
    """
    t = dead = 0
    while dead < 3:
        block_terms = block(t)
        if block_terms:
            low = min(shift for _, shift, _, _ in block_terms)
            check_floor(low, order)
            dead = 0 if low <= order else dead + 1
            yield from block_terms
        t += 1


def vanishing_sum(block: Callable[[int], list[SumTerm]], order: int) -> LaurentSeries:
    """The ``vanishing_terms`` of ``block`` added by ``term_sum``, exact to ``order``."""
    return term_sum(vanishing_terms(block, order), order)


# The two series forms of Q(q^u, q^v), each as four families
# sign * q^{u (a n^2 + b n + c)/2 + (d n + e) v} over n >= 0: rows
# (sign, a, b, c, d, e).  Form I is the bilateral sum
# sum_n s^{(3n^2+n)/2} (t^{3n} - t^{-3n-1}) with n < 0 read as -1 - n.
_QTPI_FORMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "I": ((1, 3, 1, 0, 3, 0), (-1, 3, 1, 0, -3, -1),
          (1, 3, 5, 2, -3, -3), (-1, 3, 5, 2, 3, 2)),
    "III": ((1, 3, -1, 0, -3, 0), (1, 3, 7, 4, 3, 3),
            (-1, 3, 1, 0, -3, -1), (-1, 3, 5, 2, 3, 2)),
}


def qtpi_sum(u: int, v: int, form: str, order: int) -> LaurentSeries:
    """Q(q^u, q^v) via one of the two series rearrangements I and III."""
    if u < 1:
        raise ValueError(f"the first argument must satisfy u >= 1, got {u}")
    if form not in _QTPI_FORMS:
        raise ValueError(f"form must be 'I' or 'III', got {form!r}")

    def block(n: int) -> list[SumTerm]:
        return [(sign, u * (a * n * n + b * n + c) // 2 + (d * n + e) * v, None, ())
                for sign, a, b, c, d, e in _QTPI_FORMS[form]]

    return vanishing_sum(block, order)
