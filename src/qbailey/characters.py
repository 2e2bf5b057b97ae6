"""Standard-module bookkeeping and principal characters.

A module label is a pair (s0, s1) of nonnegative integers; its level is
s0 + 2*s1 and its character is an infinite product that is periodic with
modulus 2*level + 6.  The character has a closed five-factor product form
and, equivalently, a quintuple-product form

    char(s0, s1) = Q(q^{level+3}, q^{-s1-1}) / (q; q)_inf,

which is the bridge between the lattice's alpha-side sums and the product
sides of the identities.  Both forms end in one ``qproducts.divide_euler``
on a window, so neither multiplies two series here.
"""

from __future__ import annotations

from collections import namedtuple

from .bailey import compose_exact
from .lattice import Schedule, alpha_side, verify_limit_identity
from .laurent import LaurentSeries
from .qproducts import (PochFactor, Q_FACTOR, _inf_unit, apply_poch_units, divide_euler,
                         poch_finite, qtpi_product)

# (1 + q) = (-q; q)_1 as a unit triple for ``compose_exact``
_ONE_PLUS_Q = (PochFactor(-1, 1, 1), 1, 1)


class ModuleLabel(namedtuple("ModuleLabel", "s0 s1")):
    """The label (s0, s1) of a standard module: two ints, both >= 0, of
    level s0 + 2 s1 >= 1."""

    __slots__ = ()

    def __new__(cls, s0: int, s1: int):
        if s0 < 0 or s1 < 0:
            raise ValueError(f"labels need s0, s1 >= 0, got ({s0}, {s1})")
        if s0 + 2 * s1 < 1:
            raise ValueError("level must be at least 1")
        return tuple.__new__(cls, (s0, s1))

    @classmethod
    def _make(cls, fields) -> ModuleLabel:
        # ``_replace`` builds through ``_make``: validate it too
        return cls(*fields)

    @property
    def level(self) -> int:
        return self.s0 + 2 * self.s1

    @property
    def modulus(self) -> int:
        return 2 * self.level + 6


def char_product_factors(m: ModuleLabel) -> list[PochFactor]:
    """The five infinite Pochhammer factors multiplying 1/(q)_inf."""
    p = m.level + 3
    return [
        PochFactor(1, m.s1 + 1, p),
        PochFactor(1, m.s0 + m.s1 + 2, p),
        PochFactor(1, p, p),
        PochFactor(1, m.s0 + 1, 2 * p),
        PochFactor(1, m.s0 + 4 * m.s1 + 5, 2 * p),
    ]


def char_product(m: ModuleLabel, order: int) -> LaurentSeries:
    """The principal character as its closed periodic product: the five
    factors applied to the window of 1 (``apply_poch_units``), then
    ``divide_euler``.  A negative order has the empty window."""
    a = [1] + [0] * order if order >= 0 else []
    apply_poch_units(a, [_inf_unit(f, order) for f in char_product_factors(m)])
    return LaurentSeries.from_window(0, divide_euler(a), order)


def char_qtpi(m: ModuleLabel, order: int) -> LaurentSeries:
    """The principal character via the quintuple-product substitution:
    ``divide_euler`` on the window of Q(q^{level+3}, q^{-s1-1})."""
    lo, a = qtpi_product(m.level + 3, -m.s1 - 1, order).window(order)
    return LaurentSeries.from_window(lo, divide_euler(a), order)


def schedule_module(pair_id: int, kind: str, k: int, i: int) -> ModuleLabel:
    """The module a schedule cell produces, per the identity table."""
    row = Schedule(kind, k, i, pair_id).row  # validates row and i-range
    s1 = row.s1(k, i)
    return ModuleLabel(row.level(k) - 2 * s1, s1)


def normalization_poly(s: Schedule, order: int) -> LaurentSeries:
    """The constant tying sum-side to character:

        sum_side = normalization * character,

    namely (q; q)_{c-1} for registry base q^c, times an extra (1 + q) for
    the second family at i = 0 (whose displayed alpha-form is (1 + q)
    times the unified one)."""
    return _case_factor(s, poch_finite(Q_FACTOR, s.base_exp - 1, order), order)


def _case_factor(s: Schedule, x: LaurentSeries, order: int) -> LaurentSeries:
    """x times the (1 + q) of the second family's i = 0 display, to order;
    x itself for every other cell."""
    if s.kind == "lim2" and s.i == 0:
        return compose_exact(order, 0, lambda o: x, _ONE_PLUS_Q)
    return x


def verify_character_identity(pair_id: int, kind: str, k: int, i: int,
                              order: int) -> bool:
    """The full chain for one schedule cell:

      1. the unified alpha-side equals Q(q^{level+3}, q^{-s1-1});
      2. sum_side * (q^c; q)_inf equals the case-form alpha-side;
      3. the case form is the unified form times its (1+q) factor when
         the second family is used at i = 0 (and equals it otherwise);

    together: sum_side = normalization * character.  Link 3 is the one
    check of the second family's i <= 1 displays against the unified form.
    At i = 1 it compares two groupings of the same terms (the case row is the
    unified one a block late), so only a wrong row can fail it there.
    Everywhere else the case form is the unified one, built once.  Link 2
    makes no series product, link 1 one per module (two theta series); link
    2 reads the fold collapsed by lemmas f2b1 and b1bc1, the record the raw one."""
    m = schedule_module(pair_id, kind, k, i)
    s = Schedule(kind, k, i, pair_id)

    unified = alpha_side(s, order, unified=True)
    target = qtpi_product(m.level + 3, -m.s1 - 1, order)
    if not unified.eq_to_order(target, order):
        return False

    split = kind == "lim2" and i <= 1
    case = alpha_side(s, order) if split else unified
    if not verify_limit_identity(s, order, case):
        return False
    return not split or case.eq_to_order(_case_factor(s, unified, order), order)
