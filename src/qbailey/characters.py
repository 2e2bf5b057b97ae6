"""Standard-module bookkeeping and principal characters.

A module label is a pair (s0, s1) of nonnegative integers; its level is
s0 + 2*s1 and its character is an infinite product that is periodic with
modulus 2*level + 6.  The character has a closed five-factor product form
and, equivalently, a quintuple-product form

    char(s0, s1) = Q(q^{level+3}, q^{-s1-1}) / (q; q)_inf,

which is the bridge between the lattice's alpha-side sums and the product
sides of the identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bailey import compose_exact
from .lattice import Schedule, SCHEDULE_TABLE, alpha_side, verify_limit_identity
from .laurent import LaurentSeries
from .qproducts import PochFactor, Q_FACTOR, inv_euler, poch_finite, poch_inf, qtpi_product

# (1 + q) = (-q; q)_1 as a unit triple for ``compose_exact``
_ONE_PLUS_Q = (PochFactor(-1, 1, 1), 1, 1)


@dataclass(frozen=True)
class ModuleLabel:
    s0: int
    s1: int

    def __post_init__(self):
        if self.s0 < 0 or self.s1 < 0:
            raise ValueError(f"labels need s0, s1 >= 0, got ({self.s0}, {self.s1})")
        if self.level < 1:
            raise ValueError("level must be at least 1")

    @property
    def level(self) -> int:
        return self.s0 + 2 * self.s1

    @property
    def modulus(self) -> int:
        return 2 * self.level + 6


def labels_at_level(level: int) -> list[ModuleLabel]:
    """All 1 + floor(level/2) labels of the given level."""
    if level < 1:
        raise ValueError("level must be at least 1")
    return [ModuleLabel(level - 2 * s1, s1) for s1 in range(level // 2 + 1)]


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
    """The principal character as its closed periodic product."""
    acc = inv_euler(order)
    for f in char_product_factors(m):
        acc = (acc * poch_inf(f, order)).truncated(order)
    return acc


def char_qtpi(m: ModuleLabel, order: int) -> LaurentSeries:
    """The principal character via the quintuple-product substitution."""
    q = qtpi_product(m.level + 3, -m.s1 - 1, order)
    return (q * inv_euler(order)).truncated(order)


def schedule_module(pair_id: int, kind: str, k: int, i: int) -> ModuleLabel:
    """The module a schedule cell produces, per the identity table."""
    s = Schedule(kind, k, i, pair_id)  # validates row and i-range
    row = SCHEDULE_TABLE[(pair_id, kind)]
    level = row.level(k)
    s1 = row.s1(k, i)
    return ModuleLabel(level - 2 * s1, s1)


def normalization_poly(s: Schedule, order: int) -> LaurentSeries:
    """The constant tying sum-side to character:

        sum_side = normalization * character,

    namely (q; q)_{c-1} for registry base q^c, times an extra (1 + q) for
    the second family at i = 0 (whose displayed alpha-form is (1 + q)
    times the unified one)."""
    poly = poch_finite(Q_FACTOR, s.base_exp - 1, order)
    if s.kind == "lim2" and s.i == 0:
        poly = compose_exact(order, 0, lambda o: poly, _ONE_PLUS_Q)
    return poly


def verify_character_identity(pair_id: int, kind: str, k: int, i: int,
                              order: int) -> bool:
    """The full chain for one schedule cell:

      1. the unified alpha-side equals Q(q^{level+3}, q^{-s1-1});
      2. sum_side * (q^c; q)_inf equals the case-form alpha-side;
      3. the case form is the unified form times its (1+q) factor when
         the second family is used at i = 0 (and equals it otherwise);

    together: sum_side = normalization * character.  The case form is a
    separate sum only for the second family at i <= 1; everywhere else it
    is the unified form, built once, and link 3 holds by construction."""
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
    if not split:
        return True
    if i == 0:
        expected = compose_exact(order, 0, lambda o: unified, _ONE_PLUS_Q)
    else:
        expected = unified
    return case.eq_to_order(expected, order)
