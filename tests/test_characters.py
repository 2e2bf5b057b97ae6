"""Module labels, principal characters, and the full verification chain."""

import pytest

from qbailey.characters import (
    ModuleLabel,
    char_product,
    char_product_factors,
    char_qtpi,
    labels_at_level,
    normalization_poly,
    schedule_module,
    verify_character_identity,
)
from qbailey.lattice import Schedule, SCHEDULE_TABLE, alpha_side, sum_side
from qbailey.laurent import LaurentSeries, one
from qbailey.qproducts import (
    PochFactor,
    inv_euler,
    poch_inf,
    qtpi_product,
)
from qbailey.records import build_record


def test_module_label_derived_fields():
    m = ModuleLabel(1, 1)
    assert m.level == 3 and m.modulus == 12
    m = ModuleLabel(0, 1)
    assert m.level == 2 and m.modulus == 10
    with pytest.raises(ValueError):
        ModuleLabel(-1, 1)
    with pytest.raises(ValueError):
        ModuleLabel(0, 0)


def test_label_count_per_level():
    for level in range(1, 21):
        labels = labels_at_level(level)
        assert len(labels) == 1 + level // 2
        assert len(set(labels)) == len(labels)
        assert all(m.level == level for m in labels)


def test_char_product_level2():
    # (q^2,q^3,q^5; q^5)(q,q^9; q^10) / (q)_inf
    got = char_product(ModuleLabel(0, 1), 40)
    ref = inv_euler(40)
    for f in (PochFactor(1, 2, 5), PochFactor(1, 3, 5), PochFactor(1, 5, 5),
              PochFactor(1, 1, 10), PochFactor(1, 9, 10)):
        ref = (ref * poch_inf(f, 40)).truncated(40)
    assert got == ref


def test_char_product_capparelli():
    # (q^2,q^4,q^6; q^6)(q^2,q^10; q^12) / (q)_inf
    fs = char_product_factors(ModuleLabel(1, 1))
    assert {(f.base_exp, f.step) for f in fs} == {
        (2, 6), (4, 6), (6, 6), (2, 12), (10, 12)}


def brute_force_product(factors, order):
    acc = inv_euler(order)
    for f in factors:
        e = f.base_exp
        while e <= order:
            acc = (acc * LaurentSeries({0: 1, e: -1}, order)).truncated(order)
            e += f.step
    return acc


def test_char_product_brute_force_oracle():
    m = ModuleLabel(3, 0)
    assert char_product(m, 30) == brute_force_product(char_product_factors(m), 30)


def test_char_qtpi_substitution():
    # (s0, s1) = (0, 1): Q(q^5, q^-2) / (q)_inf
    m = ModuleLabel(0, 1)
    direct = (qtpi_product(5, -2, 60) * inv_euler(60)).truncated(60)
    assert char_qtpi(m, 60) == direct


@pytest.mark.parametrize("level", range(1, 13))
def test_char_forms_agree(level):
    for m in labels_at_level(level):
        assert char_product(m, 60).eq_to_order(char_qtpi(m, 60), 60)


@pytest.mark.parametrize("level", range(1, 13))
def test_characters_have_nonnegative_coefficients(level):
    for m in labels_at_level(level):
        series = char_product(m, 100)
        assert all(c >= 0 for c in series.terms.values()), m


def test_schedule_module_examples():
    m = schedule_module(1, "lim1", 1, 0)
    assert (m.level, m.s1, m.modulus) == (7, 0, 20)
    m = schedule_module(3, "lim3", 1, 1)
    assert (m.level, m.s1, m.modulus) == (2, 1, 10)
    m = schedule_module(5, "lim1", 1, 3)
    assert (m.level, m.s1, m.modulus) == (6, 3, 18)
    with pytest.raises(ValueError):
        schedule_module(1, "lim2", 1, 0)
    with pytest.raises(ValueError):
        schedule_module(1, "lim1", 1, 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_table2_rows_enumerate_modules_once(k):
    # each row's i-range has one entry per module of its level, and the
    # induced labels cover that level exactly once
    for (pid, kind), row in SCHEDULE_TABLE.items():
        level = row.level(k)
        labels = [schedule_module(pid, kind, k, i) for i in range(row.imax(k) + 1)]
        assert len(labels) == row.imax(k) + 1
        assert sorted((m.s0, m.s1) for m in labels) == sorted(
            (m.s0, m.s1) for m in labels_at_level(level))


def test_verify_character_identity_spot():
    assert verify_character_identity(5, "lim3", 1, 0, 60)   # level 3
    assert verify_character_identity(1, "lim3", 1, 2, 60)   # level 4 five-fold
    assert verify_character_identity(2, "lim2", 1, 0, 60)   # (1-q^2) cell


def test_verify_character_identity_i_gt_k_high_level():
    # level 13, a genuine i > k instance
    assert verify_character_identity(1, "lim1", 2, 5, 40)


def test_wrong_module_label_fails():
    # the alpha side is Q(q^{level+3}, q^{-s1-1}); a wrong s1 breaks it
    s = Schedule("lim1", 1, 1, 1)
    m = schedule_module(1, "lim1", 1, 1)
    a = alpha_side(s, 40, unified=True)
    assert a.eq_to_order(qtpi_product(m.level + 3, -m.s1 - 1, 40), 40)
    wrong_s1 = m.s1 + 1
    assert not a.eq_to_order(qtpi_product(m.level + 3, -wrong_s1 - 1, 40), 40)


def test_normalization_emerges_from_chain():
    # sum_side == normalization * character, with the constant coming only
    # from the registry base (and the second family's i = 0 case)
    cases = [
        (1, "lim1", 1, 0, {0: 1}),            # base q: constant 1
        (4, "lim1", 1, 1, {0: 1, 1: -1}),     # base q^2: (1-q)
        (4, "lim2", 1, 0, {0: 1, 2: -1}),     # second family i=0: (1-q^2)
        (2, "lim2", 1, 2, {0: 1, 1: -1}),
    ]
    for pid, kind, k, i, poly in cases:
        s = Schedule(kind, k, i, pid)
        norm = normalization_poly(s, 50)
        assert norm == LaurentSeries(poly, 50)
        m = schedule_module(pid, kind, k, i)
        lhs = sum_side(s, 50)
        rhs = (char_product(m, 50) * norm).truncated(50)
        assert lhs.eq_to_order(rhs, 50), (pid, kind, k, i)


def test_second_family_i0_at_order_zero():
    # the extra (1 + q) of these cells is applied as a unit, so order 0 works
    for pid in (2, 4):
        s = Schedule("lim2", 1, 0, pid)
        assert normalization_poly(s, 0) == LaurentSeries({0: 1}, 0)
        assert verify_character_identity(pid, "lim2", 1, 0, 0)
        assert build_record(pid, "lim2", 1, 0, 0).status == "verified"


def test_verify_character_identity_builds_each_alpha_side_once(monkeypatch):
    # the case-form alpha side feeds both the limit identity and the
    # case-vs-unified link; it is built once, not once per link, and only
    # where it is a separate sum (the second family at i <= 1)
    import qbailey.characters as characters
    import qbailey.lattice as lattice

    calls = []

    def counting_alpha_side(s, order, **kw):
        calls.append(kw.get("unified", False))
        return alpha_side(s, order, **kw)

    monkeypatch.setattr(characters, "alpha_side", counting_alpha_side)
    monkeypatch.setattr(lattice, "alpha_side", counting_alpha_side)
    for cell, expected in (((2, "lim2", 1, 0), [False, True]),
                           ((4, "lim2", 1, 1), [False, True]),
                           ((1, "lim1", 1, 2), [True]),
                           ((3, "lim3", 1, 1), [True]),
                           ((2, "lim2", 1, 2), [True])):
        calls.clear()
        assert characters.verify_character_identity(*cell, 40), cell
        assert sorted(calls) == expected, cell
