"""Module labels, principal characters, and the full verification chain."""

from itertools import combinations
from math import isqrt

import pytest

from qbailey.characters import (
    ModuleLabel,
    char_product,
    char_product_factors,
    char_qtpi,
    normalization_poly,
    schedule_module,
    verify_character_identity,
)
from qbailey.lattice import Schedule, SCHEDULE_TABLE, alpha_side, eval_multisum, sum_side
from qbailey.laurent import LaurentSeries, zero
from qbailey.qproducts import (
    PochFactor,
    inv_euler,
    poch_inf,
    qtpi_product,
)
from qbailey.records import build_record
from paper_checks import labels_at_level


@pytest.mark.parametrize("record, change, message", [
    (PochFactor(), {"sign": 2}, "sign must be"),
    (PochFactor(), {"step": 0}, "step must be positive"),
    (Schedule("lim1", 1, 0, 1), {"i": 5}, "i=5 out of range"),
    (ModuleLabel(1, 1), {"s0": -1}, "labels need s0, s1 >= 0"),
])
def test_replace_validates_like_the_constructor(record, change, message):
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(ValueError, match=message):
        record._replace(**change)


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


def _s1_range(row):
    """(lo, hi) with the row's s1 running over [lo, 3k + hi] at k: i runs
    over [0, 3k + imax_off], and s1 is i or 3k + flip - i."""
    if row.flip is None:
        return 0, row.imax_off
    return row.flip - row.imax_off, row.flip


def _covers_every_level(pids):
    """Whether the rows of ``pids`` give every label of every level >= 2.

    Level 6k + off has the labels s1 in [0, 3k + off // 2], whose top has
    the rows' slope 3.  Within one level_off, ranges with min lo = 0 and
    max hi = off // 2 that cover [0, 3 + off // 2] at k = 1 cover it at
    every k >= 1: from k to k + 1 every top rises by 3, and a range with
    the largest hi, which reached the old top, covers the three new
    labels.  Each failed condition misses a label at k = 1 or at every k.
    """
    families = {}
    for (pid, _), row in SCHEDULE_TABLE.items():
        if pid in pids:
            families.setdefault(row.level_off, []).append(_s1_range(row))
    if sorted(off % 6 for off in families) != list(range(6)):
        return False
    for off, ranges in families.items():
        half = off // 2
        covered = {s1 for lo, hi in ranges for s1 in range(lo, 3 + hi + 1)}
        if (min(lo for lo, _ in ranges) != 0 or max(hi for _, hi in ranges) != half
                or covered != set(range(3 + half + 1))):
            return False
    return True


def _labels_by_level(pids, max_level):
    """level -> the labels that the rows of ``pids`` produce, through
    ``schedule_module``, for every level up to ``max_level``."""
    out = {}
    for (pid, kind), row in SCHEDULE_TABLE.items():
        if pid not in pids:
            continue
        for k in range(1, max_level // 6 + 2):
            if row.level(k) <= max_level:
                out.setdefault(row.level(k), set()).update(
                    (m.s0, m.s1) for m in (schedule_module(pid, kind, k, i)
                                           for i in range(row.imax(k) + 1)))
    return out


def _label_set(level):
    return {(m.s0, m.s1) for m in labels_at_level(level)}


def test_six_families_cover_every_label_of_every_level():
    # the abstract's six families: one level_off per residue of level mod 6
    offsets = {row.level_off for row in SCHEDULE_TABLE.values()}
    assert sorted(off % 6 for off in offsets) == list(range(6))
    for (pid, kind), row in SCHEDULE_TABLE.items():
        lo, hi = _s1_range(row)
        for k in (1, 2, 7):
            assert {row.s1(k, 0), row.s1(k, row.imax(k))} == {lo, 3 * k + hi}
    assert _covers_every_level({1, 2, 3, 4, 5})
    got = _labels_by_level({1, 2, 3, 4, 5}, 400)
    assert got == {level: _label_set(level) for level in range(2, 401)}
    # level 1, whose only label is (1, 0), comes from no row
    assert _label_set(1) == {(1, 0)}
    assert min(row.level(1) for row in SCHEDULE_TABLE.values()) == 2


def test_three_pairs_suffice_in_exactly_four_ways():
    # "three of these are sufficient": these four 3-sets, and no other
    covering = {(1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5)}
    for pids in combinations(range(1, 6), 3):
        assert _covers_every_level(set(pids)) == (pids in covering), pids
        got = _labels_by_level(set(pids), 199)
        full = all(got.get(level) == _label_set(level) for level in range(2, 200))
        assert full == (pids in covering), pids


def test_verify_character_identity_spot():
    assert verify_character_identity(5, "lim3", 1, 0, 60)   # level 3
    assert verify_character_identity(1, "lim3", 1, 2, 60)   # level 4 five-fold
    assert verify_character_identity(2, "lim2", 1, 0, 60)   # (1-q^2) cell


@pytest.mark.parametrize("target, broken, cell", [
    # link 1: the quintuple product at the wrong level, off by one
    ("qbailey.characters.qtpi_product",
     lambda u, v, order: qtpi_product(u + 1, v, order), (1, "lim1", 1, 1)),
    # link 2: the multisum times q, as link 2 reads it
    ("qbailey.lattice.eval_multisum",
     lambda spec, order: eval_multisum(spec, order - 1).shift(1), (1, "lim1", 1, 1)),
    # link 3: the (1 + q) of the second family's i = 0 display dropped
    ("qbailey.characters._case_factor", lambda s, x, order: x, (2, "lim2", 1, 0)),
])
def test_each_broken_link_fails_the_chain(monkeypatch, target, broken, cell):
    assert verify_character_identity(*cell, 40)
    monkeypatch.setattr(target, broken)
    assert not verify_character_identity(*cell, 40)


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


def test_chain_makes_no_dense_series_product(monkeypatch):
    # link 2's (q^c; q)_inf is a theta series added onto the multisum's
    # window, so the chain's one series product is link 1's: the two theta
    # series of the quintuple product, O(sqrt(order)) terms each, once per
    # module
    from qbailey import qproducts
    from qbailey.records import catalog_cells

    for name in ("poch_finite", "inv_poch_finite", "poch_inf", "inv_poch_inf",
                 "inv_euler", "qtpi_product"):
        getattr(qproducts, name).cache_clear()
    calls = []
    real = LaurentSeries.__mul__

    def counted(self, other):
        calls.append((len(self.terms), len(other.terms)))
        return real(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    cells = catalog_cells(13)
    assert len(cells) == 90
    for cell in cells:
        assert verify_character_identity(*cell, 120), cell
    modules = {schedule_module(*cell) for cell in cells}
    assert len(calls) == qtpi_product.cache_info().misses == len(modules)
    assert max(max(pair) for pair in calls) <= 2 * isqrt(2 * 120) + 2


@pytest.mark.parametrize("order", [-1, -3, -10])
def test_characters_below_order_zero_are_zero(order):
    # every character has valuation 0, so below q^0 it is zero to the order
    for m in (ModuleLabel(1, 0), ModuleLabel(0, 1), ModuleLabel(3, 2), ModuleLabel(2, 5)):
        assert char_product(m, order) == zero(order), m
        assert char_qtpi(m, order) == zero(order), m


def test_characters_and_sum_sides_make_no_series_product(monkeypatch):
    # every division by (q; q)_inf, and the sum side's 1/(-q^b; q)_inf, is
    # one pass on a window, so the one product left is the quintuple
    # product's two theta series
    from qbailey import lattice, qproducts
    from qbailey.records import catalog_cells

    for name in ("poch_finite", "inv_poch_finite", "poch_inf", "inv_poch_inf",
                 "inv_euler", "qtpi_product"):
        getattr(qproducts, name).cache_clear()
    calls = []
    real_mul, real_invert = LaurentSeries.__mul__, LaurentSeries.invert

    def mul(self, other):
        calls.append("mul")
        return real_mul(self, other)

    def invert(self):
        calls.append("invert")
        return real_invert(self)

    monkeypatch.setattr(LaurentSeries, "__mul__", mul)
    monkeypatch.setattr(LaurentSeries, "invert", invert)
    modules = [ModuleLabel(level - 2 * s1, s1) for level in range(2, 8)
               for s1 in range(level // 2 + 1)]
    assert len(modules) == 18
    for m in modules:
        char_product(m, 200)
    assert calls == []
    for m in modules:
        char_qtpi(m, 200)
    assert calls == ["mul"] * qtpi_product.cache_info().misses
    calls.clear()
    cells = [Schedule(kind, k, i, pid) for pid, kind, k, i in catalog_cells(7)]
    assert len(cells) == 30
    assert sum(bool(lattice._sum_spec(s).prefactors) for s in cells) == 8
    for s in cells:
        sum_side(s, 120)
    assert calls == []


def test_quintuple_product_is_built_once_per_module():
    # the 30 cells of level <= 7 fall in 18 modules, one product each
    from qbailey.records import catalog_cells

    qtpi_product.cache_clear()
    for cell in catalog_cells(7):
        assert verify_character_identity(*cell, 120), cell
    assert qtpi_product.cache_info().misses == 18


def test_build_record_builds_the_multisum_spec_once():
    # the record's spec is the one the limit identity evaluates: the
    # memoized fold builds it once, and every later request is a hit
    import qbailey.lattice as lattice
    import qbailey.records as records

    lattice._fold.cache_clear()
    for cell in ((1, "lim1", 1, 0), (2, "lim2", 1, 0), (5, "lim1", 1, 3)):
        before = lattice._fold.cache_info().misses
        record = records.build_record(*cell, 40)
        assert record.status == "verified", cell
        assert lattice._fold.cache_info().misses == before + 1, cell
        s = Schedule(cell[1], cell[2], cell[3], cell[0])
        assert record.sum_spec is lattice.build_multisum_spec(s), cell
