"""The multisum dynamic program against plain reference definitions.

``ref_tables`` and ``ref_eval_multisum`` are the direct definitions: IN and
LOW minimized over every pair of values, one zero series per infeasible
cell, and every (v, w) piece of the inner sum built by ``ref_compose``
and added as its own series.  ``brute_chain_sum`` shares nothing with the
DP: it builds the summand of every chain on its own, with no IN/LOW tables
and no carries, and is the oracle for the printed simplified forms.  ``ref_compose`` (in ``reference_products``)
is the product form of ``compose_exact``: the parent times each unit as a
schoolbook Pochhammer series (or its inverse), re-requesting the parent
deeper when its valuation is negative.  No reference here goes through the
library's one-pass dense kernel.  The evaluator must agree with them
exactly.
"""

import json
import random
from math import isqrt
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbailey.lattice as lattice
from qbailey.bailey import _DEFAULT_REGISTRY, registry_entry
from qbailey.lattice import (
    SCHEDULE_TABLE,
    STEP,
    Level,
    Schedule,
    _INF,
    _binom2,
    _collapse_b1bc1,
    _collapse_f2b1,
    _j1_bound,
    _link_sum,
    _min_plus,
    _tables,
    _unit_horner,
    build_multisum_spec,
    eval_multisum,
    sum_side,
    sum_side_finite,
)
from qbailey.laurent import LaurentSeries, RunawayValuationError, zero
from qbailey.qproducts import Q_FACTOR, PochFactor
from qbailey.records import catalog_cells
from paper_checks import _SIMPLIFIED, _chain_terms, _spec, _spec_form
from reference_products import (
    ref_beta_from_spec,
    ref_compose,
    ref_inv_poch_finite,
    ref_inv_poch_inf,
)


# The references read a spec only through ``MultisumSpec.to_dict``, the
# record layout, so the DP and that layout are checked against each other.

def _own_exponent(d, level, v):
    e = d["quad"][level] * v * v + d["lin"][level] * v
    if level in d["self_binoms"]:
        e += _binom2(v)
    return e


def _units(d, level, v):
    """The unit triples (-q^b; q)_v^{+-1} that variable ``level`` carries."""
    return [(PochFactor(-1, b, 1), v, power)
            for key, power in (("numer", 1), ("denom", -1))
            for r, b in d[key] if r == level]


def ref_tables(spec, order, cap):
    d = spec.to_dict()
    V = d["nvars"]
    entry = registry_entry(spec.pair_id)
    bq, bl = entry.beta.mono_quad, entry.beta.mono_lin
    IN = [[0] * (cap + 1) for _ in range(V)]
    for v in range(cap + 1):
        IN[V - 1][v] = _own_exponent(d, V - 1, v) + bq * v * v + bl * v
    for L in range(V - 2, -1, -1):
        linked = L in d["link_binoms"]
        for v in range(cap + 1):
            IN[L][v] = _own_exponent(d, L, v) + min(
                IN[L + 1][w] + (_binom2(v - w) if linked else 0)
                for w in range(v + 1))
    LOW = [[_INF] * (cap + 1) for _ in range(V)]
    feas = [[False] * (cap + 1) for _ in range(V)]
    for v in range(cap + 1):
        LOW[0][v] = 0
        feas[0][v] = IN[0][v] <= order
    for L in range(1, V):
        linked = (L - 1) in d["link_binoms"]
        for v in range(cap + 1):
            best = _INF
            for u in range(v, cap + 1):
                if feas[L - 1][u]:
                    x = LOW[L - 1][u] + _own_exponent(d, L - 1, u)
                    best = min(best, x + (_binom2(u - v) if linked else 0))
            LOW[L][v] = best
            feas[L][v] = best < _INF and best + IN[L][v] <= order
    return IN, LOW, feas


def ref_eval_multisum(spec, order, finite_n=None, dead_blocks=3):
    """The direct sum; in the limit it stops once ``dead_blocks`` j_1-blocks
    in a row vanish to the order, from j_1 = 4 on, or at the heuristic cap."""
    d = spec.to_dict()
    V = d["nvars"]
    beta = registry_entry(spec.pair_id).beta
    cap = finite_n if finite_n is not None else 2 * isqrt(max(order, 1)) + V + 14
    _, LOW, feas = ref_tables(spec, order, cap)
    carries = [[None] * (cap + 1) for _ in range(V)]
    blocks = []
    dead = 0
    for v in range(cap + 1):
        for L in range(V - 1, -1, -1):
            if not feas[L][v]:
                carries[L][v] = zero(order)
                continue
            t_cap = order - LOW[L][v]
            own = _own_exponent(d, L, v)
            if L == V - 1:
                inner = ref_compose(t_cap, own,
                                    lambda o: ref_beta_from_spec(beta, v, o),
                                    *_units(d, L, v))
            else:
                t_in = t_cap - own
                linked = L in d["link_binoms"]
                acc = zero(t_in)
                for w in range(v + 1):
                    g = carries[L + 1][w]
                    if g.is_zero():
                        continue
                    acc = acc + ref_compose(
                        t_in, _binom2(v - w) if linked else 0, lambda o, g=g: g,
                        (Q_FACTOR, v - w, -1))
                inner = ref_compose(t_cap, own, lambda o: acc, *_units(d, L, v))
            if L in d["signs"] and v % 2:
                inner = -inner
            carries[L][v] = inner.truncated(t_cap)
        blocks.append(carries[0][v])
        if finite_n is None:
            dead = dead + 1 if blocks[-1].is_zero() else 0
            if dead >= dead_blocks and v >= 4:
                break
    total = zero(order)
    if finite_n is None:
        for blk in blocks:
            total = total + blk.truncated(order)
        for b in d["prefactors"]:
            total = total * ref_inv_poch_inf(PochFactor(-1, b, 1), order)
        return total.truncated(order)
    for v, blk in enumerate(blocks):
        total = total + ref_compose(order, 0, lambda o, blk=blk: blk,
                                    (Q_FACTOR, finite_n - v, -1))
    for b in d["prefactors"]:
        total = total * ref_inv_poch_finite(PochFactor(-1, b, 1), finite_n, order)
    return total.truncated(order)


def _chains(first, length):
    """Every nonincreasing tuple of the given length with entries <= first."""
    if length == 0:
        yield ()
        return
    for v in range(first, -1, -1):
        for rest in _chains(v, length - 1):
            yield (v,) + rest


def brute_chain_sum(spec, order):
    """The n -> oo sum of a spec, chain by chain.

    Every chain j_1 >= ... >= j_V with j_1 = J is one summand: its sign,
    q^E, its own Pochhammer units and the links' 1/(q)_{j_r - j_{r+1}}
    applied to beta_{j_V} by ``ref_compose``.  Every unit and 1/(q)_d has
    valuation zero, so a chain whose E plus beta's monomial exponent is
    above the order adds nothing; the sum stops once three successive J
    (from J = 4 on) have no chain at or below the order."""
    d = spec.to_dict()
    V = d["nvars"]
    beta = registry_entry(spec.pair_id).beta
    total = zero(order)
    quiet = 0
    J = 0
    while quiet < 3 or J <= 4:
        quiet += 1
        for js in _chains(J, V - 1):
            js = (J,) + js
            e = sum(_own_exponent(d, r, j) for r, j in enumerate(js))
            e += sum(_binom2(js[r] - js[r + 1]) for r in d["link_binoms"])
            last = js[-1]
            if e + beta.mono_quad * last * last + beta.mono_lin * last > order:
                continue
            quiet = 0
            units = [(PochFactor(-1, b, 1), js[r], p)
                     for key, p in (("numer", 1), ("denom", -1))
                     for r, b in d[key]]
            units += [(Q_FACTOR, js[r] - js[r + 1], -1) for r in range(V - 1)]
            sign = (-1) ** sum(js[r] for r in d["signs"])
            total = total + ref_compose(
                order, e, lambda o: ref_beta_from_spec(beta, last, o), *units) * sign
        J += 1
    for b in d["prefactors"]:
        total = total * ref_inv_poch_inf(PochFactor(-1, b, 1), order)
    return total.truncated(order)


def form_terms():
    """(key, form, terms) for every printed form that is a signed spec sum."""
    out = []
    for key, forms in sorted(_SIMPLIFIED.items()):
        for form in forms:
            if getattr(form, "func", None) is _spec_form:
                name, pair_id = form.args
                out.append((key, form, _chain_terms(name, pair_id)))
    return out


def form_specs():
    return [spec for _, _, terms in form_terms() for _, _, spec in terms]


def catalog_specs(max_level):
    return [build_multisum_spec(Schedule(kind, k, i, pid))
            for pid, kind, k, i in catalog_cells(max_level)]


def small_k_specs(max_k):
    return [build_multisum_spec(Schedule(kind, k, i, pid))
            for k in range(1, max_k + 1)
            for (pid, kind), row in sorted(SCHEDULE_TABLE.items())
            for i in range(row.imax(k) + 1)]


@pytest.mark.parametrize("order", [10, 30, 80])
def test_tables_match_reference(order):
    for spec in catalog_specs(19) + form_specs():
        d = spec.to_dict()
        cap = 2 * isqrt(order) + d["nvars"] + 14
        IN, LOW, feas, own = _tables(spec, order, cap,
                                     registry_entry(spec.pair_id))
        assert (IN, LOW, feas) == ref_tables(spec, order, cap)
        assert own == [[_own_exponent(d, L, v) for v in range(cap + 1)]
                       for L in range(d["nvars"])]


def concave_specs():
    """Levels of negative quadratic exponent under link binomials, which the
    catalog has only in a few shapes."""
    return [_spec(1, [1, quad, -1], [lin, -lin, lin], self_binoms=[1],
                  link_binoms=links)
            for quad in (-2, -1, 0, 1) for lin in (-7, 0, 5, 11)
            for links in ([0], [1], [0, 1])]


def gapped_link_specs():
    """A linked level 0 whose outer cost row, at order 0, is feasible at
    j_0 = 0, infeasible just above it and feasible again further out.  In
    the first the nearest value is the least, so LOW's scan stops with
    feasible values still beyond it; in the second the least is past the
    gap."""
    return [_spec(1, [0, -1, 1], [9, -1, -5], self_binoms=[2],
                  link_binoms=[0]),
            _spec(1, [-2, -1], [3, 1], link_binoms=[0])]


def test_tables_match_reference_on_concave_links():
    # the minimum over w can sit far below v behind larger values, so a
    # scan may stop only on the prefix minimum
    for spec in concave_specs() + gapped_link_specs():
        for order in (-20, 0, 30):
            IN, LOW, feas, _ = _tables(spec, order, 25, registry_entry(1))
            assert (IN, LOW, feas) == ref_tables(spec, order, 25)
    stops, past = gapped_link_specs()
    for spec in (stops, past):
        _, LOW, feas, own = _tables(spec, 0, 25, registry_entry(1))
        cost = [lo + e if ok else _INF
                for lo, e, ok in zip(LOW[0], own[0], feas[0])]
        assert cost[0] < _INF == cost[1] and cost[-1] < _INF
        if spec is stops:
            # from u = 1 on nothing can beat u = 0
            assert min(cost[1:]) + _binom2(1) >= cost[0] == LOW[1][0]
        else:
            # u = 1 is infeasible, so the least lies past the gap
            assert LOW[1][0] < cost[0]


@st.composite
def bound_specs(draw):
    """A random chain spec of up to four variables and a beta monomial."""
    V = draw(st.integers(1, 4))
    coef = st.lists(st.integers(-2, 2), min_size=V, max_size=V)
    levels = st.sets(st.integers(0, V - 1))
    quad, lin, self_binoms = draw(coef), draw(coef), sorted(draw(levels))
    links = sorted(draw(st.sets(st.integers(0, V - 2)))) if V > 1 else []
    spec = _spec(1, quad, lin, self_binoms=self_binoms, link_binoms=links)
    return spec, draw(st.integers(-2, 2)), draw(st.integers(-2, 2))


@settings(max_examples=200, deadline=None)
@given(bound_specs())
def test_j1_bound_holds_on_every_chain(inputs):
    # twice a chain's exponent is at least P j_1^2 + S j_1, and so no chain
    # whose exponent is e has j_1 beyond the bound at order e
    spec, bq, bl = inputs
    d = spec.to_dict()
    V = d["nvars"]
    A = [2 * d["quad"][L] + (L in d["self_binoms"]) + 2 * bq * (L == V - 1)
         for L in range(V)]
    B = [2 * d["lin"][L] - (L in d["self_binoms"]) + 2 * bl * (L == V - 1)
         for L in range(V)]
    P = min(sum(A[:L + 1]) for L in range(V))
    S = min(sum(B[:L + 1]) for L in range(V))
    entry = SimpleNamespace(beta=SimpleNamespace(mono_quad=bq, mono_lin=bl))
    for J in range(13):
        for js in _chains(J, V - 1):
            js = (J,) + js
            e = sum(_own_exponent(d, r, j) for r, j in enumerate(js))
            e += sum(_binom2(js[r] - js[r + 1]) for r in d["link_binoms"])
            e += bq * js[-1] ** 2 + bl * js[-1]
            bound = _j1_bound(spec, e, entry)
            assert (bound is None) == (P <= 0)
            if bound is not None:
                assert 2 * e >= P * J * J + S * J, (js, e)
                assert bound >= J, (js, e, bound)


@pytest.mark.parametrize("order", [1, 10, 30, 80])
def test_j1_bound_covers_every_feasible_block(order):
    # on the heuristic grid, no j_1 past the bound is feasible
    for spec in catalog_specs(31) + form_specs() + concave_specs():
        bound = _j1_bound(spec, order, registry_entry(spec.pair_id))
        if bound is None:
            continue
        cap = 2 * isqrt(order) + len(spec.levels) + 14
        _, _, feas, _ = _tables(spec, order, cap, registry_entry(spec.pair_id))
        last = max((v for v, ok in enumerate(feas[0]) if ok), default=-1)
        assert bound >= last, (spec, order)


def test_every_catalog_cell_sums_on_a_proved_grid():
    # once lemma f2b1 has summed out each F2·B1 pair, as sum_side does, every
    # catalog cell up to level 151 has a j_1 bound, and keeps it once lemma
    # b1bc1 has summed out each B1·BC1 pair; the raw folds of the four
    # F2·B1·BC1 cells have none
    unbounded = set()
    for pid, kind, k, i in catalog_cells(151):
        raw = build_multisum_spec(Schedule(kind, k, i, pid))
        entry = registry_entry(pid)
        for order in (1, 40, 2000):
            once = _collapse_f2b1(raw)
            assert _j1_bound(once, order, entry) is not None
            # lemma b1bc1's step kernel is >= 0 and keeps j_1 >= j_3
            assert _j1_bound(_collapse_b1bc1(once), order, entry) is not None
            if _j1_bound(raw, order, entry) is None:
                unbounded.add((pid, kind, k, i))
    assert unbounded == {(1, "lim3", 1, 1), (3, "lim3", 1, 1),
                         (5, "lim3", 1, 1), (1, "lim3", 1, 2)}


def test_sum_without_a_bound_that_never_vanishes_does_not_stabilize():
    # P = 0 gives no bound, and every block 1/(q)_{2 j} reaches the order
    spec = _spec(1, [0], [0])
    assert _j1_bound(spec, 10, registry_entry(1)) is None
    with pytest.raises(ArithmeticError, match="did not stabilize"):
        eval_multisum(spec, 10)


@pytest.mark.parametrize("order,bound", [(-20, 7), (-22, 6)])
def test_a_proved_grid_is_summed_past_three_zero_blocks(order, bound):
    # blocks j_1 = 0, 1, 2 start at q^0, q^-9 and q^-16, above the order,
    # but the grid runs to j_1 = 7 and its last blocks start at q^-25
    spec = _spec(1, [1], [-10])
    assert _j1_bound(spec, order, registry_entry(1)) == bound
    want = ref_eval_multisum(spec, order, dead_blocks=50)
    assert not want.is_zero()
    assert eval_multisum(spec, order) == want


@pytest.mark.parametrize("order", [-20, -15, -10])
def test_a_heuristic_grid_is_summed_past_its_infeasible_blocks(order):
    # no bound (P = 0); at least the blocks j_1 = 0, 1, 2 are infeasible,
    # zero to the order, and the blocks j_1 = 6..10 start at q^-20 and q^-21
    spec = _spec(1, [0, 1], [-5, 0], link_binoms=[0])
    entry = registry_entry(1)
    assert _j1_bound(spec, order, entry) is None
    cap = 2 * isqrt(1) + 2 + 14
    assert _tables(spec, order, cap, entry)[2][0].index(True) >= 3
    want = ref_eval_multisum(spec, order, dead_blocks=50)
    assert want.terms[-21] == 4
    assert eval_multisum(spec, order) == want


@pytest.mark.parametrize("max_level,order", [(13, 30), (7, 120)])
def test_eval_multisum_matches_reference(max_level, order):
    for spec in catalog_specs(max_level) + form_specs():
        assert eval_multisum(spec, order) == ref_eval_multisum(spec, order)


def collapsed_f2b1_specs(max_level):
    """The catalog's lemma f2b1 collapses that differ from their raw folds.
    The doubles' outermost row carries 1/(-q^c; q)_{j_1}, which no raw
    fold's outermost row with a denominator does.  (Not lemma b1bc1's: the
    references read ``STEP`` as a link binomial.)"""
    return [once for once in map(_collapse_f2b1, catalog_specs(max_level))
            if once not in catalog_specs(max_level)]


@pytest.mark.parametrize("max_level,order,count", [(13, 30, 14), (7, 120, 4)])
def test_outermost_units_match_reference(max_level, order, count):
    # in the limit the outermost row's units go on the j_1-blocks in one
    # Horner chain, not on each block
    specs = collapsed_f2b1_specs(max_level)
    assert len(specs) == count
    assert sum(bool(spec.levels[0].denom) for spec in specs) == 3
    for spec in specs:
        assert eval_multisum(spec, order) == ref_eval_multisum(spec, order)


def test_units_of_a_one_row_spec_apply_once():
    # the only row is the innermost one: its units ride on the beta chain,
    # and the Horner chain over the blocks must not apply them again
    spec = _spec(3, [1], [1], numer=[[0, 1], [0, 3]], denom=[[0, 2]])
    for order in (0, 15, 60):
        assert eval_multisum(spec, order) == ref_eval_multisum(spec, order)
        for n in range(5):
            assert (eval_multisum(spec, order, finite_n=n)
                    == ref_eval_multisum(spec, order, finite_n=n))


def test_outermost_units_on_a_heuristic_grid_match_reference():
    # P = 0, so no j_1 bound: the blocks end by the three-dead-blocks rule.
    # They start at q^0, q^-4, ..., q^-14 and then rise, so at order -20
    # the sum is 0
    spec = _spec(1, [0, 1], [-4, 0], link_binoms=[0],
                 numer=[[0, 1], [1, 2]], denom=[[0, 2], [0, 4]])
    assert _j1_bound(spec, 40, registry_entry(1)) is None
    for order, terms in ((-20, 0), (0, 15), (40, 55)):
        got = eval_multisum(spec, order)
        assert got == ref_eval_multisum(spec, order)
        assert len(got.terms) == terms


UNIT_ROWS = [Level(0, 0, False, False, False, numer, denom)
             for numer, denom in (((), ()), ((1,), ()), ((), (2,)),
                                  ((1, 3), (2,)), ((0,), (1, 1)))]


@pytest.mark.parametrize("row", UNIT_ROWS)
def test_unit_horner_matches_each_block_times_its_units(row):
    # gaps in v, a block at v = 0, blocks of negative valuation and one
    # that starts below all the others
    top = 25
    for vs in ([0, 1, 2], [3, 7], [0, 4, 5, 11], [9]):
        # block v starts at q^{v - 6 + 3 (v mod 3)} and ends at the top
        blocks = [(v, v - 6 + 3 * (v % 3),
                   [(7 * v + i) % 5 - 2 for i in range(top + 7 - v - 3 * (v % 3))])
                  for v in vs]
        want = zero(top)
        for v, lo, g in blocks:
            block = LaurentSeries.from_window(lo, g, top)
            want = want + ref_compose(top, 0, lambda o, block=block: block, *(
                (PochFactor(-1, b, 1), v, power)
                for bases, power in ((row.numer, 1), (row.denom, -1)) for b in bases))
        lo, a = _unit_horner(blocks, row, top)
        assert lo + len(a) - 1 == top
        assert LaurentSeries.from_window(lo, a, top) == want, (row, vs)
    assert _unit_horner([], row, top) == (top + 1, [])


def test_unit_horner_rejects_a_block_short_of_top():
    # each block must be known to the top: the sum would claim
    # coefficients of it it does not know; one past the top adds nothing
    row = UNIT_ROWS[3]
    with pytest.raises(AssertionError, match="block at j_1=2 is exact to 4, short of 5"):
        _unit_horner([(0, 0, [1] * 6), (2, 1, [1] * 4)], row, 5)
    assert _unit_horner([(0, 0, [1] * 6), (3, 7, [2])], row, 5) == (0, [1] * 6)


def test_unit_horner_only_reads_its_blocks():
    # the DP keeps its j_1-blocks in nonzero[0]: no block is written, and the
    # window returned is none of them, whether the last block is live or dead
    top = 9
    for blocks in ([(0, 2, [1] * 8), (3, -1, [2, 0, -1] + [1] * 8)],
                   [(1, 0, [3] * 10), (4, 5, [1] * 5), (6, 11, [7])],
                   [(2, 10, [1, 2])]):
        for row in UNIT_ROWS:
            before = [list(g) for _, _, g in blocks]
            lo, a = _unit_horner(blocks, row, top)
            assert [g for _, _, g in blocks] == before, (blocks, row)
            assert all(a is not g for _, _, g in blocks), (blocks, row)
            assert not a or lo + len(a) - 1 == top
    # no blocks, or none that reaches top, sum to zero
    assert _unit_horner([], UNIT_ROWS[3], top) == (top + 1, [])
    assert _unit_horner([(2, 10, [1, 2])], UNIT_ROWS[3], top) == (top + 1, [])


def test_no_chain_with_units_outlives_its_call():
    # a row's units ride on a beta chain built for the call and dropped
    # with it; the chains held for the process are the registry's betas
    # (one that kept the units' chains took L7/O1280 from 28.5 to 35.4 MB)
    lattice._beta_chain.cache_clear()
    cells = [Schedule(kind, k, i, pid) for pid, kind, k, i in catalog_cells(7)]
    for s in cells:
        sum_side(s, 60)
    betas = {registry_entry(s.pair_id).beta for s in cells}
    assert lattice._beta_chain.cache_info().currsize == len(betas) == 5


def test_form_terms_cover_the_spec_forms():
    # 14 spec forms with 25 terms; they bring shapes the catalog lacks: an
    # own exponent -2 j4 or -j3^2, and a self-binomial on an inner variable
    terms = form_terms()
    assert len(terms) == 14
    specs = form_specs()
    assert len(specs) == 25
    layouts = [spec.to_dict() for spec in specs]
    assert any(min(d["lin"][1:], default=0) == -2 for d in layouts)
    assert any(-1 in d["quad"] for d in layouts)
    assert any(r > 0 for d in layouts for r in d["self_binoms"]
               if r < d["nvars"] - 1)


@pytest.mark.parametrize("order", [10, 30, 60])
def test_form_terms_match_brute_chain_sum(order):
    for key, form, terms in form_terms():
        want = zero(order)
        for sign, shift, spec in terms:
            got = eval_multisum(spec, order - shift)
            ref = brute_chain_sum(spec, order - shift)
            assert got.to_text() == ref.to_text(), (key, spec)
            want = want + ref.shift(shift) * sign
        assert form(order).to_text() == want.to_text(), key


def test_eval_multisum_finite_matches_reference():
    for spec in small_k_specs(2):
        for n in range(4):
            assert (eval_multisum(spec, 20, finite_n=n)
                    == ref_eval_multisum(spec, 20, finite_n=n))


# At finite n a call reuses the carries of the call before it on the same
# spec, registry entry and order.  Each check below compares a call that may
# reuse them with a fresh one, made with no carries kept.

def fresh_finite(spec, order, n):
    lattice._finite_carries.cache_clear()
    text = eval_multisum(spec, order, finite_n=n).to_text()
    lattice._finite_carries.cache_clear()
    return text


@pytest.mark.parametrize("order", [-3, 0, 20, 40])
def test_finite_n_reuse_matches_a_fresh_evaluation(order):
    ns = list(range(6))
    shuffled = ns[:]
    random.Random(order).shuffle(shuffled)
    for spec in small_k_specs(2):
        want = {n: fresh_finite(spec, order, n) for n in ns}
        for run in (ns, ns[::-1], shuffled):
            lattice._finite_carries.cache_clear()
            for n in run:
                got = eval_multisum(spec, order, finite_n=n).to_text()
                assert got == want[n], (spec, order, run, n)


def test_finite_n_reuses_a_zero_carry_only_up_to_its_top():
    # j_2's carry is sum_w (-1)^w (-q^6; q)_w q^{binom(v-w, 2)}
    # / ((q)_w (q)_{v-w}) (j_4 = 0 alone reaches the order): zero for v >= 1
    # by the q-binomial theorem, but for (-q^6; q)_w = 1 + O(q^6); at v = 1
    # it is -q^6/(1 - q).  j_1's own q^{-j_1} gives LOW = -n at j_2, so j_2's
    # carries are needed to q^n: the one at v = 1 is zero to n up to n = 5
    spec = _spec(1, (0, 0, 0, 100), (-1, 0, 0, 0), link_binoms=(1,),
                 signs=(2,), numer=((2, 6),))
    want = [fresh_finite(spec, 0, n) for n in range(8)]
    # P = 0: no j_1 bound, so each call's grid ends at its n and the slot
    # is [None, memo], the carries kept by (L, v) with their t_cap
    key = spec, registry_entry(1), 0
    assert _j1_bound(spec, 0, registry_entry(1)) is None
    got, kept = [], []
    for n in range(8):
        got.append(eval_multisum(spec, 0, finite_n=n).to_text())
        kept.append(lattice._finite_carries(*key)[1].get((1, 1)))
    assert got == want
    assert [(top, bool(c)) for top, c in kept[1:]] == [(n, n >= 6) for n in range(1, 8)]
    lattice._finite_carries.cache_clear()


@pytest.mark.parametrize("order", [0, 20])
def test_finite_n_past_the_proved_grid_matches_reference(order):
    # a proved grid ends at the j_1 bound B, at every n; the reference sums
    # every j_1 <= n, so the n past B check the blocks the grid leaves out
    for spec in small_k_specs(2):
        B = _j1_bound(spec, order, registry_entry(spec.pair_id))
        if B is None:
            continue
        lattice._finite_carries.cache_clear()
        for n in range(B + 4):
            assert (eval_multisum(spec, order, finite_n=n)
                    == ref_eval_multisum(spec, order, finite_n=n)), (spec, n)


def test_a_proved_spec_builds_its_tables_once(monkeypatch):
    caps = []
    real = lattice._tables
    monkeypatch.setattr(lattice, "_tables",
                        lambda *args: caps.append(args[2]) or real(*args))
    spec = build_multisum_spec(Schedule("lim1", 2, 3, 1))
    B = _j1_bound(spec, 20, registry_entry(1))
    ns = list(range(B + 4))
    for run in (ns, ns[::-1], random.Random(B).sample(ns, len(ns))):
        lattice._finite_carries.cache_clear()
        caps.clear()
        got = [eval_multisum(spec, 20, finite_n=n).to_text() for n in run]
        assert caps == [B], run
        assert got == [fresh_finite(spec, 20, n) for n in run]
    # an unproved spec builds them at cap n, once per call
    spec = build_multisum_spec(Schedule("lim3", 1, 1, 1))
    assert _j1_bound(spec, 20, registry_entry(1)) is None
    lattice._finite_carries.cache_clear()
    caps.clear()
    for n in (4, 0, 2, 1, 3):
        eval_multisum(spec, 20, finite_n=n)
    assert caps == [4, 0, 2, 1, 3]
    lattice._finite_carries.cache_clear()


def test_finite_n_reuse_across_interleaved_specs_and_orders():
    a = build_multisum_spec(Schedule("lim1", 2, 3, 1))
    b = build_multisum_spec(Schedule("lim3", 2, 1, 5))
    calls = [(a, 20, 3), (b, 20, 1), (a, 20, 4), (a, 40, 2), (a, 20, 5),
             (b, 20, 0), (b, 40, 5), (b, 20, 2)]
    want = [fresh_finite(*call) for call in calls]
    lattice._finite_carries.cache_clear()
    assert [eval_multisum(spec, order, finite_n=n).to_text()
            for spec, order, n in calls] == want


def test_finite_n_reuse_follows_a_changed_registry_beta(tmp_path, monkeypatch):
    # a registry copy that changes only pair 1's beta folds to an equal spec,
    # so the kept carries follow the registry entry: a call under one
    # registry never reads those of the other
    s = Schedule("lim1", 2, 1, 1)
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    spec = build_multisum_spec(s)
    bundled = [eval_multisum(spec, 20, finite_n=n).to_text() for n in (4, 3)]
    data = json.loads(Path(_DEFAULT_REGISTRY).read_text())
    data["pairs"][0]["beta"]["mono_lin"] += 1
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    assert build_multisum_spec(s) == spec
    want = [fresh_finite(spec, 20, n) for n in (4, 3)]
    lattice._finite_carries.cache_clear()
    eval_multisum(spec, 20, finite_n=4)
    monkeypatch.delenv("QBAILEY_REGISTRY")
    assert [eval_multisum(spec, 20, finite_n=n).to_text() for n in (4, 3)] == bundled
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    got = [eval_multisum(spec, 20, finite_n=n).to_text() for n in (4, 3)]
    assert got == want and got != bundled


def test_sum_side_finite_loads_the_registry_once_per_call(monkeypatch):
    # one registry_entry per call serves both the fold and the DP
    from qbailey import bailey

    calls = []
    load = bailey.load_registry
    monkeypatch.setattr(bailey, "load_registry", lambda: calls.append(1) or load())
    for s in (Schedule("lim1", 1, 0, 1), Schedule("lim2", 2, 1, 4),
              Schedule("lim3", 1, 1, 5)):
        for n in (0, 3, 1):
            sum_side_finite(s, n, 20)
    assert len(calls) == 9


def test_sum_side_finite_follows_a_registry_changed_between_calls(tmp_path, monkeypatch):
    # each call resolves QBAILEY_REGISTRY anew: a copy that changes only
    # pair 1's beta changes the next call on the same schedule, which still
    # equals the move engine's beta_n on that copy
    from qbailey.bailey import apply_moves, registry_pair
    from qbailey.lattice import expand_schedule

    s = Schedule("lim1", 2, 1, 1)
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    bundled = [sum_side_finite(s, n, 20).to_text() for n in (4, 3)]
    data = json.loads(Path(_DEFAULT_REGISTRY).read_text())
    data["pairs"][0]["beta"]["mono_lin"] += 1
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    moved = apply_moves(registry_pair(1), expand_schedule(s))
    got = [sum_side_finite(s, n, 20) for n in (4, 3)]
    assert [g.to_text() for g in got] != bundled
    assert all(g.eq_to_order(moved.beta(n, 20), 20) for g, n in zip(got, (4, 3)))
    monkeypatch.delenv("QBAILEY_REGISTRY")
    assert [sum_side_finite(s, n, 20).to_text() for n in (4, 3)] == bundled


def test_only_the_last_finite_n_spec_keeps_its_carries():
    # the kept carries are those of the last finite-n call alone; the n -> oo
    # limit keeps none
    lattice._finite_carries.cache_clear()
    for s in (Schedule("lim1", 1, 0, 1), Schedule("lim2", 2, 1, 4)):
        sum_side(s, 40)
    assert lattice._finite_carries.cache_info().currsize == 0
    for spec in small_k_specs(1):
        for n in range(3):
            eval_multisum(spec, 20, finite_n=n)
    info = lattice._finite_carries.cache_info()
    assert info.currsize == 1
    # and they are the last spec's: asking for its key finds them
    assert lattice._finite_carries(spec, registry_entry(spec.pair_id), 20)
    assert lattice._finite_carries.cache_info().hits == info.hits + 1
    lattice._finite_carries.cache_clear()


def test_the_dp_shares_no_state_with_the_move_engine(monkeypatch):
    # the multisums are the move engine's oracle (criterion 9): they read
    # registry betas from their own chains and never make a Bailey pair
    from qbailey import bailey
    from qbailey.records import build_record

    pairs = {}
    monkeypatch.setattr(bailey, "_REGISTRY_PAIRS", pairs)
    for s in (Schedule("lim1", 1, 0, 1), Schedule("lim2", 2, 1, 4),
              Schedule("lim3", 1, 1, 5)):
        sum_side(s, 20)
        for n in range(3):
            sum_side_finite(s, n, 20)
        build_record(s.pair_id, s.kind, s.k, s.i, 20)
    assert pairs == {}


def link_sum_series(carries, v, top, link):
    """``_link_sum`` on the windows of the carries (w, g), read back as a
    series; the window it returns ends at ``top``."""
    lo, a = _link_sum([(w, *g.window(g.trunc)) for w, g in carries], v, top,
                      link)
    assert lo + len(a) - 1 == top
    return LaurentSeries.from_window(lo, a, top)


def link_sum_pieces(carries, v, top, link):
    """The inner sum with every (v, w) piece built as its own series: g
    itself at v - w <= 1 under the step kernel, nothing further down."""
    want = zero(top)
    for w, g in carries:
        if link == STEP and v - w > 1:
            continue
        units = () if link == STEP else ((Q_FACTOR, v - w, -1),)
        want = want + ref_compose(
            top, _binom2(v - w) if link else 0, lambda o, g=g: g, *units)
    return want


G0 = LaurentSeries({-3: 2, 0: -1, 5: 4}, 12)
G1 = LaurentSeries({1: 1, 2: 3}, 15)
ALL_DEAD = ([(0, LaurentSeries({2: 1}, 40)), (3, LaurentSeries({3: 2, 5: 1}, 40)),
             (5, LaurentSeries({6: 1}, 40))], 6, 5)
LINK_SUM_CASES = [
    # (carries, v, top)
    ([(0, G0), (1, G1)], 3, 10),
    # gaps in w and a carry of valuation -8
    ([(0, LaurentSeries({-8: 1, -2: -3, 7: 2}, 40)),
      (3, LaurentSeries({0: 5, 4: -1}, 40)),
      (4, LaurentSeries({2: 1, 6: 7}, 40)),
      (7, LaurentSeries({-1: -2, 3: 1}, 40))], 9, 30),
    # v well above the last carry: the steps go on up to v
    ([(0, LaurentSeries({-3: 2, 0: -1, 5: 4}, 40)),
      (2, LaurentSeries({-5: 1, 1: -1}, 60))], 14, 40),
    ([(1, LaurentSeries({0: 1}, 80))], 25, 60),
    ([(0, LaurentSeries({-9: 1, -4: 2}, 50)),
      (2, LaurentSeries({-6: -1, 0: 3}, 50))], 8, 30),
    # a carry at w = v, added after all the steps
    ([(0, G0), (5, LaurentSeries({-4: 3, 9: 1}, 20))], 5, 11),
    # carries at w = v - 1 and w = v, the step kernel's two
    ([(1, G0), (2, LaurentSeries({-5: 2, 3: 1}, 14)), (3, G1)], 3, 11),
    ([(4, LaurentSeries({-2: 1, 0: 3}, 20))], 5, 9),
    # a zero carry among the others, and top below every valuation
    ([(0, zero(50)), (2, LaurentSeries({3: 1, 8: -2}, 50))], 6, 20),
    ([(0, LaurentSeries({6: 1}, 50)), (1, LaurentSeries({9: 2}, 50))], 4, 5),
    ([(0, G0)], 3, -4),
    # dead carries, whose shift binom(v - w, 2) puts every term above top:
    # the lowest one, with live carries above it, one shifted onto top
    ([(0, LaurentSeries({0: 1, 3: 2}, 40)), (5, LaurentSeries({24: 3}, 40)),
      (6, LaurentSeries({-2: 4, 9: 1}, 40)), (8, LaurentSeries({0: 1, 5: 2}, 40))],
     9, 30),
    # one between two live carries, on a window the first opened exactly
    # to top, the last at the step kernel's w = v - 1
    ([(5, LaurentSeries({0: 3, 7: -1}, 20)), (6, LaurentSeries({16: 5}, 40)),
      (9, LaurentSeries({-3: 1, 2: 2}, 40))], 10, 20),
    # every one, on the linked level: (top + 1, [])
    ALL_DEAD,
    # the first live carry exact only to top - binom(v - w, 2) = 15: its
    # window is padded with zeros up to top, which the shifts drop again
    ([(0, LaurentSeries({1: 1}, 40)), (3, LaurentSeries({-2: 1, 10: 3}, 15)),
      (7, LaurentSeries({0: 2, 4: -1}, 40))], 9, 30),
    # the copy path, one live carry at w = v: exact to top, so never padded
    # (one unit short raises on every kernel), and cut at top when longer
    ([(4, LaurentSeries({-2: 1, 3: 5}, 9))], 4, 9),
    ([(4, LaurentSeries({-2: 1, 3: 5}, 8))], 4, 9),
    ([(4, LaurentSeries({-2: 1, 3: 5, 12: 2}, 20))], 4, 9),
    # below it one carry dead by its shift (live unlinked) and one by its
    # valuation, at the step kernel's w = v - 1
    ([(0, LaurentSeries({4: 1}, 40)), (5, LaurentSeries({12: 1}, 40)),
      (6, LaurentSeries({-1: 2, 5: -3}, 30))], 6, 10),
]


def _short_of_top(carries, v, top, link):
    """Whether a carry the ``link`` kernel reads falls short of top."""
    return any(g.trunc + (_binom2(v - w) if link else 0) < top
               for w, g in carries if link != STEP or w >= v - 1)


def test_link_sum_matches_pieces():
    for carries, v, top in LINK_SUM_CASES:
        for linked in (False, True, STEP):
            if _short_of_top(carries, v, top, linked):
                with pytest.raises(AssertionError, match="short of"):
                    link_sum_series(carries, v, top, linked)
                continue
            got = link_sum_series(carries, v, top, linked)
            want = link_sum_pieces(carries, v, top, linked)
            assert got.to_text() == want.to_text(), (v, top, linked)


def test_link_sum_only_reads_its_carries():
    # bailey's moves keep their g_j windows across calls and the DP reuses
    # its carries: no carry is written, and the window returned is none of them
    for carries, v, top in LINK_SUM_CASES:
        for linked in (False, True, STEP):
            windows = [(w, *g.window(g.trunc)) for w, g in carries]
            before = [list(a) for _, _, a in windows]
            try:
                _, got = _link_sum(windows, v, top, linked)
            except AssertionError:  # a carry short of top
                got = None
            assert [a for _, _, a in windows] == before, (v, top, linked)
            assert all(got is not a for _, _, a in windows), (v, top, linked)


def test_linked_sum_reads_a_carry_only_up_to_top_minus_its_shift():
    # at v - w = 9 the shift is 36: a carry exact only to q^-6 still
    # reaches top = 30, and one to q^13 at v - w = 3 (shift 3) reaches 16
    carries = [(0, LaurentSeries({-8: 1, -7: 2, -6: -1}, -6)),
               (6, LaurentSeries({-2: 4, 13: 1}, 13)),
               (8, LaurentSeries({0: 1, 5: 2}, 30))]
    got = link_sum_series(carries, 9, 16, True)
    assert got.to_text() == link_sum_pieces(carries, 9, 16, True).to_text()
    assert link_sum_series(carries[:1], 9, 30, True).to_text() == link_sum_pieces(
        carries[:1], 9, 30, True).to_text()


def test_link_sum_copies_a_lone_live_carry_at_v():
    # the sum is the carry cut at top, as a new list even when nothing is cut
    for link in (False, True, STEP):
        for top in (3, 5):
            g = [2, 0, -1, 0, 4]
            lo, a = _link_sum([(0, 9, [1]), (3, 1, g)], 3, top, link)
            assert (lo, a) == (1, g[:top]) and a is not g, (link, top)


def test_link_sum_of_no_carries_is_zero():
    assert _link_sum([], 4, 12, True) == (13, [])
    assert _link_sum([], 0, -3, False) == (-2, [])
    # nor of carries that all land above top
    dead = [(w, *g.window(g.trunc)) for w, g in ALL_DEAD[0]]
    assert _link_sum(dead, 6, 5, True) == _link_sum(dead, 6, 5, STEP) == (6, [])


@st.composite
def link_sum_inputs(draw):
    v = draw(st.integers(0, 16))
    top = draw(st.integers(-6, 40))
    linked = draw(st.sampled_from((False, True, STEP)))
    ws = sorted(draw(st.sets(st.integers(0, v), max_size=5)))
    carries = []
    for w in ws:
        s = _binom2(v - w) if linked else 0
        # exact to at least top - s, which is all the sum may read
        trunc = max(top - s, -12) + draw(st.integers(0, 6))
        terms = draw(st.dictionaries(st.integers(-12, trunc), st.integers(-9, 9),
                                     max_size=6)) if trunc >= -12 else {}
        carries.append((w, LaurentSeries(terms, trunc)))
    return carries, v, top, linked


@settings(max_examples=150, deadline=None)
@given(link_sum_inputs())
def test_link_sum_matches_pieces_property(inputs):
    carries, v, top, linked = inputs
    got = link_sum_series(carries, v, top, linked)
    assert got.to_text() == link_sum_pieces(carries, v, top, linked).to_text()


def test_link_sum_rejects_a_carry_short_of_top():
    # exact only to q^4; linked at v - w = 2 it reaches q^5, short of q^6
    short = [(0, *LaurentSeries({0: 1, 2: -1}, 4).window(4))]
    # (1 - q^2) q / ((1 - q)(1 - q^2)) = q / (1 - q); the shift by q moved
    # the window's start from q^0 to q^1
    assert _link_sum(short, 2, 5, True) == (1, [1, 1, 1, 1, 1])
    with pytest.raises(AssertionError, match="short of 6"):
        _link_sum(short, 2, 6, True)
    with pytest.raises(AssertionError):
        _link_sum(short, 2, 5, False)
    # the step kernel checks the carries it reads, and reads none below
    # w = v - 1
    with pytest.raises(AssertionError, match="short of 5"):
        _link_sum(short, 1, 5, STEP)
    assert _link_sum(short, 2, 6, STEP) == (7, [])


def test_step_min_plus_is_the_two_point_minimum():
    # m[v] = min(x[v-1], x[v]), for the IN pass and the reversed LOW pass
    b2 = [_binom2(d) for d in range(9)]
    for x in ([5, 3, 9, _INF, 1, 7, _INF, _INF, 2],
              [_INF, _INF, 0, -4, 6, _INF, 3, 3, -1], [7]):
        want = [min(x[max(v - 1, 0):v + 1]) for v in range(len(x))]
        assert _min_plus(x, STEP, b2) == want


def test_runaway_spec_hits_the_valuation_floor():
    # own exponent -100 j: the cell at j = 6 starts at q^-600, below the
    # floor -500 of order 40, long before the cap
    spec = _spec(1, [0], [-100])
    with pytest.raises(RunawayValuationError,
                       match="exponent -600 below valuation floor -500"):
        eval_multisum(spec, 40)


def test_a_carry_below_its_proved_valuation_names_the_cell():
    # IN[L][v] bounds every carry's valuation from below; tables that
    # claim one more than the truth must be caught at the first kept cell
    real = lattice._tables

    def raised(*args):
        IN, LOW, feas, own = real(*args)
        return [[e + 1 for e in row] for row in IN], LOW, feas, own

    spec = build_multisum_spec(Schedule("lim1", 1, 0, 1))
    with mock.patch.object(lattice, "_tables", raised):
        with pytest.raises(AssertionError, match="carry at level 0, j=0 starts "
                           "at q\\^0, below its proved valuation q\\^1"):
            eval_multisum(spec, 20)
