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

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey.bailey import registry_entry
from qbailey.lattice import (
    SCHEDULE_TABLE,
    MultisumSpec,
    Schedule,
    _INF,
    _SIMPLIFIED,
    _binom2,
    _link_sum,
    _spec_form,
    _tables,
    _units,
    build_multisum_spec,
    eval_multisum,
)
from qbailey.laurent import LaurentSeries, RunawayValuationError, zero
from qbailey.qproducts import Q_FACTOR, PochFactor
from qbailey.records import catalog_cells
from reference_products import (
    ref_beta_from_spec,
    ref_compose,
    ref_inv_poch_finite,
    ref_inv_poch_inf,
)


def _own_exponent(spec, level, v):
    e = spec.quad[level] * v * v + spec.lin[level] * v
    if level in spec.self_binoms:
        e += _binom2(v)
    return e


def ref_tables(spec, order, cap):
    V = spec.nvars
    entry = registry_entry(spec.pair_id)
    bq, bl = entry.beta.mono_quad, entry.beta.mono_lin
    IN = [[0] * (cap + 1) for _ in range(V)]
    for v in range(cap + 1):
        IN[V - 1][v] = _own_exponent(spec, V - 1, v) + bq * v * v + bl * v
    for L in range(V - 2, -1, -1):
        linked = L in spec.link_binoms
        for v in range(cap + 1):
            IN[L][v] = _own_exponent(spec, L, v) + min(
                IN[L + 1][w] + (_binom2(v - w) if linked else 0)
                for w in range(v + 1))
    LOW = [[_INF] * (cap + 1) for _ in range(V)]
    feas = [[False] * (cap + 1) for _ in range(V)]
    for v in range(cap + 1):
        LOW[0][v] = 0
        feas[0][v] = IN[0][v] <= order
    for L in range(1, V):
        linked = (L - 1) in spec.link_binoms
        for v in range(cap + 1):
            best = _INF
            for u in range(v, cap + 1):
                if feas[L - 1][u]:
                    x = LOW[L - 1][u] + _own_exponent(spec, L - 1, u)
                    best = min(best, x + (_binom2(u - v) if linked else 0))
            LOW[L][v] = best
            feas[L][v] = best < _INF and best + IN[L][v] <= order
    return LOW, feas


def ref_eval_multisum(spec, order, finite_n=None):
    V = spec.nvars
    beta = registry_entry(spec.pair_id).beta
    cap = finite_n if finite_n is not None else 2 * isqrt(max(order, 1)) + V + 14
    LOW, feas = ref_tables(spec, order, cap)
    carries = [[None] * (cap + 1) for _ in range(V)]
    blocks = []
    dead = 0
    for v in range(cap + 1):
        for L in range(V - 1, -1, -1):
            if not feas[L][v]:
                carries[L][v] = zero(order)
                continue
            t_cap = order - LOW[L][v]
            own = _own_exponent(spec, L, v)
            if L == V - 1:
                inner = ref_compose(t_cap, own,
                                    lambda o: ref_beta_from_spec(beta, v, o),
                                    *_units(spec, L, v))
            else:
                t_in = t_cap - own
                linked = L in spec.link_binoms
                acc = zero(t_in)
                for w in range(v + 1):
                    g = carries[L + 1][w]
                    if g.is_zero():
                        continue
                    acc = acc + ref_compose(
                        t_in, _binom2(v - w) if linked else 0, lambda o, g=g: g,
                        (Q_FACTOR, v - w, -1))
                inner = ref_compose(t_cap, own, lambda o: acc, *_units(spec, L, v))
            if L in spec.signs and v % 2:
                inner = -inner
            carries[L][v] = inner.truncated(t_cap)
        blocks.append(carries[0][v])
        if finite_n is None:
            dead = dead + 1 if blocks[-1].is_zero() else 0
            if dead >= 3 and v >= 4:
                break
    total = zero(order)
    if finite_n is None:
        for blk in blocks:
            total = total + blk.truncated(order)
        for b in spec.prefactors:
            total = total * ref_inv_poch_inf(PochFactor(-1, b, 1), order)
        return total.truncated(order)
    for v, blk in enumerate(blocks):
        total = total + ref_compose(order, 0, lambda o, blk=blk: blk,
                                    (Q_FACTOR, finite_n - v, -1))
    for b in spec.prefactors:
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
    V = spec.nvars
    beta = registry_entry(spec.pair_id).beta
    total = zero(order)
    quiet = 0
    J = 0
    while quiet < 3 or J <= 4:
        quiet += 1
        for js in _chains(J, V - 1):
            js = (J,) + js
            e = sum(_own_exponent(spec, r, j) for r, j in enumerate(js))
            e += sum(_binom2(js[r] - js[r + 1]) for r in spec.link_binoms)
            last = js[-1]
            if e + beta.mono_quad * last * last + beta.mono_lin * last > order:
                continue
            quiet = 0
            units = [(PochFactor(-1, b, 1), js[r], p)
                     for factors, p in ((spec.numer, 1), (spec.denom, -1))
                     for r, b in factors]
            units += [(Q_FACTOR, js[r] - js[r + 1], -1) for r in range(V - 1)]
            sign = (-1) ** sum(js[r] for r in spec.signs)
            total = total + ref_compose(
                order, e, lambda o: ref_beta_from_spec(beta, last, o), *units) * sign
        J += 1
    for b in spec.prefactors:
        total = total * ref_inv_poch_inf(PochFactor(-1, b, 1), order)
    return total.truncated(order)


def form_terms():
    """(key, form, terms) for every printed form that is a signed spec sum."""
    out = []
    for key, forms in sorted(_SIMPLIFIED.items()):
        for form in forms:
            if getattr(form, "func", None) is _spec_form:
                terms_of, pair_id = form.args
                out.append((key, form, terms_of(pair_id)))
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
        cap = 2 * isqrt(order) + spec.nvars + 14
        LOW, feas, own = _tables(spec, order, cap)
        assert (LOW, feas) == ref_tables(spec, order, cap)
        assert own == [[_own_exponent(spec, L, v) for v in range(cap + 1)]
                       for L in range(spec.nvars)]


def test_tables_match_reference_on_concave_links():
    # levels of negative quadratic exponent under link binomials, which the
    # catalog has only in a few shapes: the minimum over w can sit far below
    # v behind larger values, so a scan may stop only on the prefix minimum
    for quad in (-2, -1, 0, 1):
        for lin in (-7, 0, 5, 11):
            for links in ((0,), (1,), (0, 1)):
                spec = MultisumSpec(1, 3, (1, quad, -1), (lin, -lin, lin), (1,),
                                    links, (), (), (), ())
                for order in (-20, 0, 30):
                    LOW, feas, _ = _tables(spec, order, 25)
                    assert (LOW, feas) == ref_tables(spec, order, 25)


@pytest.mark.parametrize("max_level,order", [(13, 30), (7, 120)])
def test_eval_multisum_matches_reference(max_level, order):
    for spec in catalog_specs(max_level) + form_specs():
        assert eval_multisum(spec, order) == ref_eval_multisum(spec, order)


def test_form_terms_cover_the_spec_forms():
    # 14 spec forms with 25 terms; they bring shapes the catalog lacks: an
    # own exponent -2 j4 or -j3^2, and a self-binomial on an inner variable
    terms = form_terms()
    assert len(terms) == 14
    specs = form_specs()
    assert len(specs) == 25
    assert any(min(spec.lin[1:], default=0) == -2 for spec in specs)
    assert any(-1 in spec.quad for spec in specs)
    assert any(r > 0 for spec in specs for r in spec.self_binoms
               if r < spec.nvars - 1)


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


def link_sum_series(carries, v, top, linked):
    """``_link_sum`` on the windows of the carries (w, g), read back as a
    series; the window it returns ends at ``top``."""
    lo, a = _link_sum([(w, *g.window(g.trunc)) for w, g in carries], v, top,
                      linked)
    assert lo + len(a) - 1 == top
    return LaurentSeries.from_window(lo, a, top)


def link_sum_pieces(carries, v, top, linked):
    """The inner sum with every (v, w) piece built as its own series."""
    want = zero(top)
    for w, g in carries:
        want = want + ref_compose(
            top, _binom2(v - w) if linked else 0, lambda o, g=g: g,
            (Q_FACTOR, v - w, -1))
    return want


G0 = LaurentSeries({-3: 2, 0: -1, 5: 4}, 12)
G1 = LaurentSeries({1: 1, 2: 3}, 15)
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
    # a zero carry among the others, and top below every valuation
    ([(0, zero(50)), (2, LaurentSeries({3: 1, 8: -2}, 50))], 6, 20),
    ([(0, LaurentSeries({6: 1}, 50)), (1, LaurentSeries({9: 2}, 50))], 4, 5),
    ([(0, G0)], 3, -4),
]


def test_link_sum_matches_pieces():
    for carries, v, top in LINK_SUM_CASES:
        for linked in (False, True):
            got = link_sum_series(carries, v, top, linked)
            want = link_sum_pieces(carries, v, top, linked)
            assert got.to_text() == want.to_text(), (v, top, linked)


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


def test_link_sum_of_no_carries_is_zero():
    assert _link_sum([], 4, 12, True) == (13, [])
    assert _link_sum([], 0, -3, False) == (-2, [])


@st.composite
def link_sum_inputs(draw):
    v = draw(st.integers(0, 16))
    top = draw(st.integers(-6, 40))
    linked = draw(st.booleans())
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
    # (1 - q^2) q / ((1 - q)(1 - q^2)) = q / (1 - q), leading zero kept
    assert _link_sum(short, 2, 5, True) == (0, [0, 1, 1, 1, 1, 1])
    with pytest.raises(AssertionError, match="short of 6"):
        _link_sum(short, 2, 6, True)
    with pytest.raises(AssertionError):
        _link_sum(short, 2, 5, False)


def test_runaway_spec_hits_the_valuation_floor():
    # own exponent -100 j: the cell at j = 6 starts at q^-600, below the
    # floor -500 of order 40, long before the cap
    spec = MultisumSpec(1, 1, (0,), (-100,), (), (), (), (), (), ())
    with pytest.raises(RunawayValuationError,
                       match="exponent -600 below valuation floor -500"):
        eval_multisum(spec, 40)
