"""The paper's checks that no ``qbailey`` subcommand runs.

The acceptance suite, the other tests and CI read these; the package does
not.  They are the paper's two collapse lemmas as finite identities
(``lemma_b1bc1``, ``lemma_f2b1`` and the recurrence behind the latter), the
catalog of its printed simplified forms, the unshifted pair behind registry
pair 1 (``slater_a1_pair``, which the tests shift with ``base_shift`` to
rebuild that pair) and the labels of one level (``labels_at_level``).

Most printed simplified forms (``simplified_forms``) are signed sums of
chain specs (``qbailey.lattice.MultisumSpec``), each shifted by a power of
q, evaluated by the same DP as the sum sides (``eval_multisum``).  Each of
these displays is one row of the table ``_DISPLAYS``, and ``_chain_terms``
alone turns a row into its terms for a registry pair.  The two reindexed
single sums with affine Pochhammer lengths (``_tail_single`` and
``_level3_rewritten``) are not chains: each is a block function of t summed
by ``qproducts.vanishing_sum``, which applies their unit triples, finite
Pochhammer symbols, in one pass per factor.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import partial

from qbailey.bailey import BaileyPair, _binom2, registry_entry
from qbailey.characters import ModuleLabel
from qbailey.lattice import MultisumSpec, Schedule, eval_multisum
from qbailey.laurent import LaurentSeries, monomial, one, zero
from qbailey.qproducts import (
    PochFactor,
    Q_FACTOR,
    SumTerm,
    inv_poch_finite,
    inv_poch_inf,
    term_sum,
    vanishing_sum,
)

_NEG_Q = PochFactor(-1, 1, 1)  # the base of (-q; q)_n


# -- the two collapse lemmas --------------------------------------------------

def lemma_b1bc1(j1: int, j3: int, order: int) -> bool:
    """sum over j1 >= j2 >= j3 of (-1)^{j2+j3} q^{-j2+binom(j2-j3,2)}
    / ((q)_{j1-j2} (q)_{j2-j3})  ==  q^{-j1} * (1, -1, 0) according to
    j1 = j3, j1 = j3 + 1, or otherwise."""
    if not j1 >= j3 >= 0:
        raise ValueError("need j1 >= j3 >= 0")
    lhs = term_sum(
        [(-1 if (j2 + j3) % 2 else 1, -j2 + _binom2(j2 - j3), None,
          ((Q_FACTOR, j1 - j2, -1), (Q_FACTOR, j2 - j3, -1)))
         for j2 in range(j3, j1 + 1)], order)
    if j1 == j3:
        rhs = monomial(1, -j1, order)
    elif j1 == j3 + 1:
        rhs = monomial(-1, -j1, order)
    else:
        rhs = zero(order)
    return lhs.eq_to_order(rhs, order)


def lemma_f2b1(j1: int, j3: int, c: int, order: int) -> bool:
    """sum over j1 >= j2 >= j3 of (-1)^{j2} q^{binom(j1-j2,2)}
    / ((q)_{j1-j2} (q)_{j2-j3} (-q^c;q)_{j2})
    == (-1)^{j3} q^{c(j1-j3) + binom(j1-j3,2) + binom(j1,2) - binom(j3,2)}
    / ((-q^c;q)_{j1} (q)_{j1-j3}).

    At N = j1 - j3 and t = j3 the sides are (-1)^{j1} / (q)_N, a unit,
    times ``_f2b1_lhs(N, t)`` and ``_f2b1_rhs(N, t)``: those are compared.
    ``sum_side`` applies it to a spec's rows (``_collapse_f2b1``)."""
    if not j1 >= j3 >= 0:
        raise ValueError("need j1 >= j3 >= 0")
    return _f2b1_lhs(j1 - j3, j3, c, order).eq_to_order(
        _f2b1_rhs(j1 - j3, j3, c, order), order)


def _f2b1_lhs(nn: int, t: int, c: int, order: int) -> LaurentSeries:
    return term_sum(
        [(-1 if idx % 2 else 1, _binom2(idx), None,
          ((Q_FACTOR, nn, 1), (Q_FACTOR, idx, -1), (Q_FACTOR, nn - idx, -1),
           (PochFactor(-1, c, 1), nn - idx + t, -1)))
         for idx in range(nn + 1)], order)


def _f2b1_rhs(nn: int, t: int, c: int, order: int) -> LaurentSeries:
    return term_sum([(-1 if nn % 2 else 1, c * nn + nn * (nn + t - 1), None,
                      ((PochFactor(-1, c, 1), nn + t, -1),))], order)


def f2b1_recurrence(nn: int, t: int, c: int, order: int) -> bool:
    """Both sides of the finite-sum evaluation satisfy
    f(N+1, t) = f(N, t+1) - q^N f(N, t), with f(0, t) = 1/(-q^c; q)_t.
    That they agree with each other is ``lemma_f2b1``."""
    ok = True
    for g in (_f2b1_lhs, _f2b1_rhs):
        base = g(0, t, c, order)
        ok &= base.eq_to_order(
            inv_poch_finite(PochFactor(-1, c, 1), t, order), order)
        lhs = g(nn + 1, t, c, order)
        rhs = g(nn, t + 1, c, order) - g(nn, t, c, order).shift(nn).truncated(order)
        ok &= lhs.eq_to_order(rhs, min(order, rhs.trunc))
    return ok


# -- simplified printed forms -------------------------------------------------
#
# Most printed forms are chain multisums too: a list of terms (sign, q-shift,
# spec) stands for the sum of sign * q^shift * (the spec's n -> oo sum).  Each
# chain display is one row of ``_DISPLAYS``, transcribed literally: ``shape``,
# the ``_spec`` fields its terms share (variables outermost first), its
# ``terms`` as (sign, q-shift, lin) and, only where the display differs at
# base q^2, ``terms_q2`` for a pair whose registry base is not q.

Term = tuple[int, int, MultisumSpec]


def _spec(pair_id: int, quad: tuple[int, ...], lin: tuple[int, ...],
          **factors) -> MultisumSpec:
    """A display's spec in ``to_dict``'s layout, with nvars = len(quad)
    and every factor not given empty."""
    return MultisumSpec.from_dict({
        "pair": pair_id, "nvars": len(quad), "quad": quad, "lin": lin,
        "self_binoms": (), "link_binoms": (), "signs": (), "numer": (),
        "denom": (), "prefactors": (), **factors})


Display = namedtuple("Display", "shape terms terms_q2", defaults=(None,))

# the skeleton f2b1_double and level4_double share
_DOUBLE = dict(quad=(0, 0), self_binoms=(0,), link_binoms=(0,), signs=(0, 1),
               numer=((1, 1),), denom=((0, 1),))

_DISPLAYS: dict[str, Display] = {
    # sum over j1 >= j3 of (-1)^{j1+j3} q^{binom(j1,2)+binom(j1-j3,2)}
    # (-q)_{j3} / ((q)_{j1-j3} (-q)_{j1}) * beta_{j3}
    "f2b1_double": Display(_DOUBLE, ((1, 0, (0, 0)),)),
    # the two-term collapse of the triple sums: sum over j of
    # q^{j^2-j}(1 - q^{2j}) beta_j (base q) or q^{j^2}(1 - q^{2j+1}) beta_j
    # (base q^2)
    "b1bc1_single": Display(dict(quad=(1,)), ((1, 0, (-1,)), (-1, 0, (1,))),
                            ((1, 0, (0,)), (-1, 1, (2,)))),
    # the collapsed quintuple sums: over j1 >= j4 >= j5 of
    # (-1)^{j4+j5} q^{binom(j4-j5,2)} beta_{j5} / ((q)_{j1-j4} (q)_{j4-j5})
    # times the two-term numerator -q^{j1^2+2j1+1} + q^{j1^2-2j4} (base q)
    # or -q^{j1^2+3j1+3} + q^{j1^2+j1-2j4} (base q^2); the q^{binom(j4-j5,2)}
    # factor survives from the five-fold sum
    "quintuple_triple": Display(
        dict(quad=(1, 0, 0), link_binoms=(1,), signs=(1, 2)),
        ((1, 0, (0, -2, 0)), (-1, 1, (2, 0, 0))),
        ((1, 0, (1, -2, 0)), (-1, 3, (3, 0, 0)))),
    # the once-collapsed form of the five-fold sum at level 4 (pair 1): over
    # j1 >= j2 >= j3 >= j5 of (-1)^{j2+j5} q^E (-q)_{j5} beta_{j5}
    # / ((q)_{j1-j2} (q)_{j2-j3} (q)_{j3-j5} (-q)_{j3}), with exponent
    # E = j1^2 - j3^2 - j2 + binom(j2-j3,2) + binom(j3-j5,2) + binom(j3,2)
    "level4_quadruple": Display(
        dict(quad=(1, 0, -1, 0), self_binoms=(2,), link_binoms=(1, 2),
             signs=(1, 3), numer=((3, 1),), denom=((2, 1),)),
        ((1, 0, (0, -1, 0, 0)),)),
    # the fully collapsed level-4 five-fold sum (pair 1): over j3 >= j5 of
    # (-1)^{j3+j5} q^{binom(j3-j5,2)+binom(j3,2)} (-q^{j3} + q^{-j3})
    # (-q)_{j5} beta_{j5} / ((q)_{j3-j5} (-q)_{j3})
    "level4_double": Display(_DOUBLE, ((-1, 0, (1, 0)), (1, 0, (-1, 0)))),
    # sum_j (-q)_j q^{binom(j,2)} (1 - q^j - q^{2j+1}) / (q^2;q)_{2j}, inside
    # 1/(-q)_inf: the collapsed level-4 second-family triple sum;
    # 1/(q^2;q)_{2j} is beta_j of pair 2
    "lim2_level4_single": Display(
        dict(quad=(0,), self_binoms=(0,), numer=((0, 1),), prefactors=(1,)),
        ((1, 0, (0,)), (-1, 0, (1,)), (-1, 1, (2,)))),
}


def _chain_terms(name: str, pair_id: int) -> list[Term]:
    """The terms of display ``name`` for the pair, at the pair's registry
    base as read when called."""
    shape, terms, terms_q2 = _DISPLAYS[name]
    if terms_q2 is not None and registry_entry(pair_id).base_exp != 1:
        terms = terms_q2
    return [(sign, shift, _spec(pair_id, lin=lin, **shape))
            for sign, shift, lin in terms]


def _spec_form(name: str, pair_id: int, order: int) -> LaurentSeries:
    """The printed chain display ``name`` for the pair, exact to ``order``."""
    return term_sum([(sign, shift, partial(eval_multisum, spec), ())
                     for sign, shift, spec in _chain_terms(name, pair_id)], order)


def _tail_single(pair_id: int, order: int) -> LaurentSeries:
    """The reindexed single sums the two-term collapses reduce to:

      pair 3: sum_j q^{2(j^2+j)} / (q)_{2j+1}
      pair 1: sum_j q^{j^2+j} / (q)_{2j+1}
      pair 5: sum_j q^{j^2+j} (-q^3;q^3)_j / ((q)_{2j+1} (-q)_j)
      pair 4: (1-q) + sum_{j>=1} q^{2j^2} / (q^2;q)_{2j-1}
      pair 2: (1-q) + sum_{j>=1} q^{j^2}  / (q^2;q)_{2j-1}
    """
    def block(j: int) -> list[SumTerm]:
        if pair_id in (4, 2):
            if j == 0:
                return [(1, 0, None, ((Q_FACTOR, 1, 1),))]
            e = 2 * j * j if pair_id == 4 else j * j
            return [(1, e, None, ((PochFactor(1, 2, 1), 2 * j - 1, -1),))]
        units = ((Q_FACTOR, 2 * j + 1, -1),)
        if pair_id == 3:
            return [(1, 2 * (j * j + j), None, units)]
        if pair_id == 5:
            units += ((PochFactor(-1, 3, 3), j, 1), (_NEG_Q, j, -1))
        return [(1, j * j + j, None, units)]

    return vanishing_sum(block, order)


def _level3_rewritten(order: int) -> LaurentSeries:
    """1 + sum_{j>=1} q^{j + binom(j,2)} (1 + q^j) (-q^3; q^3)_{j-1} / (q)_{2j},
    all inside the 1/(-q)_inf prefactor: the rewritten level-3 single sum."""
    def block(j: int) -> list[SumTerm]:
        if j == 0:
            return [(1, 0, None, ())]
        units = ((PochFactor(-1, 3, 3), j - 1, 1), (Q_FACTOR, 2 * j, -1))
        e = j + _binom2(j)
        return [(1, e, None, units), (1, e + j, None, units)]

    total = vanishing_sum(block, order)
    return (total * inv_poch_inf(_NEG_Q, max(order, 0))).truncated(order)


# Every printed form of a cell, least to most reduced, as callables of the
# order.  The spec forms read the registry only when called.
Form = Callable[[int], LaurentSeries]
_SIMPLIFIED: dict[tuple[int, str, int, int], tuple[Form, ...]] = {
    **{(p, "lim3", 1, 1): (partial(_spec_form, "f2b1_double", p),)
       for p in (3, 5, 1)},
    (5, "lim3", 1, 0): (_level3_rewritten,),
    (1, "lim3", 1, 2): (partial(_spec_form, "level4_quadruple", 1),
                        partial(_spec_form, "level4_double", 1)),
    (2, "lim2", 1, 2): (partial(_spec_form, "lim2_level4_single", 2),),
    **{(p, "lim1", 1, 2): (partial(_spec_form, "b1bc1_single", p),
                           partial(_tail_single, p))
       for p in (3, 4, 5, 1, 2)},
    **{(p, "lim1", 1, 3): (partial(_spec_form, "quintuple_triple", p),)
       for p in (5, 1, 2)},
}


def simplified_forms(s: Schedule, order: int) -> list[LaurentSeries]:
    """Every printed simplified version of the schedule's sum-side,
    least to most reduced.  Raises KeyError if none is cataloged."""
    return [form(order) for form in _SIMPLIFIED[(s.pair_id, s.kind, s.k, s.i)]]


# -- the unshifted pair behind registry pair 1 -------------------------------

def slater_a1_pair() -> BaileyPair:
    """The unshifted pair behind registry pair 1 (base a = 1), kept to
    exercise the base shift: alpha'_0 = 1, alpha'_{3t-1} = -q^{6t^2-5t+1},
    alpha'_{3t} = q^{6t^2-t} + q^{6t^2+t}, alpha'_{3t+1} = -q^{6t^2+5t+1},
    with beta_n = 1/(q;q)_{2n}."""

    def alpha(m: int, order: int) -> LaurentSeries:
        if m == 0:
            return one(order) if order >= 0 else zero(order)
        r = m % 3
        if r == 2:
            t = (m + 1) // 3
            e = 6 * t * t - 5 * t + 1
            return monomial(-1, e, max(order, e))
        if r == 0:
            t = m // 3
            e1, e2 = 6 * t * t - t, 6 * t * t + t
            return LaurentSeries({e1: 1, e2: 1}, max(order, e2))
        t = (m - 1) // 3
        e = 6 * t * t + 5 * t + 1
        return monomial(-1, e, max(order, e))

    def beta(n: int, order: int) -> LaurentSeries:
        return inv_poch_finite(Q_FACTOR, 2 * n, order)

    return BaileyPair(0, alpha=alpha, beta=beta)


# -- module labels -----------------------------------------------------------

def labels_at_level(level: int) -> list[ModuleLabel]:
    """All 1 + floor(level/2) labels of the given level."""
    if level < 1:
        raise ValueError("level must be at least 1")
    return [ModuleLabel(level - 2 * s1, s1) for s1 in range(level // 2 + 1)]
