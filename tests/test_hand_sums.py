"""The hand-summed series of ``lattice`` against an independent oracle.

The oracle transcribes each displayed summand as terms (sign, exponent,
Pochhammer symbols), builds every symbol as a series from
``reference_products`` (schoolbook products, and ``invert`` for the
denominators) and sums a fixed range of t with no stopping rule.  The
library applies the same symbols by one-pass steps and stops by its own
rule, so agreement pins both, coefficient by coefficient.
"""

from functools import lru_cache

import pytest

from qbailey.bailey import registry_entry
from qbailey.lattice import (
    SCHEDULE_TABLE,
    Schedule,
    alpha_side,
)
from qbailey.laurent import monomial, one, zero
from qbailey.qproducts import PochFactor, Q_FACTOR, vanishing_sum
from paper_checks import _level3_rewritten, _tail_single
from reference_products import ref_inv_poch_finite, ref_inv_poch_inf, ref_poch_finite

ORDERS = [-3, 0, 1, 8, 17, 60]
T = 24    # blocks summed by the oracle, t = 0 .. T-1, whatever the order
PAD = 40  # the symbols are built this far past the order, for negative shifts


def neg(b, n, power=1):
    """(-q^b; q)_n to the power +-1, as (base, length, power)."""
    return (PochFactor(-1, b, 1), n, power)


@lru_cache(maxsize=None)
def ref_units(units, depth):
    acc = one(depth)
    for f, length, power in units:
        build = ref_poch_finite if power == 1 else ref_inv_poch_finite
        acc = acc * build(f, length, depth)
    return acc.truncated(depth)


def ref_sum(block, order):
    """sum over t < T of the terms block(t), by series products."""
    total = zero(order)
    for t in range(T):
        for sign, shift, units in block(t):
            assert shift >= -PAD
            if t >= T - 4:
                assert shift > order, "the oracle's range is too short"
            if shift <= order:
                prod = ref_units(tuple(units), order + PAD)
                total = total + (monomial(sign, shift, order) * prod).truncated(order)
    return total


def ref_alpha_block(s, unified):
    """The displayed alpha-side summand at t, alpha~ included."""
    c, k, i = s.base_exp, s.k, s.i
    tilde = registry_entry(s.pair_id).alpha_tilde_monomial

    def block(t):
        # (sign, exponent, alpha~ index, symbols) before alpha~ is applied
        if s.kind == "lim1":
            e = c * k * t + k * t * t - i * t
            pieces = [(1, e, t, []), (-1, e + (c + 2 * t) * (i + 1), t, [])]
        elif s.kind == "lim3":
            e = c * k * t + k * t * t - i * t - t * (t + 1) // 2
            r = [neg(1, t), neg(c, t, -1)]
            pieces = [(1, e, t, r), (-1, e + (c + 2 * t) * (i + 1), t, r)]
        elif unified or i >= 2:
            e = c * k * t + k * t * t - i * t - t * (t + 1) // 2
            r = [neg(1, t), neg(c - 1, t, -1)]
            extra = r + [neg(t + 1, 1), neg(c + t - 1, 1, -1)]
            pieces = [(1, e, t, r),
                      (-1, e + c * (i + 1) + t - 1 + 2 * i * t, t, extra)]
        elif i == 0:
            e = c * k * t + (k - 1) * t * t + t * (t - 1) // 2
            r = [neg(1, t), neg(c, t, -1)]
            pieces = [(1, e, t, r), (-1, e + c + 2 * t, t, r)]
        elif t == 0:
            pieces = [(1, 0, 0, [])]
        else:
            head = c * t + t * (t - 1) // 2 - t
            r = [neg(1, t), neg(c - 1, t, -1)]
            u = t - 1
            pieces = [(1, head + c * (k - 1) * t + (k - 1) * t * t, t, r),
                      (-1, head + c * (k - 1) * u + (k - 1) * u * u + c + 2 * u,
                       u, r)]
        out = []
        for sign, e, m, units in pieces:
            mono = tilde(m)
            if mono is not None:
                out.append((sign * mono[0], e + mono[1], units))
        return out

    return block


def ref_tail_block(pair_id):
    def block(j):
        if pair_id in (4, 2):
            if j == 0:
                return [(1, 0, [(Q_FACTOR, 1, 1)])]  # the leading (1 - q)
            e = 2 * j * j if pair_id == 4 else j * j
            return [(1, e, [(PochFactor(1, 2, 1), 2 * j - 1, -1)])]
        q_odd = (Q_FACTOR, 2 * j + 1, -1)
        if pair_id == 3:
            return [(1, 2 * j * j + 2 * j, [q_odd])]
        if pair_id == 1:
            return [(1, j * j + j, [q_odd])]
        return [(1, j * j + j, [(PochFactor(-1, 3, 3), j, 1), q_odd, neg(1, j, -1)])]

    return block


def level3_block(j):
    if j == 0:
        return [(1, 0, [])]
    units = [(PochFactor(-1, 3, 3), j - 1, 1), (Q_FACTOR, 2 * j, -1)]
    e = j + j * (j - 1) // 2
    return [(1, e, units), (1, e + j, units)]


class AtBase3(Schedule):
    """A schedule read at base q^3.  The displays hold at any base a = q^c,
    and at the registry's lim2 base, c = 2, the factor
    (1 + q^{t+1}) / (1 + q^{c+t-1}) of the unified form is 1."""

    @property
    def base_exp(self):
        return 3


def schedules(kmax=3):
    for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
        for k in range(1, kmax + 1):
            for i in range(row.imax(k) + 1):
                yield Schedule(kind, k, i, pid)
                if kind == "lim2":
                    yield AtBase3(kind, k, i, pid)


@pytest.mark.parametrize("order", ORDERS)
def test_alpha_sides_match_oracle(order):
    for s in schedules(kmax=5):
        for unified in (False, True):
            want = ref_sum(ref_alpha_block(s, unified), order)
            got = alpha_side(s, order, unified=unified)
            assert got.to_text() == want.to_text(), (s, unified)


@pytest.mark.parametrize("order", ORDERS)
def test_single_sums_match_oracle(order):
    for pid in (1, 2, 3, 4, 5):
        want = ref_sum(ref_tail_block(pid), order)
        assert _tail_single(pid, order).to_text() == want.to_text(), pid
    inside = ref_sum(level3_block, order)
    want = (inside * ref_inv_poch_inf(PochFactor(-1, 1, 1), order + PAD)).truncated(order)
    assert _level3_rewritten(order).to_text() == want.to_text()


@pytest.mark.parametrize("unified", [False, True])
def test_closed_form_ratio_matches_the_per_t_units(unified):
    # the library applies each ratio (-q; q)_r / (-q^d; q)_r as its closed
    # form (-q; q)_{d-1} / (-q^{r+1}; q)_{d-1}; the same summands with all
    # 2t factors of (-q; q)_t / (-q^d; q)_t applied at every t, by the same
    # one-pass steps, must give the same series
    order = 150
    for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
        for k in (1, 2, 3):
            for i in range(row.imax(k) + 1):
                s = Schedule(kind, k, i, pid)
                block = ref_alpha_block(s, unified)
                per_t = vanishing_sum(
                    lambda t: [(sign, e, None, tuple(units))
                               for sign, e, units in block(t)], order)
                got = alpha_side(s, order, unified=unified)
                assert got.to_text() == per_t.to_text(), (s, unified)
