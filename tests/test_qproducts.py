"""Pochhammer products, partition numbers, and the quintuple product identity."""

import pytest

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey.laurent import (InversionError, LaurentSeries,
                             RunawayValuationError, one)
from qbailey.qproducts import (
    DivergentProductError,
    PochFactor,
    Q_FACTOR,
    apply_inf_ratio,
    apply_poch_units,
    binomial_step,
    divide_euler,
    inv_euler,
    inv_poch_finite,
    inv_poch_inf,
    neg_ratio,
    partition_numbers,
    poch_finite,
    poch_inf,
    qtpi_product,
    qtpi_sum,
    running_chain,
    theta_window,
    vanishing_sum,
)
from qbailey.characters import schedule_module
from qbailey.records import catalog_cells
from reference_products import (
    ref_inv_poch_finite,
    ref_inv_poch_inf,
    ref_poch_finite,
    ref_poch_inf,
    ref_qtpi_product,
)


def partitions_by_dp(n_max):
    """Independent oracle: count partitions by bounded-part dynamic programming."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    return ways


def test_poch_finite_empty():
    assert poch_finite(Q_FACTOR, 0, 10) == one(10)


def test_poch_finite_hand_expansion():
    out = poch_finite(Q_FACTOR, 3, 10)
    assert out == LaurentSeries({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}, 10)


def test_poch_finite_minus_one_base():
    # (-1; q)_2 = (1+1)(1+q) = 2 + 2q
    out = poch_finite(PochFactor(-1, 0, 1), 2, 10)
    assert out == LaurentSeries({0: 2, 1: 2}, 10)


def test_poch_inf_pentagonal():
    # Euler: (q;q)_inf = sum (-1)^k q^{k(3k+-1)/2}
    out = poch_inf(Q_FACTOR, 30)
    expected = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= 30:
        sign = -1 if k % 2 else 1
        expected[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 <= 30:
            expected[k * (3 * k + 1) // 2] = sign
        k += 1
    assert out == LaurentSeries(expected, 30)


def test_poch_inf_high_base_is_one():
    assert poch_inf(PochFactor(1, 11, 1), 10) == one(10)


def test_poch_inf_rejects_divergent():
    with pytest.raises(DivergentProductError):
        poch_inf(PochFactor(1, 0, 1), 10)


def test_partition_numbers_against_dp_oracle():
    n = 60
    assert list(partition_numbers(n)) == partitions_by_dp(n)


@given(st.integers(0, 4), st.lists(st.integers(-10**6, 10**6), max_size=60))
@settings(max_examples=120)
def test_divide_euler_undoes_the_euler_product(zeros, tail):
    # the window, empty, of length 1 or led by zeros, divided by (q; q)_inf
    # and multiplied back factor by factor
    a = [0] * zeros + tail
    b = a[:]
    assert divide_euler(b) is b
    apply_poch_units(b, ((Q_FACTOR, len(a), 1),))
    assert b == a


def test_divide_euler_on_a_window_below_q0():
    # the window's start is never read: (q; q)_inf has valuation 0
    rng = random.Random(5)
    lo, top = -9, 60
    a = [rng.randint(-9, 9) for _ in range(top - lo + 1)]
    want = (LaurentSeries.from_window(lo, a, top) * inv_euler(top - lo)).truncated(top)
    assert LaurentSeries.from_window(lo, divide_euler(a), top) == want


def test_inv_euler_first_values():
    got = inv_euler(9)
    assert got.coefficients(0, 9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_inv_euler_matches_generic_inversion():
    N = 60
    assert inv_euler(N).eq_to_order(poch_inf(Q_FACTOR, N).invert(), N)


def test_pochhammer_one_step_extension():
    f = PochFactor(1, 2, 3)
    for n in range(5):
        step = LaurentSeries({0: 1, f.base_exp + n * f.step: -1}, 40)
        lhs = poch_finite(f, n + 1, 40)
        rhs = poch_finite(f, n, 40) * step
        assert lhs.eq_to_order(rhs, 40)


def rr_sum_side(shifted, order):
    """sum q^{n^2} / (q)_n (or q^{n^2+n} with shifted=True), brute force."""
    from qbailey.qproducts import inv_poch_finite

    total = LaurentSeries({}, order)
    n = 0
    while n * n + (n if shifted else 0) <= order:
        e = n * n + (n if shifted else 0)
        total = total + (inv_poch_finite(Q_FACTOR, n, order).shift(e)).truncated(order)
        n += 1
    return total


@pytest.mark.parametrize("shifted,res", [(False, (1, 4)), (True, (2, 3))])
def test_rogers_ramanujan(shifted, res):
    N = 100
    lhs = rr_sum_side(shifted, N)
    rhs = (inv_poch_inf(PochFactor(1, res[0], 5), N)
           * inv_poch_inf(PochFactor(1, res[1], 5), N)).truncated(N)
    assert lhs.eq_to_order(rhs, N), f"Rogers-Ramanujan ({res}) failed"


def test_first_rr_product_coefficients():
    # 1/((q,q^4;q^5)_inf) starts 1,1,1,1,2,2,3,...
    N = 12
    prod = poch_inf(PochFactor(1, 1, 5), N) * poch_inf(PochFactor(1, 4, 5), N)
    got = prod.truncated(N).invert().truncated(N)
    assert got.coefficients(0, 6) == [1, 1, 1, 1, 2, 2, 3]


def test_qtpi_product_zero_factor():
    # v = 0 makes the factor (1 - t^{-1}) vanish identically
    assert qtpi_product(3, 0, 25).is_zero()
    assert qtpi_sum(3, 0, "I", 25).is_zero()


def test_qtpi_form_iii_leading_terms():
    # n = 0 summands of form III: 1 - q^{-v} + q^{2u+3v} - q^{u+2v}
    got = qtpi_sum(7, -1, "III", 4)
    assert got.coefficient(0) == 1
    assert got.coefficient(1) == -1  # -q^{-v} with v = -1


def test_qtpi_forms_agree_spot():
    for (u, v) in [(4, -1), (5, -1), (1, 1), (2, 5), (7, -3), (12, 6), (3, -6)]:
        for order in (-2, 0, 1, 120):
            prod = qtpi_product(u, v, order)
            for form in ("I", "III"):
                s = qtpi_sum(u, v, form, order)
                assert prod.eq_to_order(s, order), \
                    f"QTPI form {form} != product at {(u, v)}, order {order}"


def test_qtpi_product_brute_force_low_terms():
    # multiply the Laurent factors of Q(q^4, q^-1) directly
    u, v, N = 4, -1, 20
    fams = [
        lambda n: u * n,
        lambda n: u * n + v,
        lambda n: u * (n - 1) - v,
        lambda n: (2 * n - 1) * u + 2 * v,
        lambda n: (2 * n - 1) * u - 2 * v,
    ]
    acc = one(N + 2)
    for fam in fams:
        n = 1
        while fam(n) <= N + 1:
            acc = acc * LaurentSeries({0: 1, fam(n): -1}, N + 2)
            n += 1
    assert qtpi_product(u, v, N).eq_to_order(acc, N)


# -- the one-pass products against the schoolbook product -------------------

def test_poch_finite_rejects_a_negative_base():
    # a factor (1 - s q^e) with e < 0 is not a valuation-zero unit
    for order in (-5, 0, 10):
        with pytest.raises(ValueError, match="negative exponent"):
            poch_finite(PochFactor(1, -2, 1), 3, order)


FACTORS = [PochFactor(1, 1, 1), PochFactor(-1, 1, 1), PochFactor(1, 0, 1),
           PochFactor(-1, 0, 3), PochFactor(1, 2, 3), PochFactor(-1, 5, 2),
           PochFactor(1, 31, 1)]


@pytest.mark.parametrize("f", FACTORS)
def test_poch_finite_and_inf_match_schoolbook(f):
    for order in (-2, 0, 1, 10, 33, 70):
        for n in (0, 1, 2, 5, 12, 40):
            assert poch_finite(f, n, order).to_text() == \
                ref_poch_finite(f, n, order).to_text()
        if f.infinite_ok():
            assert poch_inf(f, order).to_text() == ref_poch_inf(f, order).to_text()


def test_qtpi_product_matches_schoolbook():
    for u in range(1, 9):
        for v in range(-12, 13):
            for order in (0, 9, 40):
                assert qtpi_product(u, v, order).to_text() == \
                    ref_qtpi_product(u, v, order).to_text(), (u, v, order)


@pytest.mark.parametrize("order", [-40, -31, -30, -29, -5, 0, 3, 17, 40])
def test_qtpi_product_laurent_factors_match_schoolbook(order):
    # lowest exponents from 0 down to -222, each negative order among
    # them, and products with a factor (1 - q^0)
    for u in range(1, 7):
        for v in range(-12, 13):
            got = qtpi_product(u, v, order)
            assert got.trunc == order
            assert got.to_text() == ref_qtpi_product(u, v, order).to_text(), (u, v)


@pytest.mark.parametrize("u,v", [
    (3, 3), (3, 5), (5, 11), (2, 7),        # v >= u
    (3, -3), (4, -7), (6, -13), (1, -2),    # v <= -u
    (3, 6), (4, -8), (5, 0), (6, 9),        # u | 2v: a factor (1 - q^0)
])
def test_qtpi_product_matches_schoolbook_at_order_400(u, v):
    # the two theta series over (s^2; s^2)_inf against the five families
    got = qtpi_product(u, v, 400)
    assert got.to_text() == ref_qtpi_product(u, v, 400).to_text()
    assert got.is_zero() == (2 * v % u == 0)


@pytest.mark.parametrize("a,b,lo,terms", [
    (3, -1, 0, {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}),  # Euler
    (2, 0, 0, {0: 1, 1: -2, 4: 2, 9: -2, 16: 2}),                   # Gauss
    (2, 4, -1, {-1: -1, 0: 2, 3: -2, 8: 2, 15: -2}),  # n, -2 - n add up
    (2, 2, 0, {}),                                    # n, -1 - n cancel
])
def test_theta_window_spot(a, b, lo, terms):
    got_lo, w = theta_window(a, b, 16)
    assert (got_lo, len(w)) == (lo, 17 - lo)
    assert {lo + i: c for i, c in enumerate(w) if c} == terms
    assert theta_window(a, b, lo - 1) == (lo, [])


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("b", [None, 1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 40, 300])
def test_inf_ratio_matches_the_products_it_replaces(c, b, order):
    # window * (q^c; q)_inf / (-q^b; q)_inf, the window from q^-7, q^0, q^3
    rng = random.Random(c * 1000 + (b or 0) * 100 + order)
    for lo in (-7, 0, 3):
        a = [rng.randint(-9, 9) for _ in range(max(order - lo + 1, 0))]
        if a:
            a[0] = 1
        depth = max(order - lo, 0)
        want = LaurentSeries.from_window(lo, a, order) * poch_inf(PochFactor(1, c, 1), depth)
        if b is not None:
            want = want * inv_poch_inf(PochFactor(-1, b, 1), depth)
        apply_inf_ratio(a, c, b)
        assert LaurentSeries.from_window(lo, a, order) == want.truncated(order), lo


@pytest.mark.parametrize("sign", [1, -1])
def test_binomial_step_divides_by_classes_and_by_blocks(sign):
    # 1/(1 - s q^e) against its recurrence x[i] = a[i] + s x[i-e], on both
    # sides of e^2 = len(a)
    rng = random.Random(sign)
    for n in (1, 8, 9, 10, 50, 120):
        a = [rng.randint(-9, 9) for _ in range(n)]
        for e in range(1, n + 2):
            want = a[:]
            for i in range(e, n):
                want[i] += sign * want[i - e]
            got = a[:]
            binomial_step(got, e, sign, -1)
            assert got == want, (n, e)


def test_catalog_products_match_schoolbook():
    # Q(q^{level+3}, q^{-s1-1}) for every catalog cell to level 31
    seen = set()
    for cell in catalog_cells(31):
        m = schedule_module(*cell)
        key = (m.level + 3, -m.s1 - 1)
        if key in seen:
            continue
        seen.add(key)
        assert qtpi_product(*key, 30).to_text() == \
            ref_qtpi_product(*key, 30).to_text(), key
    assert len(seen) > 100


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_euler_inverse_matches_inversion(b, d):
    # 1/(-q^b; q^d)_inf = (q^b; q^d)_inf / (q^{2b}; q^{2d})_inf, with and
    # without cancelling factors (d | b or not), and 1/(q^b; q^d)_inf
    for sign in (-1, 1):
        f = PochFactor(sign, b, d)
        for order in (-1, 0, 7, 200):
            assert inv_poch_inf(f, order).to_text() == \
                ref_inv_poch_inf(f, order).to_text(), (f, order)


def test_euler_inverse_rejects_what_has_no_integral_inverse():
    with pytest.raises(InversionError):
        inv_poch_inf(PochFactor(-1, 0, 2), 10)
    with pytest.raises(DivergentProductError):
        inv_poch_inf(PochFactor(1, 0, 1), 10)


@pytest.mark.parametrize("f", [f for f in FACTORS if f.base_exp > 0])
def test_inv_poch_finite_matches_inversion(f):
    for order in (-2, 0, 1, 10, 33, 70):
        for n in (0, 1, 2, 5, 12, 40):
            assert inv_poch_finite(f, n, order).to_text() == \
                ref_inv_poch_finite(f, n, order).to_text()


def from_scratch(chain):
    """A ``running_chain`` start: the chain's symbols at index t applied
    to 1 on a window to q^top."""
    def start(t, top):
        a = [1] + [0] * top
        apply_poch_units(a, [(f, mult * t, power) for f, mult, power in chain])
        return a
    return start


def test_running_chain_matches_each_index_from_scratch():
    # rising t at tops that shrink, grow (a restart) and skip an index
    chain = ((PochFactor(-1, 1, 1), 1, 1), (PochFactor(-1, 3, 1), 1, -1),
             (PochFactor(1, 2, 2), 2, -1))
    window = running_chain(chain, from_scratch(chain))
    rng = random.Random(5)
    handed = []
    for t in (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 12):
        for top in sorted(rng.sample(range(-2, 60), 3)):
            a = window(t, top)
            want = [1] + [0] * max(top, 0)
            apply_poch_units(want, [(f, mult * t, p) for f, mult, p in chain])
            assert a[:top + 1] == (want if top >= 0 else []), (t, top)
            handed.append((list(a), a))
    # no window changed after it was handed out
    assert all(copy == a for copy, a in handed)



def test_running_chain_begins_index_1_from_the_symbols():
    # (-1; q)_t has the constant factor 2 from t = 1 on: its product is
    # stepped from 2 (-q; q)_0, and its inverse has no integral expansion
    chain = ((PochFactor(-1, 0, 1), 1, 1),)
    up = running_chain(chain, from_scratch(chain))
    for t in range(6):
        want = [1] + [0] * 30
        apply_poch_units(want, [(PochFactor(-1, 0, 1), t, 1)])
        assert up(t, 30) == want
    chain = ((PochFactor(-1, 0, 1), 1, -1),)
    with pytest.raises(InversionError, match="not unit-leading"):
        running_chain(chain, from_scratch(chain))(1, 5)


@pytest.mark.parametrize("order", [-1, 0, 60])
def test_neg_ratio_of_equal_lengths_in_closed_form(order):
    # (a; q)_{m+n} = (a; q)_m (a q^m; q)_n gives
    # (-q; q)_r / (-q^d; q)_r = (-q; q)_{d-1} / (-q^{r+1}; q)_{d-1}:
    # 2(d - 1) factors whatever r, none at d = 1 and (1 + q) / (1 + q^{r+1})
    # at d = 2
    for d in range(1, 6):
        for r in range(16):
            want = [1] * (order >= 0) + [0] * order
            apply_poch_units(want, neg_ratio(1, d, r, r))
            closed = neg_ratio(1, r + 1, d - 1, d - 1) if d > 1 else ()
            got = [1] * (order >= 0) + [0] * order
            apply_poch_units(got, closed)
            assert got == want, (d, r)
            assert sum(length for _, length, _ in closed) == 2 * (d - 1)
            if d <= 2:
                assert closed in ((), ((PochFactor(-1, 1, 1), 1, 1),
                                       (PochFactor(-1, r + 1, 1), 1, -1)))


def test_vanishing_sum_stops_when_its_shifts_keep_falling():
    # no block ever lies past the order, so none is dead; the runaway floor
    # -500 of order 20 ends the sum at t = 251, before the block function
    # refuses to go on
    def block(t):
        if t > 500:
            raise AssertionError(f"block {t} asked for past the floor")
        return [(1, -2 * t, None, ()), (-1, 3, None, ())]

    with pytest.raises(RunawayValuationError,
                       match="exponent -502 below valuation floor -500"):
        vanishing_sum(block, 20)


def _live_dead_sum(pattern, order=10):
    """vanishing_sum over blocks t whose one term is q^t when pattern[t] is
    "L" (live) and q^{order + 1} when it is "D" (dead), as is every block
    past the pattern."""
    def block(t):
        live = t < len(pattern) and pattern[t] == "L"
        return [(1, t if live else order + 1, None, ())]

    return vanishing_sum(block, order)


def test_vanishing_sum_sums_past_two_dead_blocks():
    assert _live_dead_sum("LDDL") == LaurentSeries({0: 1, 3: 1}, 10)


def test_vanishing_sum_ends_after_three_dead_blocks():
    assert _live_dead_sum("LDDDL") == LaurentSeries({0: 1}, 10)
