"""Pochhammer products, partition numbers, and the quintuple product identity."""

import pytest

from qbailey.laurent import LaurentSeries, one
from qbailey.qproducts import (
    DivergentProductError,
    PochFactor,
    Q_FACTOR,
    _product_of_binomials,
    euler_inf,
    inv_euler,
    inv_poch_inf,
    partition_numbers,
    poch_finite,
    poch_inf,
    qtpi_product,
    qtpi_sum,
)
from qbailey.characters import schedule_module
from qbailey.records import catalog_cells
from reference_products import (
    ref_poch_finite,
    ref_poch_inf,
    ref_qtpi_product,
    schoolbook_binomials,
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
    out = euler_inf(30)
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


def test_inv_euler_first_values():
    got = inv_euler(9)
    assert got.coefficients(0, 9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_inv_euler_matches_generic_inversion():
    N = 60
    assert inv_euler(N).eq_to_order(euler_inf(N).invert(), N)


def test_pochhammer_one_step_extension():
    f = PochFactor(1, 2, 3)
    for n in range(5):
        step = LaurentSeries({0: 1, f.factor_exponent(n): -1}, 40)
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

BINOMIAL_LISTS = [
    [],
    [(1, 1), (2, 1), (3, 1)],
    [(-3, 1), (2, -1), (-1, -1), (5, 1)],       # negative exponents
    [(-7, -1), (-7, 1), (4, 1), (4, 1)],        # repeated factors
    [(0, -1), (3, 1), (-2, 1)],                 # (1 + q^0) doubles
    [(0, -1), (0, -1), (1, -1)],
    [(2, 1), (0, 1), (-4, -1)],                 # (1 - q^0) is zero
    [(1, -1), (45, 1), (60, -1), (-5, 1)],      # factors past the padded order
    [(-30, 1), (1, 1)],                         # starts above small orders
]


@pytest.mark.parametrize("exps", BINOMIAL_LISTS)
def test_product_of_binomials_matches_schoolbook(exps):
    for order in (-40, -31, -30, -29, -5, 0, 3, 17, 40):
        got = _product_of_binomials(exps, order)
        assert got.trunc == order
        assert got.to_text() == schoolbook_binomials(exps, order).to_text()


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
