"""Ring arithmetic, truncation semantics, and the canonical text form."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey.laurent import (
    KRONECKER_MIN_TERMS,
    InversionError,
    LaurentSeries,
    TruncationError,
    from_text,
    monomial,
    one,
    zero,
)
from qbailey.qproducts import Q_FACTOR, PochFactor, term_sum
from reference_products import ref_compose


def S(terms, trunc):
    return LaurentSeries(terms, trunc)


def test_add_cancellation():
    # (1 - q) + q = 1, truncation preserved
    x = S({0: 1, 1: -1}, 10)
    y = S({1: 1}, 10)
    assert x + y == S({0: 1}, 10)


def test_add_identity():
    x = S({-1: 2, 3: 7}, 12)
    assert x + zero(12) == x


def test_add_hand_expansion():
    # (1 + 2q^2) + (3q^2 - q^5) = 1 + 5q^2 - q^5
    x = S({0: 1, 2: 2}, 9)
    y = S({2: 3, 5: -1}, 9)
    assert x + y == S({0: 1, 2: 5, 5: -1}, 9)


def test_mul_geometric():
    # (1 - q) * sum q^m = 1
    N = 20
    geo = S({m: 1 for m in range(N + 1)}, N)
    out = S({0: 1, 1: -1}, N) * geo
    assert out.eq_to_order(one(N), N)


def test_mul_identity():
    x = S({-2: 3, 0: 1, 4: -1}, 8)
    assert (x * one(8)).eq_to_order(x, x.trunc - 2)  # trunc erodes by val -2
    y = x * one(20)
    assert y.coefficient(-2) == 3 and y.coefficient(4) == -1


def test_mul_hand_expansion():
    # (1-q)(1-q^2)(1-q^3) = 1 - q - q^2 + q^4 + q^5 - q^6
    out = one(10)
    for e in (1, 2, 3):
        out = out * S({0: 1, e: -1}, 10)
    assert out == S({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}, 10)


def test_mul_truncation_is_conservative():
    # q^-1 * (series exact to 10) is only exact to 9
    x = monomial(1, -1, 20)
    y = S({0: 1, 10: 1}, 10)
    assert (x * y).trunc == 9


def test_shift_examples():
    assert monomial(1, 0, 5).shift(3) == monomial(1, 3, 8)
    assert monomial(1, -1, 5).shift(1) == monomial(1, 0, 6)
    assert S({0: 1, 1: 1}, 4).shift(-2) == S({-2: 1, -1: 1}, 2)


def test_invert_geometric():
    inv = S({0: 1, 1: -1}, 4).invert()
    assert inv == S({e: 1 for e in range(5)}, 4)


def test_invert_one():
    assert one(7).invert() == one(7)


def test_invert_rejects_non_unit():
    with pytest.raises(InversionError):
        S({0: 2}, 5).invert()
    with pytest.raises(InversionError):
        zero(5).invert()


def test_invert_negative_leading():
    x = S({0: -1, 1: 1}, 6)
    assert (x * x.invert()).eq_to_order(one(6), 6)


def test_coefficient():
    x = S({0: 1, 2: 5}, 4)
    assert x.coefficient(2) == 5
    assert x.coefficient(1) == 0
    with pytest.raises(TruncationError):
        x.coefficient(5)


def test_eq_to_order():
    x = S({0: 1, 1: -1}, 5)
    assert x.eq_to_order(x, 5)
    assert x.eq_to_order(one(5), 0)
    assert not x.eq_to_order(one(5), 1)
    # terms beyond the comparison order are invisible
    y = S({0: 1, 6: 9}, 6)
    assert one(5).eq_to_order(y, 5)
    with pytest.raises(TruncationError):
        x.eq_to_order(one(5), 6)


def test_construction_rejects_exponent_above_trunc():
    with pytest.raises(TruncationError):
        S({5: 1}, 4)


def test_text_round_trip_spec_example():
    x = S({-1: 1, 0: 2, 3: -5}, 10)
    assert x.to_text() == "trunc=10; -1:1 0:2 3:-5"
    assert from_text(x.to_text()) == x
    assert from_text(zero(3).to_text()) == zero(3)


# -- property tests ----------------------------------------------------------

terms_st = st.dictionaries(st.integers(-6, 14), st.integers(-9, 9), max_size=6)


@st.composite
def series_st(draw):
    terms = draw(terms_st)
    hi = max(terms) if terms else 0
    trunc = hi + draw(st.integers(0, 6))
    return LaurentSeries(terms, trunc)


@st.composite
def unit_series_st(draw):
    """Series whose lowest coefficient is +-1 (invertible)."""
    x = draw(series_st())
    base = x.val()
    if base is None:
        base = x.trunc
    v = min(base, x.trunc) - 1
    lead = monomial(draw(st.sampled_from([1, -1])), v, x.trunc)
    return x + lead


@given(series_st(), series_st())
@settings(max_examples=120)
def test_add_commutes(x, y):
    assert x + y == y + x


@given(series_st(), series_st())
@settings(max_examples=120)
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(series_st(), series_st(), series_st())
@settings(max_examples=80)
def test_mul_associates(x, y, z):
    a = (x * y) * z
    b = x * (y * z)
    n = min(a.trunc, b.trunc)
    assert a.eq_to_order(b, n)


@given(series_st(), series_st(), series_st())
@settings(max_examples=80)
def test_mul_distributes(x, y, z):
    a = x * (y + z)
    b = x * y + x * z
    n = min(a.trunc, b.trunc)
    assert a.eq_to_order(b, n)


@given(unit_series_st())
@settings(max_examples=80)
def test_invert_is_two_sided(x):
    inv = x.invert()
    left = x * inv
    right = inv * x
    n = min(left.trunc, right.trunc)
    assert left.eq_to_order(one(n), n)
    assert right.eq_to_order(one(n), n)


@given(series_st(), st.integers(-20, 20))
@settings(max_examples=120)
def test_shift_round_trip(x, m):
    assert x.shift(m).shift(-m) == x


@given(series_st())
@settings(max_examples=120)
def test_text_round_trip(x):
    assert from_text(x.to_text()) == x


# -- product and inversion kernels against plain references -------------------

def schoolbook(x, y):
    """Reference product: every pair of terms, then the truncation rule."""
    vx = x.val() if x.terms else x.trunc + 1
    vy = y.val() if y.terms else y.trunc + 1
    trunc = min(x.trunc + vy, y.trunc + vx)
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            if e1 + e2 <= trunc:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentSeries(out, trunc)


def dense_inverse(x):
    """Reference inverse: the dense recurrence over every exponent."""
    v = x.val()
    lead = x.terms[v]
    m = x.trunc - v
    u = [0] * (m + 1)
    for e, c in x.terms.items():
        u[e - v] = lead * c
    inv = [1] + [0] * m
    for e in range(1, m + 1):
        inv[e] = -sum(u[d] * inv[e - d] for d in range(1, e + 1))
    return LaurentSeries({e - v: lead * c for e, c in enumerate(inv) if c},
                         x.trunc - 2 * v)


def random_series(rng, n, lo, bits, trunc_slack=0):
    terms = {lo + j: rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
             for j in range(n)}
    return LaurentSeries(terms, lo + n - 1 + trunc_slack)


def assert_mul_matches(x, y):
    ref = schoolbook(x, y)
    assert x * y == ref
    assert y * x == ref


SIZES = [KRONECKER_MIN_TERMS - 1, KRONECKER_MIN_TERMS, KRONECKER_MIN_TERMS + 1,
         3 * KRONECKER_MIN_TERMS, 200]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bits", [1, 20, 64, 130])
def test_mul_kernel_matches_schoolbook(n, bits):
    rng = random.Random(n * 1000 + bits)
    for lo_x, lo_y in [(0, 0), (-17, 3), (-5, -40)]:
        x = random_series(rng, n, lo_x, bits, trunc_slack=rng.randint(0, 9))
        y = random_series(rng, n + rng.randint(0, 30), lo_y, bits)
        assert_mul_matches(x, y)


@pytest.mark.parametrize("n", SIZES)
def test_mul_kernel_mixed_sizes_and_sparsity(n):
    rng = random.Random(n)
    short = random_series(rng, KRONECKER_MIN_TERMS - 1, -3, 100)
    long = random_series(rng, n, 2, 100)
    assert_mul_matches(short, long)
    # sparse operand spread far beyond its term count
    sparse = LaurentSeries({7 * j - 11: rng.randint(-2 ** 110, 2 ** 110) or 1
                            for j in range(n)}, 7 * n)
    assert_mul_matches(sparse, long)
    assert_mul_matches(sparse, sparse)


@pytest.mark.parametrize("n", SIZES)
def test_mul_kernel_extreme_coefficients_of_one_sign(n):
    # the coefficient at the truncation order equals the bound the digit
    # width is chosen from
    for big in (2 ** 8 - 1, 2 ** 64, 2 ** 127 + 1):
        for sign in (1, -1):
            x = LaurentSeries({e: sign * big for e in range(-2, n - 2)}, n - 3)
            assert_mul_matches(x, x)
            assert_mul_matches(x, -x)


@pytest.mark.parametrize("n", SIZES)
def test_mul_kernel_truncation_cuts_the_product(n):
    rng = random.Random(7 * n)
    # x is known far beyond its terms, y only to its last term, so the
    # product is known to about n of its 2n exponents
    x = random_series(rng, n, -4, 100, trunc_slack=50)
    y = random_series(rng, n, 1, 100)
    for order in (y.trunc, y.trunc - 3, 1 + n // 2):
        cut = y.truncated(order)
        assert (x * cut).trunc == order + x.val()
        assert_mul_matches(x, cut)


@pytest.mark.parametrize("n", SIZES)
def test_mul_kernel_cancellation_and_zero(n):
    rng = random.Random(3 * n)
    # x * x^-1 cancels to 1 at every exponent but the first
    x = random_series(rng, n, 0, 100)
    x = LaurentSeries({**x.terms, 0: 1}, x.trunc)
    inv = x.invert()
    prod = x * inv
    assert prod == schoolbook(x, inv)
    assert prod.eq_to_order(one(prod.trunc), prod.trunc)
    # x * y + x * (-y) cancels to zero term by term
    y = random_series(rng, n, -6, 130)
    assert x * y + x * (-y) == zero(min(x.trunc + y.val(), y.trunc))
    assert_mul_matches(zero(40), y)
    assert_mul_matches(x, zero(x.trunc))


@given(st.integers(KRONECKER_MIN_TERMS - 4, 3 * KRONECKER_MIN_TERMS),
       st.integers(KRONECKER_MIN_TERMS - 4, 3 * KRONECKER_MIN_TERMS),
       st.integers(-30, 30), st.integers(-30, 30),
       st.integers(0, 140), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_mul_kernel_property(nx, ny, lo_x, lo_y, bits, seed):
    rng = random.Random(seed)
    x = random_series(rng, nx, lo_x, bits, trunc_slack=rng.randint(0, 20))
    y = random_series(rng, ny, lo_y, bits, trunc_slack=rng.randint(0, 20))
    assert_mul_matches(x, y)


def test_invert_sparse_pochhammer():
    # (q;q)_40 to order 120: 69 nonzero terms among 121 exponents
    N = 120
    x = one(N)
    for t in range(1, 41):
        x = x * LaurentSeries({0: 1, t: -1}, N)
    assert len(x.terms) == 69
    inv = x.invert()
    assert inv == dense_inverse(x)
    assert (x * inv).eq_to_order(one(inv.trunc), inv.trunc)
    # shifted and negated: valuation and leading sign move the truncation
    y = -x.shift(-3)
    prod = y * y.invert()
    assert y.invert() == dense_inverse(y)
    assert prod.trunc == N and prod.eq_to_order(one(N), N)


# -- windows and the term accumulator ----------------------------------------

@given(series_st(), st.integers(-30, 30))
@settings(max_examples=120)
def test_window_round_trip(x, top):
    top = min(top, x.trunc)
    lo, a = x.window(top)
    assert lo + len(a) - 1 == top
    assert LaurentSeries.from_window(lo, a, top) == x.truncated(top)
    if a:
        assert lo == x.val() and a[0] != 0


def test_window_edges():
    assert zero(7).window(7) == (8, [])
    assert zero(-3).window(-5) == (-4, [])
    x = S({3: 1, 5: -2}, 10)
    assert x.window(2) == (3, [])  # top below the valuation
    assert x.window(3) == (3, [1])
    assert x.window(6) == (3, [1, 0, -2, 0])
    with pytest.raises(TruncationError):
        x.window(11)
    assert LaurentSeries.from_window(-2, [0, 4, 0], 0) == S({-1: 4}, 0)
    assert LaurentSeries.from_window(5, [], 4) == zero(4)


UNIT_BASES = [Q_FACTOR, PochFactor(-1, 1, 1), PochFactor(1, 2, 3),
              PochFactor(-1, 3, 2)]


def random_term(rng):
    """(sign, shift, parent, units) with a scalar sign, a parent of 1 or of
    negative valuation, and up to three units of either power."""
    sign = rng.choice((1, -1, 2, -3))
    shift = rng.randint(-8, 12)
    units = tuple((rng.choice(UNIT_BASES), rng.randint(0, 5), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.3:
        return sign, shift, None, units
    lo = rng.randint(-10, 6)
    parent = S({lo + j: rng.randint(-9, 9) for j in range(rng.randint(0, 8))}, 60)
    return sign, shift, lambda o: parent, units


def _unit_parent(o):
    return one(o) if o >= 0 else zero(o)


def test_term_sum_matches_ref_compose_pieces():
    for seed in range(20):
        rng = random.Random(seed)
        terms = [random_term(rng) for _ in range(rng.randint(0, 6))]
        for order in (-5, 0, 7, 30):
            want = zero(order)
            for sign, shift, parent, units in terms:
                want = want + ref_compose(order, shift, parent or _unit_parent,
                                          *units) * sign
            assert term_sum(terms, order).to_text() == want.to_text(), (seed, order)


def test_term_sum_requests_each_parent_once_and_rejects_a_short_one():
    asked = []
    parent = S({-2: 1, 0: 3}, 40)
    got = term_sum([(1, 3, lambda o: asked.append(o) or parent, ()),
                    (-1, 0, None, ((Q_FACTOR, 2, -1),))], 10)
    assert asked == [7]
    # q + 3 q^3 minus the partitions into parts 1 and 2
    assert got.to_text() == "trunc=10; 0:-1 2:-2 3:1 4:-3 5:-3 6:-4 7:-4 8:-5 " \
                            "9:-5 10:-6"
    short = S({0: 1}, 5)
    with pytest.raises(AssertionError, match="truncation underflow"):
        term_sum([(1, 0, None, ()), (1, 2, lambda o: short, ())], 10)
