"""Schedules, closed multisums, alpha-side sums, lemmas, simplified forms."""

from dataclasses import replace

import pytest

from qbailey.bailey import Move, apply_moves, registry_pair
from qbailey.lattice import (
    MultisumSpec,
    Schedule,
    SCHEDULE_TABLE,
    alpha_side,
    build_multisum_spec,
    eval_multisum,
    expand_schedule,
    f2b1_recurrence,
    has_simplified_form,
    lemma_b1bc1,
    lemma_f2b1,
    simplified_forms,
    simplified_sum_side,
    sum_side,
    sum_side_finite,
    verify_limit_identity,
    verify_remark_relations,
)
from qbailey.laurent import LaurentSeries, zero
from qbailey.qproducts import (
    PochFactor,
    Q_FACTOR,
    inv_poch_finite,
    inv_poch_inf,
    poch_finite,
    qtpi_product,
)


def test_expand_schedule_examples():
    assert expand_schedule(Schedule("lim1", 1, 0, 1)) == [Move.F1]
    assert expand_schedule(Schedule("lim1", 1, 2, 1)) == [Move.B1, Move.BC1, Move.F1]
    assert expand_schedule(Schedule("lim3", 1, 1, 1)) == [Move.F2, Move.B1, Move.BC1]
    assert expand_schedule(Schedule("lim2", 1, 0, 2)) == [Move.F2]
    assert expand_schedule(Schedule("lim2", 1, 1, 4)) == [Move.BC2]
    assert expand_schedule(Schedule("lim2", 2, 2, 2)) == [Move.BC1, Move.F2]


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("lim2", 1, 0, 1)  # pair 1 never uses the second family
    with pytest.raises(ValueError):
        Schedule("lim1", 1, 4, 1)  # i exceeds 3k
    with pytest.raises(ValueError):
        Schedule("lim1", 0, 0, 1)
    with pytest.raises(ValueError):
        Schedule("limX", 1, 0, 1)


def test_sum_side_level7_first():
    # sum q^{j + j^2} / (q)_{2j}
    N = 40
    got = sum_side(Schedule("lim1", 1, 0, 1), N)
    ref = zero(N)
    j = 0
    while j + j * j <= N:
        ref = ref + inv_poch_finite(Q_FACTOR, 2 * j, N).shift(j + j * j).truncated(N)
        j += 1
    assert got == ref


def test_sum_side_level2_first():
    # (1/(-q)_inf) sum q^{j + binom(j,2)} (-q)_j q^{j^2-j} / (q)_{2j}
    N = 40
    got = sum_side(Schedule("lim3", 1, 0, 3), N)
    ref = zero(N)
    j = 0
    while j * j + (j * (j - 1)) // 2 <= N:
        e = j + j * (j - 1) // 2 + j * j - j
        piece = (poch_finite(PochFactor(-1, 1, 1), j, N)
                 * inv_poch_finite(Q_FACTOR, 2 * j, N))
        ref = ref + piece.shift(e).truncated(N)
        j += 1
    ref = (ref * inv_poch_inf(PochFactor(-1, 1, 1), N)).truncated(N)
    assert got == ref


def test_sum_side_constant_term_is_one():
    # the empty summand contributes exactly beta_0 = 1 (times a constant-1
    # prefactor), for every family
    for (pid, kind) in SCHEDULE_TABLE:
        s = Schedule(kind, 1, 0, pid)
        assert sum_side(s, 10).coefficient(0) == 1


def test_alpha_side_t0_term():
    # the t = 0 summand of the first family's limit sum is 1 - q^{c(i+1)};
    # its two coefficients are not disturbed by any t >= 1 summand here
    for pid, c in ((1, 1), (2, 2)):
        for i in (0, 1, 2):
            a = alpha_side(Schedule("lim1", 1, i, pid), 20)
            assert a.coefficient(0) == 1
            assert a.coefficient(c * (i + 1)) == -1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_limit_identity_all_rows(k):
    for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
        for i in range(row.imax(k) + 1):
            s = Schedule(kind, k, i, pid)
            assert verify_limit_identity(s, 40), (pid, kind, k, i)


@pytest.mark.parametrize("order", [-3, -2, -1, 0, 1])
def test_limit_identity_below_order_two(order):
    for s in (Schedule("lim1", 1, 0, 1), Schedule("lim1", 1, 3, 1),
              Schedule("lim2", 1, 0, 2), Schedule("lim2", 2, 3, 4),
              Schedule("lim3", 2, 1, 3)):
        assert verify_limit_identity(s, order), s


# Move words no schedule produces: B2, and F2 or BC2 away from the outside.
_OFF_TABLE_WORDS = [
    (Move.B2, Move.F2), (Move.F2, Move.F2), (Move.F2, Move.B2, Move.F2),
    (Move.B1, Move.BC2), (Move.F2, Move.B1, Move.BC2),
    (Move.F1, Move.B2, Move.F2, Move.F1), (Move.B1, Move.B1, Move.F1),
]


@pytest.mark.parametrize("word", _OFF_TABLE_WORDS,
                         ids=lambda w: "-".join(m.value for m in w))
def test_multisum_fold_matches_move_engine_off_table(monkeypatch, word):
    # the fold reads every row of the move table, not only the rows the
    # schedules use; base q^2, since BC2 at base q divides by (-1; q)_n
    import qbailey.lattice as lattice

    monkeypatch.setattr(lattice, "expand_schedule", lambda s: list(word))
    for pid in (2, 4):
        s = Schedule("lim1", 1, 0, pid)
        moved = apply_moves(registry_pair(pid), word)
        for n in range(5):
            assert sum_side_finite(s, n, 30).eq_to_order(
                moved.beta(n, 30), 30), (pid, n)


@pytest.mark.parametrize("word,message", [
    ((Move.F1, Move.B2), "backward move cannot be outermost"),
    ((Move.B2, Move.F1), "self-binomial"),
], ids=["backward-outermost", "self-binomial-minus-one"])
def test_multisum_fold_rejects_words_a_spec_cannot_hold(monkeypatch, word,
                                                         message):
    import qbailey.lattice as lattice

    monkeypatch.setattr(lattice, "expand_schedule", lambda s: list(word))
    with pytest.raises(ValueError, match=message):
        build_multisum_spec(Schedule("lim1", 1, 0, 2))


def test_limit_identity_matches_printed_normalization():
    # pair 4 second-family i=0 at level 2 carries the (1-q^2) constant
    from qbailey.characters import char_product, ModuleLabel

    s = Schedule("lim2", 1, 0, 4)
    S = sum_side(s, 40)
    char = char_product(ModuleLabel(0, 1), 40)
    norm = LaurentSeries({0: 1, 2: -1}, 40)  # 1 - q^2
    assert S.eq_to_order((char * norm).truncated(40), 40)


def test_multisum_negative_control():
    # perturbing one exponent coefficient breaks the limit identity
    s = Schedule("lim1", 1, 1, 1)
    spec = build_multisum_spec(s)
    good = eval_multisum(spec, 40)
    bad_spec = replace(spec, lin=(spec.lin[0] + 1,) + spec.lin[1:])
    bad = eval_multisum(bad_spec, 40)
    assert not good.eq_to_order(bad, 40)
    lhs = bad * __import__("qbailey.qproducts", fromlist=["poch_inf"]).poch_inf(
        PochFactor(1, 1, 1), 40)
    assert not lhs.eq_to_order(alpha_side(s, 40), 40)


def test_multisum_stabilization_certificate():
    # raising the block cap must not change the value (margin certificate)
    for s in (Schedule("lim3", 1, 1, 3), Schedule("lim1", 1, 3, 1),
              Schedule("lim2", 1, 2, 2)):
        assert sum_side(s, 50) == sum_side(s, 50, extra_dead=2)


def test_multisum_spec_round_trip():
    for s in (Schedule("lim1", 2, 5, 1), Schedule("lim3", 1, 1, 5),
              Schedule("lim2", 2, 3, 4)):
        spec = build_multisum_spec(s)
        assert MultisumSpec.from_dict(spec.to_dict()) == spec


def test_finite_n_cross_validation_k1():
    # the composed move word and the closed multisum give the same finite
    # beta sequence
    for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
        for i in range(row.imax(1) + 1):
            s = Schedule(kind, 1, i, pid)
            moved = apply_moves(registry_pair(pid), expand_schedule(s))
            for n in (0, 1, 3):
                assert sum_side_finite(s, n, 40).eq_to_order(
                    moved.beta(n, 40), 40), (pid, kind, i, n)


def test_lemma_b1bc1_cases():
    assert lemma_b1bc1(4, 4, 50)     # equal indices: q^{-j1} * 1
    assert lemma_b1bc1(5, 4, 50)     # adjacent: q^{-j1} * (-1)
    assert lemma_b1bc1(6, 4, 50)     # otherwise zero
    for j3 in range(7):
        for j1 in range(j3, 7):
            assert lemma_b1bc1(j1, j3, 50)


@pytest.mark.parametrize("c", [1, 2])
def test_lemma_f2b1(c):
    for j3 in range(6):
        for j1 in range(j3, 6):
            assert lemma_f2b1(j1, j3, c, 50)


@pytest.mark.parametrize("c", [1, 2])
def test_f2b1_recurrence(c):
    for nn in (0, 1, 3, 5):
        for t in (0, 2, 4):
            assert f2b1_recurrence(nn, t, c, 40)


@pytest.mark.parametrize("k", [1, 2])
def test_remark_relations(k):
    assert verify_remark_relations(k, 50)
    assert verify_remark_relations(k, 0)  # the (1 + q) factor is a unit


def test_simplified_forms_match_sum_side():
    cases = [(3, "lim3", 1, 1), (5, "lim3", 1, 0), (1, "lim3", 1, 2),
             (2, "lim2", 1, 2), (3, "lim1", 1, 2), (1, "lim1", 1, 3)]
    for pid, kind, k, i in cases:
        s = Schedule(kind, k, i, pid)
        ref = sum_side(s, 60)
        for form in simplified_forms(s, 60):
            assert ref.eq_to_order(form, 60), (pid, kind, k, i)


@pytest.mark.parametrize("order", [-1, 0])
def test_simplified_forms_below_order_one(order):
    # the leading (1 - q) and 1 of the single sums and the 1/(-q^b)_inf
    # prefactors must not claim exponents above the order
    for (pid, kind), row in SCHEDULE_TABLE.items():
        for i in range(row.imax(1) + 1):
            s = Schedule(kind, 1, i, pid)
            if has_simplified_form(s):
                ref = sum_side(s, order)
                assert all(f == ref for f in simplified_forms(s, order)), s


def test_simplified_examples_from_reduced_displays():
    # level 5 third-family reduction: sum q^{2(j^2+j)} / (q)_{2j+1}
    N = 50
    got = simplified_sum_side(Schedule("lim1", 1, 2, 3), N)
    ref = zero(N)
    j = 0
    while 2 * (j * j + j) <= N:
        ref = ref + inv_poch_finite(Q_FACTOR, 2 * j + 1, N).shift(
            2 * (j * j + j)).truncated(N)
        j += 1
    assert got == ref
    # level 7 reduction: sum q^{j^2+j} / (q)_{2j+1}
    got = simplified_sum_side(Schedule("lim1", 1, 2, 1), N)
    ref = zero(N)
    j = 0
    while j * j + j <= N:
        ref = ref + inv_poch_finite(Q_FACTOR, 2 * j + 1, N).shift(
            j * j + j).truncated(N)
        j += 1
    assert got == ref


def test_simplified_catalog_misses_raise():
    s = Schedule("lim1", 1, 0, 1)
    assert not has_simplified_form(s)
    with pytest.raises(KeyError):
        simplified_sum_side(s, 40)


def test_alpha_side_i_gt_k_is_quintuple_product():
    # pair 1 first family: the limit sum collapses to Q(q^{6k+4}, q^{-i-1})
    for (k, i) in ((1, 2), (1, 3), (2, 5)):
        s = Schedule("lim1", k, i, 1)
        got = alpha_side(s, 60)
        assert got.eq_to_order(qtpi_product(6 * k + 4, -i - 1, 60), 60)
    # pair 2 first family: Q(q^{6k+4}, q^{-3k+i-1})
    for (k, i) in ((1, 0), (1, 3), (2, 4)):
        s = Schedule("lim1", k, i, 2)
        got = alpha_side(s, 60)
        assert got.eq_to_order(qtpi_product(6 * k + 4, i - 3 * k - 1, 60), 60)
