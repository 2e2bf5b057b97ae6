"""Schedules, closed multisums, alpha-side sums, lemmas, simplified forms."""

import inspect
import json
from functools import partial
from pathlib import Path

import pytest

from qbailey.bailey import Move, _binom2, apply_moves, registry_pair
from qbailey.characters import verify_character_identity
from qbailey.lattice import (
    STEP,
    _collapse_b1bc1,
    _collapse_f2b1,
    Level,
    MultisumSpec,
    Schedule,
    SCHEDULE_TABLE,
    alpha_side,
    build_multisum_spec,
    eval_multisum,
    expand_schedule,
    sum_side,
    sum_side_finite,
    verify_limit_identity,
)
from qbailey.laurent import LaurentSeries, zero
from qbailey.qproducts import (
    PochFactor,
    Q_FACTOR,
    inv_poch_finite,
    inv_poch_inf,
    poch_finite,
    qtpi_product,
    term_sum,
)
from qbailey.records import catalog_cells
from paper_checks import (
    _SIMPLIFIED,
    _chain_terms,
    _f2b1_lhs,
    _f2b1_rhs,
    _spec_form,
    f2b1_recurrence,
    lemma_b1bc1,
    lemma_f2b1,
    simplified_forms,
)
from test_multisum_dp import catalog_specs, form_specs, ref_eval_multisum

_BUNDLED_REGISTRY = (Path(__file__).parent.parent / "src" / "qbailey" / "data"
                     / "bailey_pairs.json")


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
    ((Move.BC1, Move.BC2), r"move BC2 at base q\^1 .* q\^0"),
], ids=["backward-outermost", "self-binomial-minus-one",
        "second-base-change-at-base-q"])
def test_multisum_fold_rejects_words_a_spec_cannot_hold(monkeypatch, word,
                                                         message):
    import qbailey.lattice as lattice

    monkeypatch.setattr(lattice, "expand_schedule", lambda s: list(word))
    with pytest.raises(ValueError, match=message):
        build_multisum_spec(Schedule("lim1", 1, 0, 2))


def test_multisum_fold_follows_a_changed_registry(tmp_path, monkeypatch):
    # the fold is memoized, but on the registry entry too: pair 1 at base
    # q^2 moves the lone variable's linear exponent up by one
    s = Schedule("lim1", 1, 0, 1)
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    bundled = build_multisum_spec(s)
    data = json.loads(_BUNDLED_REGISTRY.read_text())
    data["pairs"][0]["base_exp"] = 2
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    changed = build_multisum_spec(s)
    lone = bundled.levels[0]
    assert changed == bundled._replace(levels=(lone._replace(lin=lone.lin + 1),))
    monkeypatch.delenv("QBAILEY_REGISTRY")
    assert build_multisum_spec(s) == bundled


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
    outer = spec.levels[0]
    bad_spec = spec._replace(
        levels=(outer._replace(lin=outer.lin + 1),) + spec.levels[1:])
    bad = eval_multisum(bad_spec, 40)
    assert not good.eq_to_order(bad, 40)
    lhs = bad * __import__("qbailey.qproducts", fromlist=["poch_inf"]).poch_inf(
        PochFactor(1, 1, 1), 40)
    assert not lhs.eq_to_order(alpha_side(s, 40), 40)


def test_multisum_stabilization_certificate():
    # a margin of five dead blocks must not change the value; the raw folds
    # of the four lim3 schedules have no proved j_1 bound, so only the
    # margin stops them
    for s in (Schedule("lim3", 1, 1, 3), Schedule("lim1", 1, 3, 1),
              Schedule("lim2", 1, 2, 2), Schedule("lim3", 1, 1, 1),
              Schedule("lim3", 1, 1, 5), Schedule("lim3", 1, 2, 1)):
        spec = build_multisum_spec(s)
        assert eval_multisum(spec, 50) == ref_eval_multisum(spec, 50,
                                                            dead_blocks=5)


def test_multisum_spec_round_trip():
    # every catalog cell up to level 31 and every printed form's spec
    specs = catalog_specs(31) + form_specs()
    assert len(specs) == 450 + 25
    for spec in specs:
        assert all(type(lv) is Level for lv in spec.levels)
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
def test_lemma_f2b1_sides_are_the_finite_evaluation_times_a_unit(c):
    # the paper's two sides, summed as stated, are (-1)^{j1} / (q)_N times
    # the finite-sum evaluation's two sides at N = j1 - j3, t = j3
    order = 30
    for j1 in range(8):
        for j3 in range(j1 + 1):
            nn = j1 - j3
            unit = ((Q_FACTOR, nn, -1),)
            sign = -1 if j1 % 2 else 1
            lhs = term_sum(
                [(-1 if j2 % 2 else 1, _binom2(j1 - j2), None,
                  ((Q_FACTOR, j1 - j2, -1), (Q_FACTOR, j2 - j3, -1),
                   (PochFactor(-1, c, 1), j2, -1)))
                 for j2 in range(j3, j1 + 1)], order)
            rhs = term_sum(
                [(-1 if j3 % 2 else 1,
                  c * nn + _binom2(nn) + _binom2(j1) - _binom2(j3), None,
                  ((PochFactor(-1, c, 1), j1, -1), (Q_FACTOR, nn, -1)))], order)
            for stated, g in ((lhs, _f2b1_lhs), (rhs, _f2b1_rhs)):
                side = term_sum([(sign, 0, partial(g, nn, j3, c), unit)], order)
                assert stated == side, (j1, j3, g.__name__)
    with pytest.raises(ValueError, match="j1 >= j3"):
        lemma_f2b1(2, 3, c, order)


def test_verify_functions_take_no_spec():
    # each cell's multisum is the memoized fold's, so no caller passes one
    for fn in (verify_limit_identity, verify_character_identity):
        assert "spec" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("c", [1, 2])
def test_f2b1_recurrence(c):
    for nn in (0, 1, 3, 5):
        for t in (0, 2, 4):
            assert f2b1_recurrence(nn, t, c, 40)


# the cells whose raw fold has no proved j_1 bound: an F2·B1·BC1 word with
# the F2 variable between the B1 link and the BC1 self-binomial
F2B1_CELLS = [Schedule("lim3", 1, 1, p) for p in (1, 3, 5)] + [
    Schedule("lim3", 1, 2, 1)]


def collapsed_catalog(max_level, collapse=_collapse_f2b1):
    """(schedule, spec, collapsed spec) for every catalog cell up to
    ``max_level`` that ``collapse`` changes, in ``sum_side``'s order: lemma
    f2b1 collapses the raw fold, lemma b1bc1 the f2b1 collapse."""
    out = []
    for pid, kind, k, i in catalog_cells(max_level):
        s = Schedule(kind, k, i, pid)
        spec = build_multisum_spec(s)
        if collapse is _collapse_b1bc1:
            spec = _collapse_f2b1(spec)
        new = collapse(spec)
        if new != spec:
            out.append((s, spec, new))
    return out


def test_collapse_f2b1_gives_the_printed_displays():
    # summing the F2 variable out of the raw fold gives the paper's
    # once-collapsed displays, row for row
    double, quadruple = F2B1_CELLS[:3], F2B1_CELLS[3]
    for s in double:
        raw = build_multisum_spec(s)
        assert [(1, 0, _collapse_f2b1(raw))] == _chain_terms("f2b1_double", s.pair_id)
    raw = build_multisum_spec(quadruple)
    assert [(1, 0, _collapse_f2b1(raw))] == _chain_terms("level4_quadruple", 1)


def test_collapse_f2b1_needs_the_whole_pattern():
    # breaking any one condition of the lemma's window leaves the spec as
    # it is, and so does a window cut short at either end
    raw = build_multisum_spec(F2B1_CELLS[1])
    outer, mid, inner = raw.levels
    assert _collapse_f2b1(raw) != raw
    broken = [
        (outer, mid, inner._replace(self_binom=False)),
        (outer._replace(self_binom=True), mid, inner),
        (outer._replace(link=False), mid, inner),
        (outer, mid._replace(lin=1), inner),
        (outer, mid._replace(quad=1), inner),
        (outer, mid._replace(self_binom=True), inner),
        (outer, mid._replace(link=True), inner),
        (outer, mid._replace(sign=False), inner),
        (outer, mid._replace(numer=(1,)), inner),
        (outer, mid._replace(denom=()), inner),
        (outer, mid._replace(denom=(1, 2)), inner),
        (outer, mid),
        (mid, inner),
    ]
    for levels in broken:
        spec = raw._replace(levels=levels)
        assert _collapse_f2b1(spec) == spec, levels


def test_collapse_f2b1_keeps_the_sum():
    # raw and collapsed specs agree, truncation order included, on every
    # changed cell up to level 25 and on the four F2·B1·BC1 cells deep
    cells = collapsed_catalog(25)
    assert len(cells) == 52
    for s, raw, new in cells:
        assert len(new.levels) == len(raw.levels) - 1, s
        for order in range(-30, 41, 5):
            assert eval_multisum(raw, order) == eval_multisum(new, order), (
                s, order)
    for s in F2B1_CELLS:
        raw = build_multisum_spec(s)
        assert eval_multisum(raw, 640) == sum_side(s, 640), s


def test_collapse_f2b1_holds_at_finite_n():
    # the lemma holds for each (j_1, j_3), so it needs no n -> oo limit
    cells = [(s, raw, new) for s, raw, new in collapsed_catalog(25) if s.k <= 2]
    assert len(cells) == 14
    for s, raw, new in cells:
        for n in range(5):
            for order in (20, 40):
                assert (eval_multisum(raw, order, finite_n=n)
                        == eval_multisum(new, order, finite_n=n)), (s, n, order)


def test_collapse_b1bc1_gives_the_printed_single_sums():
    # summing the BC1 variable out of the (p, lim1, 1, 2) triple sums leaves
    # j_1 stepped to j_3: the two-term single sum of the printed display
    for p in (3, 4, 5, 1, 2):
        s = Schedule("lim1", 1, 2, p)
        new = _collapse_b1bc1(_collapse_f2b1(build_multisum_spec(s)))
        assert [lv.link for lv in new.levels] == [STEP, False], s
        assert eval_multisum(new, 200) == _spec_form("b1bc1_single", p, 200), s
        assert sum_side(s, 200) == _spec_form("b1bc1_single", p, 200), s


def test_collapse_b1bc1_needs_the_whole_pattern():
    # breaking any one condition of the lemma's window leaves the spec as
    # it is, and so does a window cut short at either end
    raw = build_multisum_spec(Schedule("lim1", 1, 2, 3))
    outer, mid, inner = raw.levels
    assert _collapse_b1bc1(raw) != raw
    broken = [
        (outer._replace(link=True), mid, inner),
        (outer._replace(link=STEP), mid, inner),
        (outer, mid._replace(numer=(1,)), inner),
        (outer, mid._replace(denom=(1,)), inner),
        (outer, mid._replace(self_binom=True), inner),
        (outer, mid._replace(quad=1), inner),
        (outer, mid._replace(lin=0), inner),
        (outer, mid._replace(sign=False), inner),
        (outer, mid._replace(link=False), inner),
        (outer, mid),
        (mid, inner),
    ]
    for levels in broken:
        spec = raw._replace(levels=levels)
        assert _collapse_b1bc1(spec) == spec, levels


def test_collapse_b1bc1_keeps_the_sum():
    # the f2b1 collapse and its b1bc1 collapse agree, truncation order
    # included, on every changed cell up to level 25, each window one
    # variable fewer
    cells = collapsed_catalog(25, _collapse_b1bc1)
    assert len(cells) == 160
    for s, old, new in cells:
        steps = sum(lv.link == STEP for lv in new.levels)
        assert steps and len(new.levels) == len(old.levels) - steps, s
        for order in range(-30, 41, 5):
            assert eval_multisum(old, order) == eval_multisum(new, order), (
                s, order)


def test_collapse_b1bc1_holds_at_finite_n():
    # the lemma holds for each (j_1, j_3), so it needs no n -> oo limit
    for s, old, new in collapsed_catalog(25, _collapse_b1bc1):
        for n in range(5):
            for order in (20, 40):
                assert (eval_multisum(old, order, finite_n=n)
                        == eval_multisum(new, order, finite_n=n)), (s, n, order)


def test_fold_shares_each_distinct_row():
    # equal rows of different cells are one object, so the memoized folds
    # hold each distinct row once
    rows = [lv for pid, kind, k, i in catalog_cells(31)
            for lv in build_multisum_spec(Schedule(kind, k, i, pid)).levels]
    assert len({id(lv) for lv in rows}) == len(set(rows)) < len(rows)


@pytest.mark.parametrize("k", [1, 2])
def test_remark_relations(k):
    # the cell chain's link 3 ties each base q^2 case display to the
    # unified form
    for pid in (2, 4):
        for i in (0, 1):
            assert verify_character_identity(pid, "lim2", k, i, 50)
            # the (1 + q) factor is a unit
            assert verify_character_identity(pid, "lim2", k, i, 0)


def test_simplified_forms_match_sum_side():
    cases = [(3, "lim3", 1, 1), (5, "lim3", 1, 0), (1, "lim3", 1, 2),
             (2, "lim2", 1, 2), (3, "lim1", 1, 2), (1, "lim1", 1, 3)]
    for pid, kind, k, i in cases:
        s = Schedule(kind, k, i, pid)
        # the raw fold: sum_side already sums some cells as their printed form
        ref = eval_multisum(build_multisum_spec(s), 60)
        for form in simplified_forms(s, 60):
            assert ref.eq_to_order(form, 60), (pid, kind, k, i)


@pytest.mark.parametrize("order", [-1, 0])
def test_simplified_forms_below_order_one(order):
    # the leading (1 - q) and 1 of the single sums and the 1/(-q^b)_inf
    # prefactors must not claim exponents above the order
    for (pid, kind), row in SCHEDULE_TABLE.items():
        for i in range(row.imax(1) + 1):
            s = Schedule(kind, 1, i, pid)
            if (pid, kind, 1, i) in _SIMPLIFIED:
                ref = eval_multisum(build_multisum_spec(s), order)
                assert all(f == ref for f in simplified_forms(s, order)), s


def test_simplified_examples_from_reduced_displays():
    # level 5 third-family reduction: sum q^{2(j^2+j)} / (q)_{2j+1}
    N = 50
    got = simplified_forms(Schedule("lim1", 1, 2, 3), N)[-1]
    ref = zero(N)
    j = 0
    while 2 * (j * j + j) <= N:
        ref = ref + inv_poch_finite(Q_FACTOR, 2 * j + 1, N).shift(
            2 * (j * j + j)).truncated(N)
        j += 1
    assert got == ref
    # level 7 reduction: sum q^{j^2+j} / (q)_{2j+1}
    got = simplified_forms(Schedule("lim1", 1, 2, 1), N)[-1]
    ref = zero(N)
    j = 0
    while j * j + j <= N:
        ref = ref + inv_poch_finite(Q_FACTOR, 2 * j + 1, N).shift(
            j * j + j).truncated(N)
        j += 1
    assert got == ref


def test_simplified_catalog_misses_raise():
    s = Schedule("lim1", 1, 0, 1)
    assert (1, "lim1", 1, 0) not in _SIMPLIFIED
    with pytest.raises(KeyError):
        simplified_forms(s, 40)


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
