"""Acceptance suite: every criterion at its stated order, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they complete.  Every tolerance here is a truncation order for
exact coefficientwise equality; nothing is approximate.
"""

from qbailey.bailey import (
    BaileyPair,
    Move,
    apply_moves,
    base_shift,
    beta_from_spec,
    registry_entry,
    registry_pair,
    verify_pair,
)
from qbailey.characters import (
    char_product,
    char_qtpi,
    normalization_poly,
    schedule_module,
    verify_character_identity,
)
from qbailey.lattice import (
    Schedule,
    SCHEDULE_TABLE,
    alpha_side,
    build_multisum_spec,
    eval_multisum,
    expand_schedule,
    sum_side,
    sum_side_finite,
)
from qbailey.laurent import monomial, zero
from qbailey.qproducts import (
    PochFactor,
    Q_FACTOR,
    inv_poch_finite,
    inv_poch_inf,
    poch_inf,
    qtpi_product,
    qtpi_sum,
)
from paper_checks import (
    _SIMPLIFIED,
    f2b1_recurrence,
    labels_at_level,
    lemma_b1bc1,
    lemma_f2b1,
    simplified_forms,
    slater_a1_pair,
)


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_registry_validity():
    ok = True
    for pid in range(1, 6):
        ok &= all(verify_pair(registry_pair(pid), 12, 60))
    report(1, ok, "all five registry pairs satisfy the defining relation "
                  "for n <= 12 at order 60")


def test_criterion_2_base_shift_reconstruction():
    a1 = slater_a1_pair()
    shifted = base_shift(a1.alpha, a1.beta, 0)
    entry = registry_entry(1)
    N = 80
    ok = True
    for n in range(16):
        got = shifted.alpha_tilde(n, N)
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            ok &= got.is_zero()
        else:
            sign, e = mono
            expected = monomial(sign, e, max(N, e))
            ok &= got.eq_to_order(expected, N)
    report(2, ok, "base-shifting the printed unshifted pair reproduces the "
                  "registry pair-1 alpha~ for n <= 15")


def test_criterion_3_level_2_to_7_displays():
    ok = True
    count = 0
    for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
        for i in range(row.imax(1) + 1):
            s = Schedule(kind, 1, i, pid)
            ok &= verify_character_identity(pid, kind, 1, i, 80)
            # the printed normalization emerges from the canonical chain
            m = schedule_module(pid, kind, 1, i)
            norm = normalization_poly(s, 80)
            lhs = sum_side(s, 80)
            rhs = (char_product(m, 80) * norm).truncated(80)
            ok &= lhs.eq_to_order(rhs, 80)
            count += 1
    for (pid, kind, k, i) in sorted(_SIMPLIFIED):
        s = Schedule(kind, k, i, pid)
        # the raw fold, not sum_side, which sums some cells as printed
        ref = eval_multisum(build_multisum_spec(s), 80)
        for form in simplified_forms(s, 80):
            ok &= ref.eq_to_order(form, 80)
            count += 1
    report(3, ok, f"all {count} level 2..7 displays (sum sides, printed "
                  "normalizations, and simplified forms) verify at order 80")


def test_criterion_4_table_sweep_k_1_2_3():
    ok = True
    cells = 0
    levels = set()
    for k in (1, 2, 3):
        for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
            for i in range(row.imax(k) + 1):
                ok &= verify_character_identity(pid, kind, k, i, 40)
                levels.add(row.level(k))
                cells += 1
    ok &= levels == set(range(2, 20))
    report(4, ok, f"full chain holds for all {cells} cells with k in "
                  "{1,2,3} (levels 2..19) at order 40")


def test_criterion_5_qtpi_forms():
    ok = True
    for u in range(1, 13):
        for v in range(-6, 7):
            prod = qtpi_product(u, v, 200)
            for form in ("I", "III"):
                ok &= prod.eq_to_order(qtpi_sum(u, v, form, 200), 200)
    report(5, ok, "product and sum forms I/III agree for 1 <= u <= 12, "
                  "-6 <= v <= 6 at order 200")


def test_criterion_6_character_consistency():
    ok = True
    count = 0
    for level in range(1, 21):
        labels = labels_at_level(level)
        ok &= len(labels) == 1 + level // 2
        for m in labels:
            ok &= char_product(m, 100).eq_to_order(char_qtpi(m, 100), 100)
            count += 1
    report(6, ok, f"product and quintuple forms of all {count} characters "
                  "with level <= 20 agree at order 100; label counts match")


def test_criterion_7_simplification_lemma():
    ok = True
    for j3 in range(11):
        for j1 in range(j3, 11):
            ok &= lemma_b1bc1(j1, j3, 60)
    for c in (1, 2):
        for j3 in range(9):
            for j1 in range(j3, 9):
                ok &= lemma_f2b1(j1, j3, c, 60)
        for nn in range(9):
            for t in range(9):
                ok &= f2b1_recurrence(nn, t, c, 50)
    report(7, ok, "both collapse lemmas and the two-variable recurrence hold "
                  "over their full index ranges")


def test_criterion_8_remark_relations():
    # link 3 of the cell chain checks each case display against the
    # unified form: times (1 + q) at i = 0, equal at i = 1
    ok = all(verify_character_identity(pid, "lim2", k, i, 60)
             for pid in (2, 4) for k in (1, 2, 3) for i in (0, 1))
    report(8, ok, "the case-form/unified-form alpha relations (including the "
                  "1/(1+q) factor at base q^2) hold for k <= 3 at order 60")


def test_criterion_9_move_engine_cross_validation():
    ok = True
    cells = 0
    for k in (1, 2):
        for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
            for i in range(row.imax(k) + 1):
                s = Schedule(kind, k, i, pid)
                moved = apply_moves(registry_pair(pid), expand_schedule(s))
                for n in range(6):
                    ok &= sum_side_finite(s, n, 40).eq_to_order(
                        moved.beta(n, 40), 40)
                cells += 1
    for pid in range(1, 6):
        pair = registry_pair(pid)
        for word in ((Move.F1, Move.B1), (Move.F2, Move.B2)):
            back = apply_moves(pair, word)
            for n in range(7):
                ok &= pair.alpha(n, 40).eq_to_order(back.alpha(n, 40), 40)
                ok &= pair.beta(n, 40).eq_to_order(back.beta(n, 40), 40)
    report(9, ok, f"composed moves equal the closed multisums for n <= 5 over "
                  f"{cells} cells (k <= 2) at order 40; the forward/backward "
                  "round trips act as the identity")


def test_criterion_10_rogers_ramanujan():
    N = 100
    ok = True
    for shift, (r1, r2) in ((0, (1, 4)), (1, (2, 3))):
        lhs = zero(N)
        n = 0
        while n * n + shift * n <= N:
            lhs = lhs + inv_poch_finite(Q_FACTOR, n, N).shift(
                n * n + shift * n).truncated(N)
            n += 1
        rhs = (inv_poch_inf(PochFactor(1, r1, 5), N)
               * inv_poch_inf(PochFactor(1, r2, 5), N)).truncated(N)
        ok &= lhs.eq_to_order(rhs, N)
    report(10, ok, "both classical sum/product identities hold at order 100")


def test_criterion_11_negative_controls():
    # a flipped alpha~ sign fails the defining relation at the first
    # affected index
    entry = registry_entry(2)

    def tilde(n, order):
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            return zero(order)
        sign, exp = mono
        if n == 1:
            sign = -sign
        return monomial(sign, exp, max(order, exp))

    def beta(n, order):
        return beta_from_spec(entry.beta, n, order)

    corrupted = BaileyPair(2, alpha_tilde=tilde, beta=beta)
    results = verify_pair(corrupted, 5, 40)
    ok = results[0] and not results[1]

    # a perturbed multisum exponent fails the limit identity
    s = Schedule("lim1", 1, 1, 3)
    spec = build_multisum_spec(s)
    outer = spec.levels[0]
    bad = spec._replace(
        levels=(outer._replace(lin=outer.lin + 1),) + spec.levels[1:])
    lhs = eval_multisum(bad, 40) * poch_inf(PochFactor(1, 1, 1), 40)
    ok &= not lhs.eq_to_order(alpha_side(s, 40), 40)
    # and a wrong module label fails the character identity
    m = schedule_module(3, "lim1", 1, 1)
    a = alpha_side(s, 40, unified=True)
    ok &= a.eq_to_order(qtpi_product(m.level + 3, -m.s1 - 1, 40), 40)
    ok &= not a.eq_to_order(qtpi_product(m.level + 3, -m.s1 - 2, 40), 40)
    report(11, ok, "sign flips and exponent perturbations are detected")
