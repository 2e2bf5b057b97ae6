"""Registry pairs, the defining relation, the base shift, and the six moves."""

import copy
import itertools
import json
import pickle
import random
import sys
from functools import partial
from pathlib import Path

import pytest

from qbailey.bailey import (
    _DEFAULT_REGISTRY,
    _MOVE_TABLE,
    BetaSpec,
    Move,
    RegistryError,
    BaileyPair,
    apply_move,
    apply_moves,
    base_shift,
    beta_chain,
    beta_from_spec,
    load_registry,
    registry_entry,
    registry_pair,
    verify_pair,
)
from qbailey.laurent import LaurentSeries, monomial, one, zero
from qbailey.qproducts import Q_FACTOR, PochFactor, inv_poch_finite, term_sum
from paper_checks import slater_a1_pair
from reference_products import ref_beta_from_spec, ref_compose


def test_registry_alpha_tilde_at_zero_is_one():
    for pid in range(1, 6):
        assert registry_entry(pid).alpha_tilde_monomial(0) == (1, 0)


def test_registry_matches_pair_table():
    """Diff the data file against the documented five-pair table."""
    reg = load_registry()
    assert sorted(reg) == [1, 2, 3, 4, 5]
    bases = {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}
    sources = {1: "A1", 2: "A2", 3: "A7", 4: "A6", 5: "P1"}
    zero_residue = {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}  # residue class with alpha~ = 0
    for pid, entry in reg.items():
        assert entry.base_exp == bases[pid]
        assert entry.source == sources[pid]
        assert entry.alpha_cases[zero_residue[pid]] is None
        present = [r for r in range(3) if entry.alpha_cases[r] is not None]
        assert len(present) == 2
        # the two nonzero residue classes share one exponent formula with
        # opposite signs, positive on m = 0 mod 3
        c0 = entry.alpha_cases[0]
        other = entry.alpha_cases[present[1] if present[0] == 0 else present[0]]
        assert c0.sign == 1 and other.sign == -1
        assert (c0.quad, c0.lin, c0.den) == (other.quad, other.lin, other.den)
    assert reg[1].moduli == ("12k+8", "12k+2")
    assert reg[5].moduli == ("12k+6", "12k")


def test_registry_alpha_exponents():
    # spot values straight from the case formulas
    e1 = registry_entry(1)
    assert e1.alpha_tilde_monomial(3) == (1, 5)       # (2*9-3)/3
    assert e1.alpha_tilde_monomial(2) == (-1, 2)      # (2*4-2)/3
    assert e1.alpha_tilde_monomial(4) is None
    e5 = registry_entry(5)
    assert e5.alpha_tilde_monomial(3) == (1, 3)       # (9-3)/2
    assert e5.alpha_tilde_monomial(5) == (-1, 10)     # (25-5)/2


def test_beta_evaluation_pair5():
    # (-1;q^3)_n / ((q)_{2n} (-1;q)_n): the leading 2s cancel
    entry = registry_entry(5)
    b0 = beta_from_spec(entry.beta, 0, 20)
    assert b0 == one(20)
    # n = 1: (1+1) / ((q)_2 (1+1)) = 1/(q)_2
    b1 = beta_from_spec(entry.beta, 1, 20)
    assert b1.eq_to_order(inv_poch_finite(Q_FACTOR, 2, 20), 20)
    # n = 2: 2(1+q^3) / ((q)_4 * 2(1+q)) = (1+q^3)/((q)_4 (1+q))
    b2 = beta_from_spec(entry.beta, 2, 20)
    expected = (LaurentSeries({0: 1, 3: 1}, 20)
                * inv_poch_finite(Q_FACTOR, 4, 20)
                * LaurentSeries({0: 1, 1: 1}, 20).invert())
    assert b2.eq_to_order(expected, 20)


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_beta_matches_product_and_invert_form(pid):
    spec = registry_entry(pid).beta
    for n in range(7):
        for order in range(-3, 41):
            got = beta_from_spec(spec, n, order)
            assert got.trunc == order
            assert got.to_text() == ref_beta_from_spec(spec, n, order).to_text()


def _ascending(requests):
    return sorted(requests)


def _descending(requests):
    return sorted(requests, reverse=True)


def _shuffled(requests):
    requests = list(requests)
    random.Random(11).shuffle(requests)
    return requests


@pytest.mark.parametrize("arrange", [_ascending, _descending, _shuffled])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_stepped_beta_windows_match_the_product_form(pid, arrange):
    # tops below, at and past beta_n's valuation q^{mono(n)}, in an order
    # that deepens, reuses and restarts the chain
    spec = registry_entry(pid).beta
    window = beta_chain(spec)
    requests = [(n, spec.mono(n) + depth)
                for n in range(41) for depth in (-2, 0, 9, 45)]
    for n, top in arrange(requests):
        lo, a = window(n, top)
        assert lo + len(a) - 1 == top
        got = LaurentSeries.from_window(lo, a, top)
        assert got.to_text() == _ref_beta(pid, n, top), (n, top)
        a.append(7)  # the caller owns its window


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_stepped_beta_windows_carry_a_rows_units(pid):
    # a DP row's units (-q^b; q)_n^{+-1} are extra symbols of length n: each
    # window is the product form's beta_n times the schoolbook units, at
    # tops below, at and past its valuation, asked out of order so that the
    # chain deepens, reuses and restarts
    spec = registry_entry(pid).beta
    extra = ((PochFactor(-1, 1, 1), 1, 1), (PochFactor(-1, 2, 1), 1, -1),
             (PochFactor(-1, 3, 1), 1, -1))
    window = beta_chain(spec, extra)
    for n, top in _shuffled((n, spec.mono(n) + depth)
                            for n in range(13) for depth in (-1, 0, 8, 30)):
        lo, a = window(n, top)
        assert lo + len(a) - 1 == top
        want = ref_compose(top, 0, partial(ref_beta_from_spec, spec, n),
                           *((f, n, power) for f, _, power in extra))
        assert LaurentSeries.from_window(lo, a, top) == want, (n, top)


_REF_BETAS = {}


def _ref_beta(pid, n, top):
    key = (pid, n, top)
    if key not in _REF_BETAS:
        _REF_BETAS[key] = ref_beta_from_spec(
            registry_entry(pid).beta, n, top).to_text()
    return _REF_BETAS[key]


def test_registry_pair_beta_reads_its_stepped_window():
    pair = registry_pair(5)
    spec = registry_entry(5).beta
    for n in (6, 2, 9):
        for order in (30, 4, 55):
            assert pair.beta(n, order) == beta_from_spec(spec, n, order)


def test_stepped_beta_keeps_the_integrality_check():
    window = beta_chain(BetaSpec(0, 0, (), ((PochFactor(-1, 0, 1), "n"),)))
    assert window(0, 10) == (0, [1] + [0] * 10)
    for n in (1, 4):
        with pytest.raises(RegistryError, match="non-integral scalar 1/2"):
            window(n, 10)


def test_beta_with_a_non_integral_scalar_is_a_registry_error():
    # 1 / (-1; q)_n leaves the scalar 1/2 once n >= 1
    spec = BetaSpec(0, 0, (), ((PochFactor(-1, 0, 1), "n"),))
    assert beta_from_spec(spec, 0, 10) == one(10)
    with pytest.raises(RegistryError, match="non-integral scalar 1/2"):
        beta_from_spec(spec, 1, 10)
    # a numerator (-1; q^2)_n pays for it: 2 (-q^2; q^2)_{n-1} / (2 (-q; q)_{n-1})
    spec = BetaSpec(0, 0, ((PochFactor(-1, 0, 2), "n"),),
                    ((PochFactor(-1, 0, 1), "n"),))
    for n in range(4):
        assert beta_from_spec(spec, n, 25) == ref_beta_from_spec(spec, n, 25)


@pytest.mark.parametrize("side,factor,message", [
    ("numerator", {"sign": 1, "base_exp": -1, "step": 1, "length": "n"},
     "pair 1: beta numerator factor"),
    ("denominator", {"sign": -1, "base_exp": -2, "step": 1, "length": "n"},
     "pair 1: beta denominator factor"),
    ("denominator", {"sign": 1, "base_exp": 0, "step": 1, "length": "2n"},
     "pair 1: beta denominator factor"),
    ("numerator", {"sign": 1, "base_exp": 1, "step": 1, "length": "3n"},
     "unknown Pochhammer length kind '3n'"),
])
def test_registry_rejects_a_beta_factor_it_cannot_evaluate(tmp_path, monkeypatch,
                                                           side, factor, message):
    raw = json.loads(Path(_DEFAULT_REGISTRY).read_text())
    bad = copy.deepcopy(raw)
    bad["pairs"][0]["beta"][side].append(factor)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setenv("QBAILEY_REGISTRY", str(path))
    with pytest.raises(RegistryError, match=message):
        load_registry()


def test_alpha_from_tilde():
    p1 = registry_pair(1)
    # n = 0: the prefactor collapses
    assert p1.alpha(0, 20).eq_to_order(one(20), 20)
    # n = 3: alpha~_3 = q^5, alpha_3 = (1-q^7)/(1-q) q^5 = q^5 (1+q+...+q^6)
    expected = LaurentSeries({5 + t: 1 for t in range(7)}, 20)
    assert p1.alpha(3, 20).eq_to_order(expected, 20)
    # alpha~ = 0 residue gives 0
    assert p1.alpha(4, 20).is_zero()


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_registry_pairs_satisfy_defining_relation(pid):
    assert all(verify_pair(registry_pair(pid), 8, 40))


def test_corrupted_pair_fails_at_first_affected_n():
    entry = registry_entry(1)

    def tilde(n, order):
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            return zero(order)
        sign, exp = mono
        if n == 2:
            sign = -sign  # deliberate corruption
        return monomial(sign, exp, max(order, exp))

    def beta(n, order):
        return beta_from_spec(entry.beta, n, order)

    bad = BaileyPair(1, alpha_tilde=tilde, beta=beta)
    results = verify_pair(bad, 6, 40)
    assert results[0] and results[1]
    assert not results[2], "corruption at n=2 must surface at n=2"


def test_slater_pair_and_base_shift_reconstruction():
    a1 = slater_a1_pair()
    assert all(verify_pair(a1, 8, 40))
    shifted = base_shift(a1.alpha, a1.beta, 0)
    assert shifted.base_exp == 1
    entry = registry_entry(1)
    N = 60
    for n in range(16):
        got = shifted.alpha_tilde(n, N)
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            expected = zero(N)
        else:
            sign, e = mono
            expected = monomial(sign, e, N) if e <= N else zero(N)
        assert got.eq_to_order(expected, N), f"alpha~_{n} mismatch"


def base_shift_closed_tilde(alpha_prime, base_exp, n, order):
    """Closed-sum form of the shifted alpha~:
    alpha~_n = sum_{r=0..n} q^{c(n-r) + n^2 - r^2} alpha'_r."""
    return term_sum([(1, base_exp * (n - r) + n * n - r * r,
                      partial(alpha_prime, r), ())
                     for r in range(n + 1)], order)


def test_base_shift_closed_form_equals_recurrence():
    a1 = slater_a1_pair()
    shifted = base_shift(a1.alpha, a1.beta, 0)
    for n in range(11):
        closed = base_shift_closed_tilde(a1.alpha, 0, n, 50)
        assert closed.eq_to_order(shifted.alpha_tilde(n, 50), 50)


def test_base_shift_of_delta_sequence():
    # alpha' = (1, 0, 0, ...) unrolls the recurrence to alpha~_n = q^{cn+n^2}
    for c in (0, 1):
        def alpha(n, order, c=c):
            return (one(order) if order >= 0 else zero(order)) if n == 0 else zero(order)

        def beta(n, order):
            return one(order) if order >= 0 else zero(order)

        shifted = base_shift(alpha, beta, c)
        for n in range(8):
            e = c * n + n * n
            expected = monomial(1, e, max(40, e))
            assert shifted.alpha_tilde(n, 40).eq_to_order(expected, 40)


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("move", [Move.F1, Move.B1, Move.F2, Move.B2,
                                  Move.BC1, Move.BC2])
def test_single_moves_preserve_bailey_property(pid, move):
    pair = registry_pair(pid)
    if move is Move.BC2 and pair.base_exp == 1:
        # would need 1/(-1;q)_n, which is not unit-leading; no schedule
        # applies the second base change at base q
        with pytest.raises(ValueError, match=r"BC2 at base q\^1"):
            apply_move(pair, move)
        return
    assert all(verify_pair(apply_move(pair, move), 5, 35))


def test_move_words_preserve_bailey_property():
    words = [w for L in (1, 2) for w in
             itertools.product((Move.F1, Move.B1, Move.F2, Move.B2), repeat=L)]
    words += [(Move.F1, Move.F2, Move.B1), (Move.B2, Move.F1, Move.F2),
              (Move.B1, Move.B1, Move.F2)]
    pair = registry_pair(1)
    for w in words:
        assert all(verify_pair(apply_moves(pair, w), 4, 30)), \
            f"word {[m.value for m in w]} broke the defining relation"


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("word", [(Move.F1, Move.B1), (Move.F2, Move.B2)])
def test_forward_backward_round_trip(pid, word):
    pair = registry_pair(pid)
    back = apply_moves(pair, word)
    for n in range(7):
        assert pair.alpha(n, 40).eq_to_order(back.alpha(n, 40), 40)
        assert pair.beta(n, 40).eq_to_order(back.beta(n, 40), 40)


def test_f1_beta_formula():
    # beta'_n = sum_j a^j q^{j^2} beta_j / (q)_{n-j} with a = q
    pair = registry_pair(1)
    moved = apply_move(pair, Move.F1)
    N = 40
    for n in range(5):
        expected = zero(N)
        for j in range(n + 1):
            piece = (pair.beta(j, N) * inv_poch_finite(Q_FACTOR, n - j, N))
            expected = expected + piece.shift(j + j * j).truncated(N)
        assert moved.beta(n, N).eq_to_order(expected, N)


def test_base_change_lowers_base():
    pair = registry_pair(2)
    assert apply_move(pair, Move.BC1).base_exp == 1
    assert apply_move(pair, Move.BC2).base_exp == 1
    assert base_shift(pair.alpha, pair.beta, pair.base_exp).base_exp == 3


def test_moves_are_exactly_the_move_table():
    # the base shift is base_shift alone, not a seventh move
    assert set(Move) == set(_MOVE_TABLE)
    assert len(Move) == 6


def test_moves_hash_without_python_code():
    # a move word keys the fold's memo, and a move keys the move table and
    # each pair's children: hashing a word runs no Python-level function
    word = tuple(itertools.islice(itertools.cycle(Move), 25))
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        hash(word)
    finally:
        sys.setprofile(None)
    assert "call" not in events, events
    # a pickled member is the member itself, so every dict lookup still finds it
    children = {m: m.value for m in Move}
    for m in Move:
        back = pickle.loads(pickle.dumps(m))
        assert back is m and hash(back) == hash(m)
        assert _MOVE_TABLE[back] is _MOVE_TABLE[m] and children[back] == m.value


def test_registry_errors(tmp_path, monkeypatch):
    bad = tmp_path / "reg.json"
    bad.write_text("{not json")
    monkeypatch.setenv("QBAILEY_REGISTRY", str(bad))
    with pytest.raises(RegistryError):
        load_registry()
    bad2 = tmp_path / "reg2.json"
    bad2.write_text('{"schema_version": 2, "pairs": []}')
    monkeypatch.setenv("QBAILEY_REGISTRY", str(bad2))
    with pytest.raises(RegistryError):
        load_registry()
    # an unknown id of the bundled registry, not a registry error
    monkeypatch.delenv("QBAILEY_REGISTRY")
    with pytest.raises(ValueError):
        registry_entry(9)
