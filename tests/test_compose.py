"""The one-pass unit kernel of ``compose_exact`` and the shared move trie.

``compose_exact`` applies its unit triples factor by factor on a dense
coefficient list; every result here is compared with the plain product of
the parent and a schoolbook Pochhammer series or its inverse
(``reference_products``), which never goes through that kernel.  The move
trie shares pairs between move words with a common prefix; every value it
hands out must be the one a fresh, unshared chain computes.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey import bailey
from qbailey.bailey import (
    Move,
    _build_move,
    _new_registry_pair,
    apply_move,
    apply_moves,
    compose_exact,
    registry_entry,
    registry_pair,
)
from qbailey.lattice import SCHEDULE_TABLE, Schedule, expand_schedule
from qbailey.laurent import InversionError, LaurentSeries, monomial, zero
from qbailey.qproducts import (
    Q_FACTOR,
    PochFactor,
    apply_poch_units,
    binomial_step,
)
from reference_products import (
    ref_inv_poch_finite,
    ref_poch_finite,
    schoolbook_binomials,
)


def product_reference(order, shift, parent, units):
    """parent * units * q^shift to order, by series products."""
    top = order - shift
    acc = parent.truncated(top)
    # units deep enough for val(parent) < 0, and never below the constant term
    deep = max(top - min(acc.val() or 0, 0), 0)
    for f, length, power in units:
        build = ref_poch_finite if power == 1 else ref_inv_poch_finite
        unit = build(f, length, deep)
        acc = acc * unit
    return acc.shift(shift).truncated(order)


def compose(order, shift, parent, units):
    asked = []

    def get(o):
        asked.append(o)
        return parent

    got = compose_exact(order, shift, get, *units)
    assert asked == [order - shift], "the parent is requested once, at order - shift"
    return got


PARENTS = [
    LaurentSeries({-7: 3, -2: -1, 0: 5, 4: 2, 9: -4}, 40),
    LaurentSeries({0: 1}, 40),
    LaurentSeries({3: -2, 5: 7, 11: 1}, 40),
    monomial(-1, -12, 40),
    zero(40),
]
UNITS = [
    ((Q_FACTOR, 5, -1),),
    ((Q_FACTOR, 5, 1),),
    ((PochFactor(-1, 1, 1), 4, -1),),
    ((PochFactor(-1, 2, 1), 6, 1),),
    ((PochFactor(-1, 3, 3), 4, 1),),
    ((PochFactor(1, 2, 3), 5, -1),),
    ((PochFactor(-1, 1, 2), 7, -1),),
    ((Q_FACTOR, 0, -1), (PochFactor(-1, 4, 1), 0, 1)),
    ((PochFactor(1, 30, 1), 3, -1), (PochFactor(-1, 25, 5), 2, 1)),
    ((PochFactor(-1, 1, 1), 3, 1), (PochFactor(-1, 2, 1), 3, -1),
     (Q_FACTOR, 4, -1), (PochFactor(1, 2, 1), 2, 1)),
]


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("shift", [-9, 0, 4])
def test_units_match_series_products(units, shift):
    for parent in PARENTS:
        for order in (-15, 0, 12, 30):
            want = product_reference(order, shift, parent, units)
            got = compose(order, shift, parent, units)
            assert got.trunc == order
            assert got.to_text() == want.to_text(), (parent, order)


def test_factor_beyond_the_window_changes_nothing():
    parent = LaurentSeries({-3: 1, 2: 4}, 20)
    far = ((PochFactor(1, 16, 1), 5, -1), (PochFactor(-1, 17, 4), 3, 1))
    assert compose(10, 0, parent, far) == parent.truncated(10)


def test_several_units_on_one_call_commute():
    parent = LaurentSeries({-4: 2, -1: -3, 6: 1}, 30)
    units = UNITS[-1]
    got = compose(25, 2, parent, units)
    for perm in (units[::-1], units[1:] + units[:1]):
        assert compose(25, 2, parent, perm) == got


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(st.integers(-12, 20), st.integers(-50, 50),
                             max_size=8),
       shift=st.integers(-10, 10), order=st.integers(-5, 30),
       units=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 6),
                                st.integers(1, 3), st.integers(0, 6),
                                st.sampled_from([1, -1])), max_size=4))
def test_units_match_series_products_property(terms, shift, order, units):
    parent = LaurentSeries(terms, 40)
    triples = [(PochFactor(s, b, d), n, p) for s, b, d, n, p in units]
    assert (compose(order, shift, parent, triples).to_text()
            == product_reference(order, shift, parent, triples).to_text())


def test_dense_kernel_on_a_plain_list():
    # 1/(q)_3 = 1 + q + 2q^2 + 3q^3 + 4q^4 + 5q^5 + 7q^6 + ...
    a = [1] + [0] * 7
    apply_poch_units(a, [(Q_FACTOR, 3, -1)])
    assert a == [1, 1, 2, 3, 4, 5, 7, 8]
    apply_poch_units(a, [(Q_FACTOR, 3, 1)])
    assert a == [1] + [0] * 7


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 17, 40])
def test_binomial_step_matches_schoolbook(n):
    # every exponent up to past the end of the list, so residue classes of
    # one, two and many coefficients
    rng = random.Random(n)
    a0 = [rng.randint(-30, 30) for _ in range(n)]
    x = LaurentSeries(dict(enumerate(a0)), n - 1)
    for e in range(1, n + 3):
        for sign in (1, -1):
            factor = schoolbook_binomials([(e, sign)], n - 1)
            for power in (1, -1):
                a = list(a0)
                binomial_step(a, e, sign, power)
                unit = factor if power == 1 else factor.invert()
                want = (x * unit).truncated(n - 1)
                assert a == want.coefficients(0, n - 1), (e, sign, power)
                binomial_step(a, e, sign, -power)
                assert a == a0


def test_constant_factor_multiplies_by_zero_or_two():
    parent = LaurentSeries({-2: 1, 1: 3}, 20)
    # (-1; q)_3 = 2 (1 + q)(1 + q^2), (1; q)_2 = 0
    two = ((PochFactor(-1, 0, 1), 3, 1),)
    assert compose(12, 1, parent, two) == product_reference(12, 1, parent, two)
    assert compose(12, 1, parent, ((PochFactor(1, 0, 1), 2, 1),)) == zero(12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("parent", [LaurentSeries({0: 1}, 20), zero(20)])
def test_dividing_by_a_constant_factor_raises(sign, parent):
    # 1/(1 - s q^0) is 1/0 or 1/2: no integral expansion, whatever the parent
    with pytest.raises(InversionError):
        compose_exact(10, 0, lambda o: parent, (PochFactor(sign, 0, 1), 2, -1))


@pytest.mark.parametrize("power", [1, -1])
def test_negative_exponent_unit_is_rejected(power):
    with pytest.raises(ValueError, match="negative exponent"):
        compose_exact(10, 0, lambda o: LaurentSeries({0: 1}, o),
                      (PochFactor(-1, -2, 1), 3, power))
    # an empty product has no factor at all
    assert compose_exact(10, 0, lambda o: LaurentSeries({0: 1}, o),
                         (PochFactor(-1, -2, 1), 0, power)) == LaurentSeries({0: 1}, 10)


def test_bad_unit_power_and_length_are_rejected():
    one = LaurentSeries({0: 1}, 10)
    with pytest.raises(ValueError, match="power"):
        compose_exact(10, 0, lambda o: one, (Q_FACTOR, 2, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        compose_exact(10, 0, lambda o: one, (Q_FACTOR, -1, -1))


def test_parent_short_of_the_order_is_an_error():
    short = LaurentSeries({0: 1}, 5)
    with pytest.raises(AssertionError, match="truncation underflow"):
        compose_exact(10, 2, lambda o: short, (Q_FACTOR, 2, -1))
    with pytest.raises(AssertionError, match="truncation underflow"):
        compose_exact(10, 2, lambda o: short)


def test_second_base_change_at_base_q_still_raises():
    # it needs 1/(-1; q)_n, whose leading coefficient is 2
    with pytest.raises(ValueError, match=r"move BC2 at base q\^1 .* q\^0"):
        apply_move(registry_pair(1), Move.BC2)


# -- the move trie -------------------------------------------------------------

def test_moves_and_registry_pairs_are_shared():
    pair = registry_pair(2)  # at base q^2, where every move is defined
    assert registry_pair(2) is pair
    for m in Move:
        assert apply_move(pair, m) is apply_move(pair, m)
    word = [Move.F1, Move.B1, Move.BC1]
    assert apply_moves(pair, word) is apply_move(apply_moves(pair, word[:2]), word[2])


def test_cached_value_is_truncated_to_the_request():
    pair = apply_move(registry_pair(3), Move.F2)
    deep = pair.beta(2, 30)
    shallow = pair.beta(2, 12)
    assert shallow.trunc == 12
    assert shallow == deep.truncated(12)
    tilde = registry_pair(1).alpha_tilde(6, 3)  # q^22 lies past the order
    assert tilde == zero(3)


SCHEDULES = [Schedule(kind, k, i, pid)
             for k in (1, 2)
             for (pid, kind), row in sorted(SCHEDULE_TABLE.items())
             for i in range(row.imax(k) + 1)]


def _values(pair):
    return " | ".join(f(n, 20).to_text()
                      for f in (pair.alpha, pair.beta) for n in range(4))


def _shared_run(schedules, monkeypatch):
    monkeypatch.setattr(bailey, "_REGISTRY_PAIRS", {})
    return {s: _values(apply_moves(registry_pair(s.pair_id), expand_schedule(s)))
            for s in schedules}


def test_shared_chains_match_fresh_chains_in_any_order(monkeypatch):
    fresh = {}
    for s in SCHEDULES:
        pair = _new_registry_pair(registry_entry(s.pair_id))
        for m in expand_schedule(s):
            pair = _build_move(pair, m)
        fresh[s] = _values(pair)
    shuffled = SCHEDULES[:]
    random.Random(11).shuffle(shuffled)
    for order in (SCHEDULES, SCHEDULES[::-1], shuffled):
        assert _shared_run(order, monkeypatch) == fresh


def test_pairs_are_never_shared_across_registries(tmp_path, monkeypatch):
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    bundled = {pid: registry_pair(pid) for pid in (1, 3)}
    data = json.loads(Path(bailey._DEFAULT_REGISTRY).read_text())
    data["pairs"][2]["beta"]["mono_lin"] += 1  # pair 3's beta_n times q^n
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    changed = registry_pair(3)
    assert changed is not bundled[3]
    assert changed.beta(1, 10) == bundled[3].beta(1, 9).shift(1)
    assert apply_move(changed, Move.F1) is not apply_move(bundled[3], Move.F1)
    assert registry_pair(1) is bundled[1]  # equal entries share their pair
    monkeypatch.delenv("QBAILEY_REGISTRY")
    assert registry_pair(3) is bundled[3]
    monkeypatch.setenv("QBAILEY_REGISTRY", str(reg))
    assert registry_pair(3) is changed
