"""A move's beta'_n from the move engine's one Horner chain.

Each composed pair's beta_n must equal ``ref_move_beta``, the per-term sum
the engine replaced, on the pair's parent, for every move of every k <= 2
schedule's word and whatever the pair was asked before.  Every prefix of
every word is checked, so by induction the whole composed chain is.  No
schedule uses B2, the backward move with a ratio, so a few words add it.
"""

import pytest

from qbailey import bailey
from qbailey.bailey import Move, apply_moves, registry_pair
from qbailey.lattice import SCHEDULE_TABLE, Schedule, expand_schedule
from reference_products import ref_move_beta

SCHEDULES = [Schedule(kind, k, i, pid)
             for k in (1, 2)
             for (pid, kind), row in sorted(SCHEDULE_TABLE.items())
             for i in range(row.imax(k) + 1)]
WORDS = ([(s.pair_id, tuple(expand_schedule(s))) for s in SCHEDULES]
         + [(pid, word) for pid in range(1, 6)
            for word in ((Move.F1, Move.B2), (Move.F2, Move.B2, Move.B2))])
# (registry pair, move word) for every prefix of every word
PREFIXES = sorted({(pid, word[:length]) for pid, word in WORDS
                   for length in range(1, len(word) + 1)},
                  key=lambda p: (p[0], [m.value for m in p[1]]))
N_MAX = 8


def _engine(orders, n_max=N_MAX):
    """Every prefix's beta_n text, n <= n_max, at each order in turn, on a
    fresh move trie: (pid, word, order, n) -> text."""
    got = {}
    for order in orders:
        for pid, word in PREFIXES:
            pair = apply_moves(registry_pair(pid), word)
            for n in range(n_max + 1):
                got[pid, word, order, n] = pair.beta(n, order).to_text()
    return got


def _reference(pid, word, order, n):
    parent = apply_moves(registry_pair(pid), word[:-1])
    return ref_move_beta(parent, word[-1], n, order).to_text()


def test_the_prefixes_cover_every_move():
    assert len(SCHEDULES) == 90
    assert {m for _, word in PREFIXES for m in word} == set(Move)


@pytest.mark.parametrize("order", [-7, -3, 0, 1, 20])
def test_move_beta_on_a_fresh_pair_matches_the_per_term_sum(order, monkeypatch):
    monkeypatch.setattr(bailey, "_REGISTRY_PAIRS", {})
    got = _engine([order])
    bad = [key for key, text in got.items() if text != _reference(*key)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("orders", [(60, 10), (10, 60)],
                         ids=["deep_then_shallow", "shallow_then_deep"])
def test_move_beta_matches_the_per_term_sum_whatever_was_asked_first(orders,
                                                                    monkeypatch):
    # the kept g_j of a deeper call serve a shallower one, cut at its top;
    # a shallower one's are built again for a deeper call
    monkeypatch.setattr(bailey, "_REGISTRY_PAIRS", {})
    got = _engine(orders)
    bad = [key for key, text in got.items() if text != _reference(*key)]
    assert not bad, bad[:5]


def test_move_beta_calls_no_term_sum(monkeypatch):
    # a move's beta'_n is one Horner chain over its kept g_j, with no
    # per-term sum; the alpha side and verify_pair still use term_sum
    def no_term_sum(*args, **kwargs):
        raise AssertionError("a move's beta went through term_sum")

    monkeypatch.setattr(bailey, "_REGISTRY_PAIRS", {})
    monkeypatch.setattr(bailey, "term_sum", no_term_sum)
    for s in SCHEDULES:
        pair = apply_moves(registry_pair(s.pair_id), expand_schedule(s))
        for n in range(6):
            pair.beta(n, 20)
