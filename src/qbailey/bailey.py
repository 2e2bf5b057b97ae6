"""Bailey pairs: the defining relation, moves, base shift, and the registry.

A Bailey pair relative to the base a = q^c is a pair of sequences
(alpha_n, beta_n) of Laurent series with

    beta_n = sum_{t=0..n} alpha_t / ((q;q)_{n-t} (q^{c+1};q)_{n+t}).

Pairs are carried around with the normalized sequence

    alpha~_n = (1 - q^c)/(1 - q^{c+2n}) * alpha_n,

which is how the registry states its five pairs and what the base-change
moves consume.  The six moves (two forward, two backward, two base changes)
each produce a new pair whose sequences are evaluated on demand and
memoized.  The base shift (``base_shift``) is not a move, and the
registry pairs do not come from it: they are read, already shifted, from
``data/bailey_pairs.json``.  No module of the package calls it; the tests
run it to rebuild pair 1 from its unshifted pair, which
``tests/paper_checks.py`` holds.

The six moves, the members of ``Move``, are the rows of one table,
``_MOVE_TABLE``.  A row holds three integers (quad, binom, lin) for the
exponent

    f(n, c) = quad n^2 + binom binom(n, 2) + (c + lin) n

at base q^c, optional bases (a, b - c), a backward flag, a bracket flag and
the change of base.  With (a, b) the bases at base q^c, a forward move
gives

    alpha'_n = q^{f(n)} (-q^a)_n / (-q^b)_n * alpha_n,
    beta'_n  = sum_j q^{f(j)} (-q^a)_j / (-q^b)_n * beta_j / (q)_{n-j},

without the ratio when the row has no bases.  A backward move is its
inverse:

    alpha'_n = q^{-f(n)} (-q^b)_n / (-q^a)_n * alpha_n,
    beta'_n  = sum_j (-1)^{n+j} q^{-f(n) + binom(n-j, 2)}
               (-q^b)_j / (-q^a)_n * beta_j / (q)_{n-j}.

The base changes BC1 and BC2 read alpha~_n - a q^{2n-2} alpha~_{n-1} in
place of alpha_n for n >= 1 and lower the base by one.  A move's alpha'_n
is one term of ``qproducts.term_sum`` (``compose_exact``), which serves only
the alpha side and ``verify_pair``: unit triples ``(PochFactor, length,
power)`` applied a pass per factor on the parent's window, with no series
product, inversion or Pochhammer cache.  Its beta'_n is one level of the
chain DP: the j-pieces above, less their j-free factors and the kernel
(backward q^{binom(n-j, 2)}) / (q)_{n-j}, are the g_j, kept at the deepest
top asked and summed in one Horner chain (``qproducts._link_sum``).
``lattice.build_multisum_spec`` writes a move word from it as one multisum.

A registry pair's beta_n = q^{mono(n)} (symbols of length n or 2n) is
stepped from beta_{n-1} (``beta_chain``): a chain keeps the valuation-zero
part of each beta_n as a window and multiplies in only the factors the
symbol lengths gain, so an index costs O(1) passes, not O(n).  Each
registry pair reads its own chain, and ``lattice``'s multisum DP others,
one per ``BetaSpec`` or per call with a row's units: the move engine and
its closed multisums share the move table and the registry data, no cache.

Pairs form a shared trie.  ``registry_pair`` makes each registry pair once
per registry entry, and ``apply_move`` memoizes each child on its parent,
keyed by the move, so move words with a common prefix share the pairs along it
and their sequence caches.  Because a shared cache may already hold a
deeper evaluation, every sequence value is returned truncated to exactly
the requested order: a caller's result never depends on what another
caller asked for first.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Callable
from enum import Enum
from functools import lru_cache, partial

from .laurent import LaurentSeries, monomial, zero
from .qproducts import (
    Chain,
    PochFactor,
    Q_FACTOR,
    Unit,
    _binom2,
    _link_sum,
    apply_poch_units,
    running_chain,
    term_sum,
)

_DEFAULT_REGISTRY = os.path.join(os.path.dirname(__file__), "data",
                                 "bailey_pairs.json")

SeqFn = Callable[[int, int], LaurentSeries]


class RegistryError(ValueError):
    """The Bailey-pair data file is missing, malformed, or inconsistent."""


class Move(Enum):
    __hash__ = object.__hash__  # by identity, in C: members are singletons
    F1 = "F1"
    B1 = "B1"
    F2 = "F2"
    B2 = "B2"
    BC1 = "BC1"
    BC2 = "BC2"


class BaileyPair:
    """A Bailey pair with lazily evaluated, memoized sequences.

    Exactly one of ``alpha`` / ``alpha_tilde`` is supplied; the other is
    derived.  Each sequence function, ``beta`` too, takes (n, order) and
    must return a series exact at least to ``order``.  Memoization keeps
    the deepest (highest-order) evaluation per index, and every value
    handed out ends at exactly the requested order, so what a caller sees
    does not depend on which deeper request came first.  ``apply_move``
    keeps the pair's children here too, and a moved pair's ``beta`` its g_j
    windows (``_build_move``).  Instances are immutable apart from these
    caches, so sharing across threads is safe under the GIL.
    """

    def __init__(self, base_exp: int, *, alpha: SeqFn | None = None,
                 alpha_tilde: SeqFn | None = None, beta: SeqFn):
        if (alpha is None) == (alpha_tilde is None):
            raise ValueError("supply exactly one of alpha / alpha_tilde")
        self.base_exp = base_exp
        self._alpha_fn = alpha
        self._tilde_fn = alpha_tilde
        self._beta_fn = beta
        self._alpha_cache: dict[int, LaurentSeries] = {}
        self._tilde_cache: dict[int, LaurentSeries] = {}
        self._beta_cache: dict[int, LaurentSeries] = {}
        self._children: dict[Move, BaileyPair] = {}

    def _deepest(self, cache, fn, n: int, order: int) -> LaurentSeries:
        hit = cache.get(n)
        if hit is None or hit.trunc < order:
            hit = fn(n, order)
            if hit.trunc < order:
                raise AssertionError("sequence evaluation lost truncation")
            cache[n] = hit
        return hit

    def alpha(self, n: int, order: int) -> LaurentSeries:
        fn = self._alpha_fn or self._alpha_from_tilde
        return self._deepest(self._alpha_cache, fn, n, order).truncated(order)

    def alpha_tilde(self, n: int, order: int) -> LaurentSeries:
        fn = self._tilde_fn or self._tilde_from_alpha
        return self._deepest(self._tilde_cache, fn, n, order).truncated(order)

    def beta(self, n: int, order: int) -> LaurentSeries:
        return self._deepest(self._beta_cache, self._beta_fn, n, order).truncated(order)

    def _alpha_from_tilde(self, n: int, order: int) -> LaurentSeries:
        # alpha_n = (1 - q^{c+2n}) / (1 - q^c) * alpha~_n, needs c >= 1
        c = self.base_exp
        if c < 1:
            raise ValueError("alpha from alpha~ needs base exponent >= 1")
        return compose_exact(order, 0, partial(self.alpha_tilde, n),
                             (PochFactor(1, c + 2 * n, 1), 1, 1),
                             (PochFactor(1, c, 1), 1, -1))

    def _tilde_from_alpha(self, n: int, order: int) -> LaurentSeries:
        c = self.base_exp
        if c < 1:
            raise ValueError("alpha~ undefined at base exponent 0 (1 - a = 0)")
        return compose_exact(order, 0, partial(self.alpha, n),
                             (PochFactor(1, c, 1), 1, 1),
                             (PochFactor(1, c + 2 * n, 1), 1, -1))


def compose_exact(order: int, shift: int, parent_get: Callable[[int], LaurentSeries],
                  *units: Unit) -> LaurentSeries:
    """parent * (finite Pochhammer units) * q^shift, exact to ``order``:
    the one-term case of ``qproducts.term_sum``.  Each unit is a triple
    ``(f, length, power)``: the factor (f; q^step)_length when power is 1,
    its inverse when power is -1.  The parent is requested once, at
    ``order - shift``, and no product, inversion or Pochhammer cache is
    involved.
    """
    return term_sum([(1, shift, parent_get, units)], order)


def apply_move(pair: BaileyPair, move: Move) -> BaileyPair:
    """Apply one of the six moves to a Bailey pair.

    The child is memoized on its parent, so move words that share a prefix
    share the pairs along it, and with them their sequence caches."""
    child = pair._children.get(move)
    if child is None:
        child = pair._children[move] = _build_move(pair, move)
    return child


class _MoveRule(namedtuple("_MoveRule", "quad binom lin bases backward "
                           "bracket base_change",
                           defaults=(None, False, False, 0))):
    """One row of the move table; see the module docstring.  The ints quad,
    binom and lin give f(n, c) = quad n^2 + binom binom(n, 2) + (c + lin) n;
    bases is (a, b - c) or None, backward and bracket are flags, and
    base_change is the int added to the base exponent."""

    __slots__ = ()

    def f(self, n: int, c: int) -> int:
        return self.quad * n * n + self.binom * _binom2(n) + (c + self.lin) * n


_MOVE_TABLE: dict[Move, _MoveRule] = {
    Move.F1: _MoveRule(1, 0, 0),
    Move.B1: _MoveRule(1, 0, 0, backward=True),
    Move.F2: _MoveRule(0, 1, 0, (1, 0)),
    Move.B2: _MoveRule(0, 1, 0, (1, 0), backward=True),
    Move.BC1: _MoveRule(1, 0, -1, bracket=True, base_change=-1),
    Move.BC2: _MoveRule(0, 1, -1, (1, -1), bracket=True, base_change=-1),
}


def ratio_bases(move: Move, c: int) -> tuple[int, int] | None:
    """(up, down) of the ratio (-q^up)_j / (-q^down)_n of ``move`` at base
    q^c.  Both must be q^1 or higher: (-1; q)_n is not unit-leading."""
    rule = _MOVE_TABLE[move]
    if rule.bases is None:
        return None
    a, b = rule.bases[0], c + rule.bases[1]
    if b < 1:
        raise ValueError(f"move {move.value} at base q^{c} needs the ratio "
                         f"base q^{b}, below q^1")
    return (b, a) if rule.backward else (a, b)


def _build_move(pair: BaileyPair, move: Move) -> BaileyPair:
    rule = _MOVE_TABLE[move]
    c = pair.base_exp
    bases = ratio_bases(move, c)
    backward = rule.backward
    sign = -1 if backward else 1
    kept: dict[int, tuple[int, int, list[int]]] = {}  # j -> g_j's carry (j, lo, window)
    up, down = (PochFactor(-1, b, 1) for b in bases) if bases else (None, None)

    def ratio(j: int, n: int) -> tuple[Unit, ...]:  # (-q^up; q)_j / (-q^down; q)_n
        return ((up, j, 1), (down, n, -1)) if bases else ()

    def bracketed(n: int, o: int) -> LaurentSeries:
        s = c + 2 * n - 2
        return pair.alpha_tilde(n, o) - pair.alpha_tilde(n - 1, o - s).shift(s)

    def alpha(n, order):
        parent = partial(bracketed if rule.bracket and n else pair.alpha, n)
        return compose_exact(order, sign * rule.f(n, c), parent, *ratio(n, n))

    def beta(n, order):
        f = rule.f(n, c) if backward else 0
        top, carries = order + f, []
        for j in range(n + 1):
            need = top - _binom2(n - j) if backward else top
            g = kept.get(j)
            if g is None or g[1] + len(g[2]) <= need:
                t = need - (0 if backward else rule.f(j, c))
                lo, a = pair._deepest(pair._beta_cache, pair._beta_fn, j, t).window(t)
                apply_poch_units(a, ratio(j, 0))
                g = kept[j] = j, lo + need - t, [-x for x in a] if backward and j % 2 else a
            carries.append(g)
        lo, a = _link_sum(carries, n, top, backward)
        apply_poch_units(a, ratio(0, n))
        return LaurentSeries.from_window(
            lo - f, [-x for x in a] if backward and n % 2 else a, order)

    return BaileyPair(c + rule.base_change, alpha=alpha, beta=beta)


def apply_moves(pair: BaileyPair, moves) -> BaileyPair:
    for m in moves:
        pair = apply_move(pair, m)
    return pair


def base_shift(alpha_prime: SeqFn, beta: SeqFn, base_exp: int) -> BaileyPair:
    """Shift a pair at base q^c to base q^{c+1}, keeping beta.

    The new pair's alpha~ is built by the recurrence
    alpha~_0 = alpha'_0, alpha~_{n+1} = q^{c+2n+1} alpha~_n + alpha'_{n+1},
    which reads alpha~_n from the new pair's own memo.
    """
    c = base_exp

    def tilde(n: int, order: int) -> LaurentSeries:
        if n == 0:
            return alpha_prime(0, order)
        s = c + 2 * n - 1
        return shifted.alpha_tilde(n - 1, order - s).shift(s) + alpha_prime(n, order)

    shifted = BaileyPair(c + 1, alpha_tilde=tilde, beta=beta)
    return shifted


def verify_pair(pair: BaileyPair, n_max: int, order: int) -> list[bool]:
    """Check the defining relation for each 0 <= n <= n_max to the given order."""
    c = pair.base_exp
    results = []
    for n in range(n_max + 1):
        lhs = pair.beta(n, order)
        rhs = term_sum(
            [(1, 0, partial(pair.alpha, t),
              ((Q_FACTOR, n - t, -1), (PochFactor(1, c + 1, 1), n + t, -1)))
             for t in range(n + 1)], order)
        results.append(lhs.eq_to_order(rhs, order))
    return results


# -- registry ----------------------------------------------------------------

class TildeCase(namedtuple("TildeCase", "sign quad lin den")):
    """alpha~_m = sign * q^{(quad*m^2 + lin*m)/den} on one residue class mod 3,
    with int fields sign, quad, lin and den."""

    __slots__ = ()

    def exponent(self, m: int) -> int:
        num = self.quad * m * m + self.lin * m
        if num % self.den:
            raise RegistryError(
                f"exponent ({self.quad}m^2{self.lin:+d}m)/{self.den} "
                f"is not integral at m={m}"
            )
        return num // self.den


class BetaSpec(namedtuple("BetaSpec",
                          "mono_quad mono_lin numerator denominator")):
    """beta_n = q^{mono_quad*n^2 + mono_lin*n} * prod(numerator) / prod(denominator),
    with Pochhammer lengths given per factor as a multiple of n.

    mono_quad and mono_lin are ints; numerator and denominator are tuples
    of (PochFactor, length kind "n" or "2n") pairs."""

    __slots__ = ()

    def mono(self, n: int) -> int:
        return self.mono_quad * n * n + self.mono_lin * n


class RegistryEntry(namedtuple("RegistryEntry",
                               "id base_exp source moduli alpha_cases beta")):
    """One pair of the registry: int id and base_exp, str source, moduli a
    tuple of two strs, alpha_cases a TildeCase or None per residue class
    mod 3, and beta a BetaSpec."""

    __slots__ = ()

    def alpha_tilde_monomial(self, m: int) -> tuple[int, int] | None:
        """(sign, exponent) of alpha~_m, or None when alpha~_m = 0."""
        case = self.alpha_cases[m % 3]
        if case is None:
            return None
        return case.sign, case.exponent(m)


def _length(kind: str, n: int) -> int:
    if kind == "n":
        return n
    if kind == "2n":
        return 2 * n
    raise RegistryError(f"unknown Pochhammer length kind {kind!r}")


def _beta_units(spec: BetaSpec, n: int) -> tuple[int, tuple[Unit, ...]]:
    """(scalar, units) with beta_n = scalar q^{mono(n)} times the unit
    triples.  A symbol (-1; q^d)_L with L >= 1 has the constant factor
    (1 + q^0) = 2.  It is written as 2 (-q^d; q^d)_{L-1}, so every unit is
    unit-leading (and hence divisible), and the 2s of the two sides must
    leave an integral scalar."""
    scalars = {1: 1, -1: 1}
    units = []
    for factors, power in ((spec.numerator, 1), (spec.denominator, -1)):
        for f, kind in factors:
            length = _length(kind, n)
            if f.sign == -1 and f.base_exp == 0 and length:
                scalars[power] *= 2
                f, length = PochFactor(-1, f.step, f.step), length - 1
            units.append((f, length, power))
    if scalars[1] % scalars[-1]:
        raise RegistryError(
            f"non-integral scalar {scalars[1]}/{scalars[-1]} in beta evaluation"
        )
    return scalars[1] // scalars[-1], tuple(units)


def beta_from_spec(spec: BetaSpec, n: int, order: int) -> LaurentSeries:
    """beta_n of a registry pair, exact to ``order``, from scratch: one term
    of ``term_sum``, its symbols applied as unit triples to a constant
    scalar."""
    scalar, units = _beta_units(spec, n)
    return term_sum([(scalar, spec.mono(n), None, units)], order)


def beta_chain(spec: BetaSpec, extra: Chain = ()
               ) -> Callable[[int, int], tuple[int, list[int]]]:
    """``window(n, top)``: beta_n of a registry pair times the ``extra``
    symbols (f; q^step)_{mult n}^power, as a fresh window ending at top.
    beta_n is q^{mono(n)} times u_n, the valuation-zero product of the
    symbols, which ``qproducts.running_chain`` steps from u_{n-1} with the
    extra ones.  u_0 and u_1, and a chain with no u_m deep enough, come from
    ``_beta_units``, where the (-1; q^d) rewrite and its integrality check
    live.  A copy is cut at exactly top, so no result depends on what was
    asked before."""
    def start(n: int, depth: int) -> list[int]:
        scalar, units = _beta_units(spec, n)
        u = [scalar] + [0] * depth
        apply_poch_units(u, units + tuple((f, mult * n, power) for f, mult, power in extra))
        return u

    units = running_chain(
        tuple((f, _length(kind, 1), power)
              for factors, power in ((spec.numerator, 1), (spec.denominator, -1))
              for f, kind in factors) + extra, start)

    def window(n: int, top: int) -> tuple[int, list[int]]:
        lo = spec.mono(n)
        if top < lo:
            return top + 1, []
        return lo, units(n, top - lo)[:top - lo + 1]

    return window


def _ints(obj, *keys: str) -> list[int]:
    """The values of ``keys`` in ``obj``, each of which must be an integer."""
    values = [obj[key] for key in keys]
    for key, value in zip(keys, values):
        if type(value) is not int:
            raise RegistryError(f"{key} must be an integer, got {value!r}")
    return values


def _parse_factor(obj) -> PochFactor:
    try:
        return PochFactor(*_ints(obj, "sign", "base_exp", "step"))
    except (KeyError, TypeError, ValueError) as exc:
        raise RegistryError(f"bad Pochhammer factor {obj!r}: {exc}") from exc


def _parse_entry(obj) -> RegistryEntry:
    try:
        cases = []
        for residue in ("0", "1", "2"):
            case = obj["alpha_tilde"][residue]
            if case is None:
                cases.append(None)
            else:
                tc = TildeCase(*_ints(case, "sign", "quad", "lin", "den"))
                if tc.sign not in (1, -1) or tc.den < 1:
                    raise RegistryError(f"bad alpha~ case {case!r}")
                cases.append(tc)
        beta = obj["beta"]
        spec = BetaSpec(
            *_ints(beta, "mono_quad", "mono_lin"),
            tuple((_parse_factor(f), f["length"]) for f in beta["numerator"]),
            tuple((_parse_factor(f), f["length"]) for f in beta["denominator"]),
        )
        pair_id, base_exp = _ints(obj, "id", "base_exp")
        source, moduli = obj["source"], tuple(obj["moduli"])
        if not all(isinstance(x, str) for x in (source, *moduli)):
            raise RegistryError("source and moduli must be strings")
        entry = RegistryEntry(
            id=pair_id, base_exp=base_exp, source=source, moduli=moduli,
            alpha_cases=tuple(cases), beta=spec,
        )
    except RegistryError as exc:
        raise RegistryError(f"pair {obj.get('id')!r}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise RegistryError(f"malformed registry entry: {exc}") from exc
    if entry.base_exp < 1:
        raise RegistryError(f"pair {entry.id}: base exponent must be >= 1")
    if entry.alpha_tilde_monomial(0) != (1, 0):
        raise RegistryError(f"pair {entry.id}: alpha~_0 must equal 1")
    for factors, side in ((spec.numerator, "numerator"),
                          (spec.denominator, "denominator")):
        for f, kind in factors:
            _length(kind, 0)
            # beta_n is evaluated with unit triples, which keep the
            # valuation q^{mono}: no factor may have a negative exponent,
            # and none below the line may be (1 - q^0) = 0
            if f.base_exp < 0 or (side == "denominator" and f.base_exp == 0
                                  and f.sign == 1):
                raise RegistryError(
                    f"pair {entry.id}: beta {side} factor "
                    f"({f.sign:+d}*q^{f.base_exp}; q^{f.step}) is not allowed")
    # beta_n writes each (-1; q^d)_L as 2 (-q^d; q^d)_{L-1}: the 2s below
    # the line must not outnumber those above, or beta_n is not integral
    halves = [sum(f.sign == -1 and f.base_exp == 0 for f, _ in factors)
              for factors in (spec.numerator, spec.denominator)]
    if halves[1] > halves[0]:
        raise RegistryError(
            f"pair {entry.id}: beta has {halves[1]} factors (-1; q^d) below "
            f"the line and {halves[0]} above, so beta_n is not integral")
    # every exponent in the case table must be integral on its residue class
    for m in range(12):
        entry.alpha_tilde_monomial(m)
    return entry


def load_registry() -> dict[int, RegistryEntry]:
    """The Table-of-pairs data file, loaded and validated: the file
    QBAILEY_REGISTRY names, else the bundled one.  The file is chosen on
    every call and read once, so a changed environment is never served
    another file's entries."""
    return _read_registry(os.environ.get("QBAILEY_REGISTRY") or _DEFAULT_REGISTRY)


@lru_cache(maxsize=None)
def _read_registry(path: str) -> dict[int, RegistryEntry]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RegistryError(f"registry {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("schema_version") != 1:
        raise RegistryError(f"registry {path}: unsupported or missing schema_version")
    entries = {}
    pairs = raw.get("pairs", [])
    if not isinstance(pairs, list):
        raise RegistryError(f"registry {path}: pairs must be a list")
    for obj in pairs:
        entry = _parse_entry(obj)
        if entry.id in entries:
            raise RegistryError(f"duplicate pair id {entry.id}")
        entries[entry.id] = entry
    if sorted(entries) != [1, 2, 3, 4, 5]:
        raise RegistryError(f"registry must define pairs 1..5, got {sorted(entries)}")
    return entries


def registry_entry(pair_id: int) -> RegistryEntry:
    entries = load_registry()
    if pair_id not in entries:
        raise ValueError(f"no Bailey pair with id {pair_id} (valid: 1..5)")
    return entries[pair_id]


_REGISTRY_PAIRS: dict[RegistryEntry, BaileyPair] = {}


def registry_pair(pair_id: int) -> BaileyPair:
    """One of the five registry pairs as a BaileyPair.

    The pair is made once per registry entry and then shared, so every
    move chain that starts from it shares its caches and its children
    (see ``apply_move``); two registries share it only if the entries
    are equal."""
    entry = registry_entry(pair_id)
    pair = _REGISTRY_PAIRS.get(entry)
    if pair is None:
        pair = _REGISTRY_PAIRS[entry] = _new_registry_pair(entry)
    return pair


def _new_registry_pair(entry: RegistryEntry) -> BaileyPair:
    def tilde(n: int, order: int) -> LaurentSeries:
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            return zero(order)
        sign, exp = mono
        return monomial(sign, exp, max(order, exp))

    window = beta_chain(entry.beta)

    def beta(n: int, order: int) -> LaurentSeries:
        return LaurentSeries.from_window(*window(n, order), order)

    return BaileyPair(entry.base_exp, alpha_tilde=tilde, beta=beta)
