"""Schedules over the Bailey lattice and their closed multisum sum-sides.

A ``Schedule`` names one cell of the identity table: a registry pair, one of
the three move families, and the parameters (k, i).  ``expand_schedule``
produces the concrete move word; ``build_multisum_spec`` folds that word
over the move table (``bailey._MOVE_TABLE``), one variable per move, into
the closed multisum for the limiting beta sequence; ``sum_side`` evaluates
it; ``alpha_side`` evaluates the limiting alpha-series; and
``verify_limit_identity`` checks the resulting equality

    sum_side * (q^c; q)_inf  =  alpha_side        (a = q^c the registry base)

exactly, coefficientwise, to the requested order, with no series product
(``qproducts.apply_inf_ratio`` on the multisum's window).  ``sum_side``'s
1/(-q^b; q)_inf goes on that window too: ``apply_inf_ratio``, ``divide_euler``.

Multisum evaluation.  Every closed sum here is a chain: the summand is
one ``Level`` row per variable (monomial, Pochhammer units, sign and link
kernel) times beta_{j_V}.  The kernel joins j_r to j_{r+1}: the piece
1/(q)_{j_r - j_{r+1}}, times the link binomial q^{binom(j_r - j_{r+1}, 2)}
on a linked level, or, once lemma b1bc1 has summed a variable out, the
step [j_r - j_{r+1} in {0, 1}].
The fold writes a ``MultisumSpec``'s rows outermost first, the order of the
DP's level index L, and the DP reads them as they are.  The evaluator runs
a dynamic program from the innermost variable outward, keeping one partial
sum (a carry) per feasible (level, value) as a coefficient window,
``laurent``'s dense format.  Two integer tables drive exactness and pruning:

  * IN[L][v]  - minimal exponent contributed by levels L..inner given
                j_L = v (a lower bound on the valuation of the carry);
  * LOW[L][v] - minimal exponent the *outer* levels can add to a carry at
                (L, v), minimized over outer assignments that can still
                reach a total exponent <= order.

Both are built from per-level rows of each variable's own exponent and one
table of binom(d, 2).  A level without a link binomial needs only a running
minimum, a prefix minimum for IN and a suffix minimum for LOW, so it costs
one pass over the values.  A value v is feasible at level L iff
IN + LOW <= order.  Only feasible cells are visited; every completion of an
infeasible one exceeds the order.  Each kept carry's window ends at
order - LOW[L][v], which is exactly the precision that can still matter,
and each level keeps the list of its nonzero carries.  A carry's inner sum
over the level below, sum_w g_w q^{binom(v-w, 2)} / (q)_{v-w}, is one
Horner chain on one window, a pass per w, with no series product,
inversion or Pochhammer cache (``qproducts._link_sum``, which the move
engine's beta'_n shares; over a step kernel, the two carries at w = v - 1
and w = v added), each carry first checked to reach the sum's truncation;
one whose shift puts it wholly above that is skipped, and the window opens
as a copy of the first carry left.
The cell's own exponent then moves the window's valuation and its sign
negates it; its units (-q^b; q)_v^{+-1} apply on the list, v passes.  In the
n -> oo limit the end rows step theirs, a factor per index (a middle row's
carries differ per v): the innermost row's with its beta_v, on a chain for
the call (``bailey.beta_chain``; a row without units reads one per registry
``BetaSpec``, held here and by no Bailey pair).  At finite n the j_1-blocks
are divided by (q)_{n-j_1} in one more Horner chain.  No carry depends on n,
and LOW only falls as the cap n grows, so the carries of the last (spec,
registry entry, order) are kept, zero ones too, with the t_cap each is exact
to; a later call reuses one whose t_cap reaches its own, as ``_link_sum`` or
the final truncation cuts a longer window.
In the n -> oo limit the grid ends at a proved bound on j_1 (``_j1_bound``)
when its P > 0, else at the heuristic cap 2 isqrt(order) + V + 14.  Summands
with backward moves have unboundedly negative exponents that cancel in
blocks of fixed outermost index, so each complete j_1-block is one block of
``qproducts.vanishing_terms``.  A proved grid runs to its end; elsewhere
three blocks in a row zero to the order end it (an infeasible block below a
feasible one is not counted), and a block past the cap raises
ArithmeticError.  ``qproducts._unit_horner`` sums the blocks with the
outermost units, a factor per index, from the last block down.
``sum_side`` first sums out each F2·B1 pair by lemma f2b1: the raw folds of
(1|3|5, lim3, 1, 1) and (1, lim3, 1, 2) have no bound, and once collapsed
every bundled cell up to level 151 has one.  It then sums out each B1·BC1
pair by lemma b1bc1, which trades two Horner chains for one step kernel;
the step is >= 0 and keeps j_1 >= j_3, so the bound stands.

Valuations.  Every kept carry must start at or above IN[L][v]; one below
it is an internal error (AssertionError naming the cell), whatever the
order, so inner carries meet no order wall.  ``vanishing_terms`` holds
each j_1-block to ``laurent``'s runaway floor (``RunawayValuationError``).

Hand-summed series.  The alpha sides are not chains.  Each display is one
row (h, delta, lag) of one block function of t, which returns its terms
(sign, q-shift, parent, unit triples): q^{e(t)} alpha~_t, where
e(t) = ckt + kt^2 - it - h binom(t+1, 2), less q^{e(u) + c(i+1) +
(2i+2-delta)u - delta} alpha~_u at u = t - lag, with ratio index u + delta
and ratio base d = c - delta (1 if h = 0).  The ratio (-q; q)_r / (-q^d; q)_r
is, by (a; q)_{m+n} = (a; q)_m (a q^m; q)_n, the 2(d - 1) unit factors
(-q; q)_{d-1} / (-q^{r+1}; q)_{d-1} on the term itself, however large r
is.  In the bundled table d = 1, so every term is a signed monomial,
except in the lim2 case form at i = 0, where d = 2.  One loop,
``qproducts.vanishing_sum``, sums every such series; its stopping rule and
runaway guard, ``vanishing_terms``, end the multisum's j_1-blocks too.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import add, neg

from .bailey import (_MOVE_TABLE, Move, RegistryEntry, beta_chain,
                     ratio_bases, registry_entry)
from .laurent import LaurentSeries
from .qproducts import (
    STEP,
    PochFactor,
    SumTerm,
    _binom2,
    _link_sum,
    _unit_horner,
    _units,
    apply_inf_ratio,
    apply_poch_units,
    divide_euler,
    neg_ratio,
    poch_finite,  # noqa: F401  unused; perfbench/selftest.py reads lattice.poch_finite
    vanishing_sum,
    vanishing_terms,
)

KINDS = ("lim1", "lim2", "lim3")


class ScheduleRow(namedtuple("ScheduleRow", "level_off imax_off flip")):
    """One (pair, family) row of the identity table, with int level_off and
    imax_off and flip an int or None.

    level = 6k + level_off; valid i are 0..3k + imax_off; the module label
    has s1 = i when flip is None, else s1 = 3k + flip - i.
    """

    __slots__ = ()

    def level(self, k: int) -> int:
        return 6 * k + self.level_off

    def imax(self, k: int) -> int:
        return 3 * k + self.imax_off

    def s1(self, k: int, i: int) -> int:
        return i if self.flip is None else 3 * k + self.flip - i


SCHEDULE_TABLE: dict[tuple[int, str], ScheduleRow] = {
    (1, "lim1"): ScheduleRow(1, 0, None),
    (1, "lim3"): ScheduleRow(-2, -1, None),
    (2, "lim1"): ScheduleRow(1, 0, 0),
    (2, "lim2"): ScheduleRow(-2, -1, -1),
    (3, "lim1"): ScheduleRow(-1, -1, None),
    (3, "lim3"): ScheduleRow(-4, -2, None),
    (4, "lim1"): ScheduleRow(-1, -1, -1),
    (4, "lim2"): ScheduleRow(-4, -2, -2),
    (5, "lim1"): ScheduleRow(0, 0, None),
    (5, "lim3"): ScheduleRow(-3, -2, None),
}


class Schedule(namedtuple("Schedule", "kind k i pair_id")):
    """One cell of the identity table: the family kind (a str of KINDS),
    the ints k and i, and the registry pair_id it starts from."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int, i: int, pair_id: int):
        if kind not in KINDS:
            raise ValueError(f"unknown schedule family {kind!r}")
        row = SCHEDULE_TABLE.get((pair_id, kind))
        if row is None:
            raise ValueError(
                f"pair {pair_id} is not used with {kind} in the "
                "identity table"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0 <= i <= row.imax(k):
            raise ValueError(
                f"i={i} out of range 0..{row.imax(k)} for "
                f"pair {pair_id}, {kind}, k={k}"
            )
        return tuple.__new__(cls, (kind, k, i, pair_id))

    @classmethod
    def _make(cls, fields) -> Schedule:
        # ``_replace`` builds through ``_make``: validate it too
        return cls(*fields)

    @property
    def row(self) -> ScheduleRow:
        return SCHEDULE_TABLE[(self.pair_id, self.kind)]

    @property
    def base_exp(self) -> int:
        return registry_entry(self.pair_id).base_exp


def expand_schedule(s: Schedule) -> list[Move]:
    """The concrete move word a schedule applies to its registry pair.
    lim1(k, i) walks from k to i with F1 or B1, then closes with BC1 and
    i - 1 steps F1; lim3(k, i) is F2 then lim1(k - 1, i), and lim2(k, i)
    is lim1(k - 1, max(i - 1, 0)) then BC2 if i = 1, else F2."""
    def lim1(k: int, i: int) -> list[Move]:
        word = [Move.F1] * (k - i) if k >= i else [Move.B1] * (i - k)
        return word + ([Move.BC1] + [Move.F1] * (i - 1) if i else [])

    k, i = s.k, s.i
    if s.kind == "lim1":
        return lim1(k, i)
    if s.kind == "lim2":
        return lim1(k - 1, max(i - 1, 0)) + [Move.BC2 if i == 1 else Move.F2]
    return [Move.F2] + lim1(k - 1, i)


# -- closed multisums ---------------------------------------------------------

class Level(namedtuple("Level", "quad lin self_binom link sign numer denom")):
    """One variable j of a chain, its factor of the summand: q^{quad j^2 +
    lin j}, times q^{binom(j, 2)} if ``self_binom`` and (-1)^j if ``sign``,
    times (-q^b; q)_j for each int b in ``numer``, over the same for
    ``denom``.  ``link`` is the kernel K(d), d = j - j' with j' the next
    inner variable: 1/(q)_d if False, q^{binom(d, 2)}/(q)_d if True, and
    the step [d in {0, 1}] if ``STEP``, which only ``_collapse_b1bc1``
    writes and no record holds."""

    __slots__ = ()


class MultisumSpec(namedtuple("MultisumSpec", "pair_id levels prefactors")):
    """A chain multisum over j_1 >= j_2 >= ... >= j_V >= 0: the product of
    its ``levels``, one ``Level`` per variable, outermost first, times

        beta_{j_V} / ((q)_{n-j_1} (q)_{j_1-j_2} ... (q)_{j_{V-1}-j_V})

    with beta the registry pair's, and the base powers a^{...} = q^{c ...}
    folded into each lin.  ``prefactors``, int bases b, are leading factors
    1/(-q^b; q)_n, infinite products in the n -> oo limit.  ``to_dict`` and
    ``from_dict`` alone know the record layout: per-variable quad and lin,
    the 0-indexed variables with a self-binomial, link or sign, and the
    units as [r, b] pairs, innermost first.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        levels = self.levels
        inner_first = range(len(levels) - 1, -1, -1)
        return {
            "pair": self.pair_id,
            "nvars": len(levels),
            "quad": [lv.quad for lv in levels],
            "lin": [lv.lin for lv in levels],
            "self_binoms": [r for r, lv in enumerate(levels) if lv.self_binom],
            "link_binoms": [r for r, lv in enumerate(levels) if lv.link],
            "signs": [r for r, lv in enumerate(levels) if lv.sign],
            "numer": [[r, b] for r in inner_first for b in levels[r].numer],
            "denom": [[r, b] for r in inner_first for b in levels[r].denom],
            "prefactors": list(self.prefactors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultisumSpec":
        return cls(d["pair"], tuple(
            Level(d["quad"][r], d["lin"][r], r in d["self_binoms"],
                  r in d["link_binoms"], r in d["signs"],
                  *(tuple(b for at, b in d[key] if at == r)
                    for key in ("numer", "denom")))
            for r in range(d["nvars"])), tuple(d["prefactors"]))


def build_multisum_spec(s: Schedule) -> MultisumSpec:
    """The closed sum-side multisum for a schedule: its move word folded
    over the move table, one variable per move.  The move applied first is
    the innermost variable, r = V - 1, so a word's first d moves determine
    ``levels[V - d:]``; the base starts at the registry's c and changes by
    each row's ``base_change``.

    A forward move puts its exponent f(j_r, c) and its (-q^a)_{j_r} on
    level r, and its 1/(-q^b)_n on level r - 1 (a prefactor when r = 0).
    A backward move puts -f(j_{r-1}, c) and the link binomial
    binom(j_{r-1} - j_r, 2) on level r - 1, the sign (-1)^{j_{r-1} + j_r}
    on both, and its ratio the other way round.  Memoized on the schedule,
    its word and registry entry.
    """
    return _fold(s, tuple(expand_schedule(s)), registry_entry(s.pair_id))


# every distinct row the fold has written, so equal rows share one object
_ROWS: dict[Level, Level] = {}


@lru_cache(maxsize=None)
def _fold(s: Schedule, word: tuple[Move, ...], entry: RegistryEntry) -> MultisumSpec:
    """The word's spec: one list per ``Level`` field, indexed by variable,
    zipped into rows at the end.  Each ``ValueError`` names the schedule."""
    V = len(word)
    quad, lin, self_binom = [0] * V, [0] * V, [0] * V
    link, sign, numer, denom = [False] * V, [False] * V, [()] * V, [()] * V
    prefactors = ()
    c = entry.base_exp
    for r, move in zip(range(V - 1, -1, -1), word):
        rule = _MOVE_TABLE[move]
        at, sgn = (r - 1, -1) if rule.backward else (r, 1)
        if at < 0:
            raise ValueError(f"{s}: a backward move cannot be outermost")
        quad[at] += sgn * rule.quad
        self_binom[at] += sgn * rule.binom
        lin[at] += sgn * (c + rule.lin)
        if rule.backward:
            link[at] = True
            sign[at] ^= True
            sign[r] ^= True
        try:
            bases = ratio_bases(move, c)
        except ValueError as e:
            raise ValueError(f"{s}: {e}") from None
        if bases is not None:
            up, down = bases
            numer[r] = (up,)
            if r:
                denom[r - 1] = (down,)
            else:
                prefactors = (down,)
        c += rule.base_change
    if any(b not in (0, 1) for b in self_binom):
        raise ValueError(f"{s}: self-binomial coefficients {self_binom} "
                         "are not all 0 or 1")
    return MultisumSpec(s.pair_id, tuple(
        _ROWS.setdefault(row, row) for row in map(
            Level, quad, lin, map(bool, self_binom), link, sign, numer, denom)),
        prefactors)


_INF = 1 << 60


def _min_plus(x: list[int], link: bool | str, b2: list[int]) -> list[int]:
    """m[v] = min over w <= v of x[w] plus the exponent of the ``link``
    kernel at v - w: the prefix minimum, for the step min(x[v-1], x[v]), or
    with binom(v - w, 2) a scan down from w = v that stops once prefix[w]
    plus the binomial, which never decreases, cannot win.  m[v] is ``_INF``
    exactly when every x[w] the kernel reaches is."""
    if link is STEP:
        return x[:1] + list(map(min, x, x[1:]))
    prefix = list(accumulate(x, min))
    if not link:
        return prefix
    out = []
    for v in range(len(x)):
        best = _INF
        for w in range(v, -1, -1):
            d = b2[v - w]
            if prefix[w] + d >= best:
                break
            if x[w] + d < best:
                best = x[w] + d
        out.append(best)
    return out


def _tables(spec: MultisumSpec, order: int, cap: int, entry: RegistryEntry):
    """IN, LOW and feasibility tables on the (level, value) grid, for the
    spec's registry ``entry``.

    Returns ``(IN, LOW, feas, own)``, where ``own[L][v]`` is the exponent
    quad v^2 + lin v (+ binom(v, 2) on a self-binomial level) that level L
    contributes at j_L = v.  Both tables are one min-plus pass
    of ``_min_plus`` per level with the level's link kernel: IN from the
    inside out over the inner values w <= v, LOW from the outside in over
    the outer values u >= v, on the reversed cost row (the step kernel,
    v - w in {0, 1}, reads the same either way).
    """
    levels = spec.levels
    V = len(levels)
    bq, bl = entry.beta.mono_quad, entry.beta.mono_lin
    values = range(cap + 1)
    b2 = [_binom2(d) for d in values]
    own = []
    for lv in levels:
        row = [lv.quad * v * v + lv.lin * v for v in values]
        own.append(list(map(add, row, b2)) if lv.self_binom else row)

    IN: list[list[int]] = [[]] * V
    IN[V - 1] = [e + bq * v * v + bl * v for v, e in enumerate(own[V - 1])]
    for L in range(V - 2, -1, -1):
        IN[L] = list(map(add, own[L],
                         _min_plus(IN[L + 1], levels[L].link, b2)))

    LOW = [[0] * (cap + 1)]
    feas = [[e <= order for e in IN[0]]]
    for L in range(1, V):
        # cost[cap - u]: least outer exponent through a feasible j_{L-1} = u
        cost = [lo + e if ok else _INF for lo, e, ok in
                zip(reversed(LOW[L - 1]), reversed(own[L - 1]), reversed(feas[L - 1]))]
        LOW.append(_min_plus(cost, levels[L - 1].link, b2)[::-1])
        feas.append([lo < _INF and lo + e <= order for lo, e in zip(LOW[L], IN[L])])
    return IN, LOW, feas, own


def _j1_bound(spec: MultisumSpec, order: int, entry: RegistryEntry) -> int | None:
    """The last j_1 whose block can reach ``order``, or None if unproved.

    Twice a chain's exponent is sum A_l j_l^2 + B_l j_l plus link binomials
    (>= 0), with A, B as below; the rest has valuation zero.  As j_1 >= ...
    >= 0, Abel summation bounds it by P j_1^2 + S j_1, P and S the least
    prefix sums of A and B.  If P > 0, no block past the largest v with
    P v^2 + S v <= 2 order reaches the order."""
    beta = entry.beta  # its monomial joins l = V - 1
    A = [2 * lv.quad + lv.self_binom for lv in spec.levels]
    B = [2 * lv.lin - lv.self_binom for lv in spec.levels]
    A[-1] += 2 * beta.mono_quad
    B[-1] += 2 * beta.mono_lin
    P, S = min(accumulate(A)), min(accumulate(B))
    if P <= 0:
        return None
    # floor of the larger root of P v^2 + S v - 2 order (the vertex if none)
    return (isqrt(max(S * S + 8 * P * order, 0)) - S) // (2 * P)


# the DP's innermost betas without units, one stepped chain per BetaSpec; the
# last finite-n carries, (L, v) -> (t_cap, ()) or (t_cap, (carry,))
_beta_chain = lru_cache(maxsize=None)(beta_chain)
_finite_carries = lru_cache(maxsize=1)(lambda spec, entry, order: {})


def eval_multisum(spec: MultisumSpec, order: int, *,
                  finite_n: int | None = None) -> LaurentSeries:
    """Evaluate the multisum exactly to ``order``.

    With ``finite_n`` the sum is the finite beta sequence member at n
    (outer factor 1/(q)_{n-j_1} and finite leading Pochhammers), reusing
    the carries of the call before it that are still exact, when that call
    had the same spec, registry entry and order; without it, the n -> oo
    limit (outer factor -> 1, leading factors -> infinite products), summed
    in j_1-blocks by ``_unit_horner``.
    """
    levels = spec.levels
    V = len(levels)
    entry = registry_entry(spec.pair_id)
    n = finite_n
    # in the limit the innermost row's units step with beta, on a call's chain
    inner = levels[-1]
    beta = (beta_chain(entry.beta, tuple(_units(inner, 0, 1)))
            if (inner.numer or inner.denom) and n is None else _beta_chain(entry.beta))
    cap = n if n is not None else _j1_bound(spec, order, entry)
    proved = cap is not None
    if not proved:
        cap = 2 * isqrt(max(order, 1)) + V + 14
    IN, LOW, feas, own = _tables(spec, order, cap, entry)

    # nonzero[L]: the nonzero carries (v, lo, window) at level L, v ascending
    nonzero: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(V)]
    memo = _finite_carries(spec, entry, order) if n is not None else None

    def add_carries(v: int) -> None:
        """Append the nonzero carries at j = v, innermost level first."""
        for L in range(V - 1, -1, -1):
            if not feas[L][v]:
                continue
            lv = levels[L]
            t_cap = order - LOW[L][v]
            hit = memo and memo.get((L, v))
            if hit and hit[0] >= t_cap:
                nonzero[L] += hit[1]
                continue
            top = t_cap - own[L][v]
            if L == V - 1:
                lo, a = beta(v, top)
            else:
                lo, a = _link_sum(nonzero[L + 1], v, top, lv.link)
            # in the limit the end rows step theirs: on the chain, in _unit_horner
            if (lv.numer or lv.denom) and (0 < L < V - 1 or n is not None):
                apply_poch_units(a, _units(lv, 0, v))
            k = next((k for k, c in enumerate(a) if c), None)
            got = ()  # zero to t_cap
            if k is not None:
                lo += own[L][v] + k
                if lo < IN[L][v]:
                    raise AssertionError(
                        f"carry at level {L}, j={v} starts at q^{lo}, below its "
                        f"proved valuation q^{IN[L][v]}")
                del a[:k]
                if lv.sign and v % 2:
                    a[:] = map(neg, a)
                got = ((v, lo, a),)
                nonzero[L] += got
            if memo is not None:
                memo[L, v] = t_cap, got

    # at finite n each j_1-block is divided by (q)_{n-j_1} on the way
    if n is not None:
        for v in range(n + 1):
            add_carries(v)
        lo, a = _link_sum(nonzero[0], n, order, False)
        apply_poch_units(a, [(PochFactor(-1, b, 1), n, -1) for b in spec.prefactors])
        return LaurentSeries.from_window(lo, a, order)

    def block(v: int) -> list[SumTerm]:
        # the rule reads a block's shift, its window waits in nonzero[0]; a zero
        # block is dead, unless on a proved grid or infeasible below a feasible one
        if v <= cap:
            add_carries(v)
            if nonzero[0] and nonzero[0][-1][0] == v:
                return [(1, nonzero[0][-1][1], None, ())]
            if proved or not feas[0][v] and any(feas[0][v:]):
                return []
        elif not proved:
            raise ArithmeticError(
                f"multisum did not stabilize within j_1 <= {cap}; "
                "the summand family appears not to converge")
        return [(1, order + 1, None, ())]

    list(vanishing_terms(block, order))  # its blocks are kept in nonzero[0]
    # a live block's window ends at t_cap = order, since LOW[0] is 0, and a
    # one-row spec's units are on its chain already
    outer = levels[0] if V > 1 else inner._replace(numer=(), denom=())
    lo, a = _unit_horner(nonzero[0], outer, order)
    # 1/(-q^b; q)_inf = [(q; q)_inf / (-q^b; q)_inf] / (q; q)_inf, theta series both
    for b in spec.prefactors:
        apply_inf_ratio(a, 1, b)
        divide_euler(a)
    return LaurentSeries.from_window(lo, a, order)


def sum_side(s: Schedule, order: int) -> LaurentSeries:
    """(q)_inf * beta^final_infinity, from the closed multisum with each
    F2·B1 pair summed out, then each B1·BC1 pair, whose outer row keeps a
    step link; the record prints the raw fold."""
    return eval_multisum(_sum_spec(s), order)


def _sum_spec(s: Schedule) -> MultisumSpec:
    """The memoized fold of ``s`` with lemma f2b1 and then lemma b1bc1
    applied, a spec rebuilt on each call."""
    return _collapse_b1bc1(_collapse_f2b1(build_multisum_spec(s)))


def _collapse_f2b1(spec: MultisumSpec) -> MultisumSpec:
    """The spec with each j_2 summed out by lemma f2b1 whose row is its
    summand (-1)^{j_2} / (-q^c; q)_{j_2}, between a linked j_1 without a
    self-binomial and a j_3 with one: the lemma's one term puts
    q^{c (j_1 - j_3) + binom(j_1, 2) - binom(j_3, 2)} (-1)^{j_3}
    / (-q^c; q)_{j_1} on them, and j_1's link now reaches j_3."""
    levels = list(spec.levels)
    for r in range(len(levels) - 2, 0, -1):
        outer, mid, inner = levels[r - 1:r + 2]
        if (len(mid.denom) == 1 and mid == Level(0, 0, False, False, True, (), mid.denom)
                and outer.link and not outer.self_binom and inner.self_binom):
            (c,) = mid.denom
            levels[r - 1:r + 2] = [
                outer._replace(lin=outer.lin + c, self_binom=True,
                               denom=outer.denom + (c,)),
                inner._replace(lin=inner.lin - c, self_binom=False, sign=not inner.sign)]
    return spec._replace(levels=tuple(levels))


# the row a B1 move leaves on the BC1 variable above it
_B1BC1_MID = Level(0, -1, False, True, True, (), ())


def _collapse_b1bc1(spec: MultisumSpec) -> MultisumSpec:
    """The spec with each j_2 summed out by lemma b1bc1 whose row is its
    summand (-1)^{j_2} q^{-j_2} with the link binom(j_2 - j_3, 2), below an
    unlinked j_1: the sum over j_2 is (-1)^{j_1} q^{-j_1} [j_1 - j_3 in
    {0, 1}], so j_1 takes lin - 1, the other sign and the ``STEP`` link to
    j_3, whose row is unchanged."""
    levels = list(spec.levels)
    for r in range(len(levels) - 2, 0, -1):
        outer = levels[r - 1]
        if levels[r] == _B1BC1_MID and not outer.link:
            levels[r - 1:r + 1] = [outer._replace(
                lin=outer.lin - 1, sign=not outer.sign, link=STEP)]
    return spec._replace(levels=tuple(levels))


def sum_side_finite(s: Schedule, n: int, order: int) -> LaurentSeries:
    """The closed-multisum value of beta^final_n at finite n, the move
    engine's check; calls for n = 0, 1, ... on s share one DP's carries."""
    return eval_multisum(build_multisum_spec(s), order, finite_n=n)


# -- alpha side ---------------------------------------------------------------

def alpha_side(s: Schedule, order: int, *, unified: bool = False) -> LaurentSeries:
    """The limiting alpha-series sum, without its 1/(q^c; q)_inf prefactor.

    By default the case-split forms are used (the lim2 family has separate
    displays for i = 0 and i = 1); with ``unified=True`` the single closed
    form of each family is used for every i, which is what the quintuple
    product collapses to.  The two choices differ only for lim2 with i = 0,
    where case = (1 + q) * unified.  Each display is a row (h, delta, lag)
    of the module docstring's form: lim1 (0, 0, 0); lim3 and the lim2 case
    at i = 0 (1, 0, 0); lim2 unified and case at i >= 2 (1, 1, 0), and case
    at i = 1 (1, 1, 1), the unified row with its negated pieces a block late.
    """
    c = s.base_exp
    k, i = s.k, s.i
    tilde = registry_entry(s.pair_id).alpha_tilde_monomial
    h, delta, lag = ((0, 0, 0) if s.kind == "lim1" else
                     (1, 0, 0) if s.kind == "lim3" or i == 0 and not unified else
                     (1, 1, int(i == 1 and not unified)))
    d = c - delta if h else 1  # the ratio base; d = 1 makes the ratio 1
    if d < 1:  # (-1; q)_r is not unit-leading
        raise ValueError(f"{s}: the alpha side's ratio base q^{d} is below q^1")

    def e(t: int) -> int:
        return c * k * t + k * t * t - i * t - h * (t * t + t) // 2

    def block(t: int) -> list[SumTerm]:
        # (sign, shift, ratio index, tilde index) per piece; none at u < 0
        u = t - lag
        second = e(u) + c * (i + 1) + (2 * i + 2 - delta) * u - delta
        terms = []
        for sign, shift, r, ti in ((1, e(t), t, t), (-1, second, u + delta, u)):
            mono = tilde(ti) if ti >= 0 else None
            if mono is not None:
                units = neg_ratio(1, r + 1, d - 1, d - 1) if d > 1 else ()
                terms.append((sign * mono[0], shift + mono[1], None, units))
        return terms

    return vanishing_sum(block, order)


def verify_limit_identity(s: Schedule, order: int,
                          alpha: LaurentSeries | None = None) -> bool:
    """sum_side * (q^c; q)_inf == alpha_side (case forms), to order.

    ``alpha`` is the case-form alpha side, when the caller has it already;
    the multisum is ``sum_side``'s, ``_sum_spec(s)``, without its leading
    factor, which ``apply_inf_ratio`` brings in on its window."""
    spec = _sum_spec(s)
    lo, a = eval_multisum(spec._replace(prefactors=()), order).window(order)
    apply_inf_ratio(a, s.base_exp, *spec.prefactors)
    rhs = alpha_side(s, order) if alpha is None else alpha
    return LaurentSeries.from_window(lo, a, order).eq_to_order(rhs, order)
