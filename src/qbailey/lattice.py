"""Schedules over the Bailey lattice and their closed multisum sum-sides.

A ``Schedule`` names one cell of the identity table: a registry pair, one of
the three move families, and the parameters (k, i).  ``expand_schedule``
produces the concrete move word; ``build_multisum_spec`` folds that word
over the move table (``bailey._MOVE_TABLE``), one variable per move, into
the closed multisum for the limiting beta sequence; ``sum_side`` evaluates
it; ``alpha_side`` evaluates the limiting alpha-series; and
``verify_limit_identity`` checks the resulting equality

    sum_side * (q^c; q)_inf  =  alpha_side        (a = q^c the registry base)

exactly, coefficientwise, to the requested order.

Multisum evaluation.  Every closed sum here is a chain: the summand factors
into per-variable monomials and Pochhammer pieces plus adjacent-difference
pieces 1/(q)_{j_r - j_{r+1}} and q^{binom(j_r - j_{r+1}, 2)}.  The evaluator
runs a dynamic program from the innermost variable outward, keeping one
partial sum (a carry) per feasible (level, value) as a coefficient window,
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
Horner chain on one window: going from w - 1 to w it shifts by v - w (on a
linked level), divides by (1 - q^{v-w+1}) and adds g_w, each step a single
pass (``qproducts.binomial_step``), so no series product, inversion or
Pochhammer cache is involved; every carry is first checked to reach the
sum's truncation.  The cell's own exponent then moves the window's
valuation, its units apply on the same list and its sign negates it; a
series is built only once per j_1-block.  For the schedules with backward
moves the raw summand family is only conditionally summable: individual
terms have unboundedly negative exponents and cancel in blocks of fixed
outermost index.  The evaluator therefore sums complete j_1-blocks and
stops only after three consecutive blocks vanish to the requested order
(a margin against non-monotonic low-index behavior); ``extra_dead``
extends that margin so callers can re-certify stability under a raised
cap.

Most printed simplified forms (``simplified_forms``) are signed sums of
such chain specs, each shifted by a power of q, evaluated by the same DP.

Hand-summed series.  The alpha sides and the two reindexed single sums
with affine Pochhammer lengths are not chains.  Each is written as a block
function of t that returns its terms (sign, q-shift, unit triples), the
unit triples being finite Pochhammer symbols applied in one pass per
factor.  One loop, ``qproducts.vanishing_sum``, sums every such series
and holds their one stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import isqrt
from operator import add, neg
from typing import Callable

from .bailey import (_MOVE_TABLE, Move, _binom2, compose_exact, ratio_bases,
                     registry_entry, registry_pair)
from .laurent import LaurentSeries, check_floor, monomial, zero
from .qproducts import (
    PochFactor,
    Q_FACTOR,
    SumTerm,
    apply_poch_units,
    binomial_step,
    inv_poch_finite,
    inv_poch_inf,
    neg_ratio,
    poch_finite,  # noqa: F401  unused here; the benchmark tracer wraps this binding
    poch_inf,
    term_sum,
    vanishing_sum,
)

KINDS = ("lim1", "lim2", "lim3")


@dataclass(frozen=True)
class ScheduleRow:
    """One (pair, family) row of the identity table.

    level = 6k + level_off; valid i are 0..3k + imax_off; the module label
    has s1 = i when flip is None, else s1 = 3k + flip - i.
    """

    level_off: int
    imax_off: int
    flip: int | None

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


@dataclass(frozen=True)
class Schedule:
    kind: str
    k: int
    i: int
    pair_id: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule family {self.kind!r}")
        row = SCHEDULE_TABLE.get((self.pair_id, self.kind))
        if row is None:
            raise ValueError(
                f"pair {self.pair_id} is not used with {self.kind} in the "
                "identity table"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.i <= row.imax(self.k):
            raise ValueError(
                f"i={self.i} out of range 0..{row.imax(self.k)} for "
                f"pair {self.pair_id}, {self.kind}, k={self.k}"
            )

    @property
    def row(self) -> ScheduleRow:
        return SCHEDULE_TABLE[(self.pair_id, self.kind)]

    @property
    def base_exp(self) -> int:
        return registry_entry(self.pair_id).base_exp


def expand_schedule(s: Schedule) -> list[Move]:
    """The concrete move word a schedule applies to its registry pair."""
    k, i = s.k, s.i
    if s.kind == "lim1":
        word = [Move.F1] * (k - i) if k >= i else [Move.B1] * (i - k)
        if i >= 1:
            word += [Move.BC1] + [Move.F1] * (i - 1)
        return word
    if s.kind == "lim2":
        if i == 0:
            return [Move.F1] * (k - 1) + [Move.F2]
        if i == 1:
            return [Move.F1] * (k - 1) + [Move.BC2]
        word = [Move.F1] * (k - i) if k >= i else [Move.B1] * (i - k)
        return word + [Move.BC1] + [Move.F1] * (i - 2) + [Move.F2]
    # lim3
    word = [Move.F2]
    word += [Move.F1] * (k - i - 1) if k - i - 1 >= 0 else [Move.B1] * (i + 1 - k)
    if i >= 1:
        word += [Move.BC1] + [Move.F1] * (i - 1)
    return word


# -- closed multisums ---------------------------------------------------------

@dataclass(frozen=True)
class MultisumSpec:
    """A chain multisum over j_1 >= j_2 >= ... >= j_V >= 0 (0-indexed vars).

    The summand is

        (-1)^{sum of j_r over signs} * q^E * prod(numer) / prod(denom)
        * beta_{j_{V-1}} / ((q)_{n-j_0} (q)_{j_0-j_1} ... (q)_{j_{V-2}-j_{V-1}})

    with E = sum quad[r] j_r^2 + lin[r] j_r + binom(j_r, 2) over self_binoms
    + binom(j_r - j_{r+1}, 2) over link_binoms.  numer/denom entries (r, b)
    mean a factor (-q^b; q)_{j_r}; prefactors hold exponents b of leading
    factors 1/(-q^b; q)_n, which become infinite products in the n -> oo
    limit.  beta is the registry pair's beta sequence, and the base-power
    contributions a^{...} = q^{c ...} are folded into lin.
    """

    pair_id: int
    nvars: int
    quad: tuple[int, ...]
    lin: tuple[int, ...]
    self_binoms: tuple[int, ...]
    link_binoms: tuple[int, ...]
    signs: tuple[int, ...]
    numer: tuple[tuple[int, int], ...]
    denom: tuple[tuple[int, int], ...]
    prefactors: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "pair": self.pair_id,
            "nvars": self.nvars,
            "quad": list(self.quad),
            "lin": list(self.lin),
            "self_binoms": list(self.self_binoms),
            "link_binoms": list(self.link_binoms),
            "signs": list(self.signs),
            "numer": [list(x) for x in self.numer],
            "denom": [list(x) for x in self.denom],
            "prefactors": list(self.prefactors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultisumSpec":
        return cls(
            pair_id=d["pair"],
            nvars=d["nvars"],
            quad=tuple(d["quad"]),
            lin=tuple(d["lin"]),
            self_binoms=tuple(d["self_binoms"]),
            link_binoms=tuple(d["link_binoms"]),
            signs=tuple(d["signs"]),
            numer=tuple((x[0], x[1]) for x in d["numer"]),
            denom=tuple((x[0], x[1]) for x in d["denom"]),
            prefactors=tuple(d["prefactors"]),
        )


def build_multisum_spec(s: Schedule) -> MultisumSpec:
    """The closed sum-side multisum for a schedule: its move word folded
    over the move table, one variable per move.  The move applied first is
    the innermost variable, r = V - 1, and the base starts at the
    registry's c and changes by each row's ``base_change``.

    A forward move puts its exponent f(j_r, c) and its (-q^a)_{j_r} on r,
    and its 1/(-q^b)_n on r - 1 (a prefactor when r = 0).  A backward move
    puts -f(j_{r-1}, c), the link binomial binom(j_{r-1} - j_r, 2) and the
    sign (-1)^{j_{r-1} + j_r} on the pair (r - 1, r), and its ratio the
    other way round.
    """
    word = expand_schedule(s)
    V = len(word)
    quad, lin, self_binom, sign = [0] * V, [0] * V, [0] * V, [0] * V
    links, numer, denom, prefactors = [], [], [], []
    c = s.base_exp
    for r, move in zip(range(V - 1, -1, -1), word):
        rule = _MOVE_TABLE[move]
        at, sgn = (r - 1, -1) if rule.backward else (r, 1)
        if at < 0:
            raise ValueError(f"{s}: a backward move cannot be outermost")
        quad[at] += sgn * rule.quad
        self_binom[at] += sgn * rule.binom
        lin[at] += sgn * (c + rule.lin)
        if rule.backward:
            links.append(r - 1)
            sign[r - 1] ^= 1
            sign[r] ^= 1
        bases = ratio_bases(move, c)
        if bases is not None:
            up, down = bases
            numer.append((r, up))
            if r:
                denom.append((r - 1, down))
            else:
                prefactors.append(down)
        c += rule.base_change
    if any(b not in (0, 1) for b in self_binom):
        raise ValueError(f"{s}: self-binomial coefficients {self_binom} "
                         "are not all 0 or 1")
    return MultisumSpec(
        s.pair_id, V, tuple(quad), tuple(lin),
        tuple(r for r in range(V) if self_binom[r]), tuple(sorted(links)),
        tuple(r for r in range(V) if sign[r]), tuple(numer), tuple(denom),
        tuple(prefactors))


_NEG_Q = PochFactor(-1, 1, 1)  # the base of (-q; q)_n

_INF = 1 << 60


def _tables(spec: MultisumSpec, order: int, cap: int):
    """IN, LOW and feasibility tables on the (level, value) grid.

    Returns ``(LOW, feas, own)``, where ``own[L][v]`` is the exponent
    quad[L] v^2 + lin[L] v (+ binom(v, 2) on a self-binomial level) that
    variable L contributes at j_L = v.  A level without a link binomial is a
    running minimum: a prefix minimum for IN, a suffix minimum for LOW.  A
    linked level adds binomials from one table; IN scans w = v, v-1, ...
    and stops once the prefix minimum plus the binomial cannot win, and
    LOW minimizes over the feasible outer values only.
    """
    V = spec.nvars
    entry = registry_entry(spec.pair_id)
    bq, bl = entry.beta.mono_quad, entry.beta.mono_lin
    values = range(cap + 1)
    b2 = [_binom2(d) for d in values]
    own = []
    for L in range(V):
        a, b = spec.quad[L], spec.lin[L]
        row = [a * v * v + b * v for v in values]
        own.append(list(map(add, row, b2)) if L in spec.self_binoms else row)

    IN: list[list[int]] = [[]] * V
    IN[V - 1] = [e + bq * v * v + bl * v for v, e in enumerate(own[V - 1])]
    for L in range(V - 2, -1, -1):
        inner = IN[L + 1]
        prefix_min = list(accumulate(inner, min))
        if L not in spec.link_binoms:
            IN[L] = list(map(add, own[L], prefix_min))
            continue
        row = []
        for v in values:
            # b2 never decreases, so no w' <= w beats prefix_min[w] + b2[v-w]
            best = _INF
            for w in range(v, -1, -1):
                d = b2[v - w]
                if prefix_min[w] + d >= best:
                    break
                if inner[w] + d < best:
                    best = inner[w] + d
            row.append(own[L][v] + best)
        IN[L] = row

    LOW = [[0] * (cap + 1)]
    feas = [[e <= order for e in IN[0]]]
    for L in range(1, V):
        # cost[u]: least outer exponent through a feasible j_{L-1} = u
        cost = [lo + e if ok else _INF
                for lo, e, ok in zip(LOW[L - 1], own[L - 1], feas[L - 1])]
        if (L - 1) in spec.link_binoms:
            live = [(u, c) for u, c in enumerate(cost) if c < _INF]
            row = [min([c + b2[u - v] for u, c in live if u >= v], default=_INF)
                   for v in values]
        else:
            row = list(accumulate(reversed(cost), min))[::-1]
        LOW.append(row)
        feas.append([lo < _INF and lo + e <= order for lo, e in zip(row, IN[L])])
    return LOW, feas, own


def _units(spec: MultisumSpec, level: int, v: int) -> list:
    """The unit triples (-q^b; q)_v^{+-1} that variable ``level`` carries."""
    return ([(PochFactor(-1, b, 1), v, 1) for r, b in spec.numer if r == level]
            + [(PochFactor(-1, b, 1), v, -1) for r, b in spec.denom if r == level])


def _link_sum(carries: list[tuple[int, int, list[int]]], v: int, top: int,
              linked: bool) -> tuple[int, list[int]]:
    """sum over carries (w, lo, g) of g * q^{binom(v-w, 2) linked} / (q)_{v-w},
    as a window up to ``top``.  A carry is a window: g[i] is the
    coefficient of q^{lo+i}, known up to q^{lo+len(g)-1}.  The carries
    come in ascending w <= v.

    Since q^{binom(d, 2)} / (q)_d = prod_{m=1..d} q^{m-1} / (1 - q^m), the
    sum is the Horner chain

        g_v + q^0/(1 - q) (g_{v-1} + q^1/(1 - q^2) (g_{v-2} + ...)),

    run on one dense window from the carries' lowest valuation up to
    ``top``: going from w - 1 to w shifts by v - w (on a linked level
    only), divides by (1 - q^{v-w+1}) and adds g_w with one slice
    operation, and after the last carry the steps go on up to v.  Every
    step is one pass over the window (``qproducts.binomial_step``).  A
    carry must itself reach ``top`` once shifted by its binom(v-w, 2); one
    that does not would make the sum claim coefficients it does not know.
    """
    lo = top + 1
    for w, glo, g in carries:
        s = _binom2(v - w) if linked else 0
        if glo + len(g) - 1 + s < top:
            raise AssertionError(
                f"carry at j={w} is exact to {glo + len(g) - 1 + s} after its "
                f"shift, short of {top}")
        if g:
            lo = min(lo, glo)
    if lo > top:
        return top + 1, []
    check_floor(lo, top)
    n = top - lo + 1
    a = [0] * n
    u = carries[0][0]
    for w, glo, g in carries + [(v, lo, [])]:
        for u in range(u + 1, w + 1):
            d = v - u
            if linked and d:
                a = ([0] * d + a)[:n]
            binomial_step(a, d + 1, 1, -1)
        i = glo - lo  # the slice stops at top, and g is read no further
        a[i:i + len(g)] = map(add, a[i:i + len(g)], g)
        u = w
    return lo, a


def eval_multisum(spec: MultisumSpec, order: int, *, finite_n: int | None = None,
                  extra_dead: int = 0) -> LaurentSeries:
    """Evaluate the multisum exactly to ``order``.

    With ``finite_n`` the sum is the finite beta sequence member at n
    (outer factor 1/(q)_{n-j_1} and finite leading Pochhammers); without
    it, the n -> oo limit (outer factor -> 1, leading factors -> infinite
    products), summed in j_1-blocks until three consecutive blocks (plus
    ``extra_dead`` more) vanish to the requested order.
    """
    V = spec.nvars
    pair = registry_pair(spec.pair_id)
    if finite_n is not None:
        cap = finite_n
    else:
        cap = 2 * isqrt(max(order, 1)) + V + 14
    LOW, feas, own = _tables(spec, order, cap)

    # nonzero[L]: the nonzero carries (v, lo, window) at level L, v ascending
    nonzero: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(V)]
    need_dead = 3 + extra_dead
    dead = 0

    for v in range(cap + 1):
        for L in range(V - 1, -1, -1):
            if not feas[L][v]:
                continue
            t_cap = order - LOW[L][v]
            top = t_cap - own[L][v]
            if L == V - 1:
                lo, a = pair.beta(v, top).window(top)
            else:
                lo, a = _link_sum(nonzero[L + 1], v, top, L in spec.link_binoms)
            apply_poch_units(a, _units(spec, L, v))
            k = next((k for k, c in enumerate(a) if c), None)
            if k is None:
                continue  # zero to t_cap
            lo += own[L][v] + k
            check_floor(lo, t_cap)
            del a[:k]
            if L in spec.signs and v % 2:
                a[:] = map(neg, a)
            nonzero[L].append((v, lo, a))
        if nonzero[0] and nonzero[0][-1][0] == v:
            dead = 0
        elif finite_n is None:
            dead += 1
            if dead >= need_dead and v >= 4:
                break
    else:
        if finite_n is None:
            raise ArithmeticError(
                f"multisum did not stabilize within j_1 <= {cap}; "
                "the summand family appears not to converge"
            )

    # one series per block, each exact to t_cap = order since LOW[0] is 0;
    # at finite n each block is divided by (q)_{n-j_1}
    n = finite_n
    total = term_sum([(1, 0, lambda o, b=LaurentSeries.from_window(lo, a, order): b,
                       () if n is None else ((Q_FACTOR, n - v, -1),))
                      for v, lo, a in nonzero[0]], order)
    if n is not None:
        return compose_exact(order, 0, lambda o: total,
                             *[(PochFactor(-1, b, 1), n, -1) for b in spec.prefactors])
    # 1/(-q^b)_inf = 1 + O(q) is exact to 0 even below a negative order
    for b in spec.prefactors:
        total = total * inv_poch_inf(PochFactor(-1, b, 1), max(order, 0))
    return total.truncated(order)


def sum_side(s: Schedule, order: int, *, extra_dead: int = 0) -> LaurentSeries:
    """(q)_inf * beta^final_infinity, from the closed multisum."""
    return eval_multisum(build_multisum_spec(s), order, extra_dead=extra_dead)


def sum_side_finite(s: Schedule, n: int, order: int) -> LaurentSeries:
    """The closed-multisum value of beta^final_n at finite n (for
    cross-validation against the move engine)."""
    return eval_multisum(build_multisum_spec(s), order, finite_n=n)


# -- alpha side ---------------------------------------------------------------

def alpha_side(s: Schedule, order: int, *, unified: bool = False) -> LaurentSeries:
    """The limiting alpha-series sum, without its 1/(q^c; q)_inf prefactor.

    By default the case-split forms are used (the lim2 family has separate
    displays for i = 0 and i = 1); with ``unified=True`` the single closed
    form of each family is used for every i, which is what the quintuple
    product collapses to.  The two choices differ only for lim2 with i = 0,
    where case = (1 + q) * unified.
    """
    c = s.base_exp
    k, i = s.k, s.i
    tilde = registry_entry(s.pair_id).alpha_tilde_monomial

    def block(t: int) -> list[SumTerm]:
        # pieces: (exponent shift, units, tilde index); the second is negated
        if s.kind == "lim1":
            e = c * k * t + k * t * t - i * t
            pieces = [(e, (), t), (e + c * (i + 1) + 2 * i * t + 2 * t, (), t)]
        elif s.kind == "lim2" and (unified or i > 1):
            e = c * k * t + k * t * t - i * t - (t * t + t) // 2
            ratio = neg_ratio(1, c - 1, t, t)
            # times (1 + q^{t+1}) / (1 + q^{c+t-1})
            extra = ratio + neg_ratio(t + 1, c + t - 1, 1, 1)
            pieces = [(e, ratio, t),
                      (e + c * (i + 1) + t - 1 + 2 * i * t, extra, t)]
        elif s.kind == "lim3" or i == 0:
            # the lim2 display at i = 0 is the lim3 form at i = 0
            e = c * k * t + k * t * t - i * t - (t * t + t) // 2
            ratio = neg_ratio(1, c, t, t)
            pieces = [(e, ratio, t), (e + c * (i + 1) + 2 * t * (i + 1), ratio, t)]
        else:  # lim2, i == 1, the separate two-term display
            if t == 0:
                pieces = [(0, (), 0)]
            else:
                head = c * t + (t * t - t) // 2 - t
                ratio = neg_ratio(1, c - 1, t, t)
                pieces = [
                    (head + c * (k - 1) * t + (k - 1) * t * t, ratio, t),
                    (head + c * (k - 1) * (t - 1) + (k - 1) * (t - 1) * (t - 1)
                     + c + 2 * t - 2, ratio, t - 1),
                ]
        terms = []
        for idx, (e, units, ti) in enumerate(pieces):
            mono = tilde(ti)
            if mono is not None:
                sign, te = mono
                terms.append((sign if idx % 2 == 0 else -sign, e + te, None, units))
        return terms

    return vanishing_sum(block, order)


def alpha_side_lim1_i0_form(s: Schedule, order: int) -> LaurentSeries:
    """The separately displayed i = 0 limit sum for the first family:
    sum_t a^{kt} q^{kt^2} (1 - a q^{2t}) alpha~_t."""
    c, k = s.base_exp, s.k
    tilde = registry_entry(s.pair_id).alpha_tilde_monomial

    def block(t: int) -> list[SumTerm]:
        mono = tilde(t)
        if mono is None:
            return []
        sign, te = mono
        e = c * k * t + k * t * t + te
        return [(sign, e, None, ()), (-sign, e + c + 2 * t, None, ())]

    return vanishing_sum(block, order)


def verify_limit_identity(s: Schedule, order: int,
                          alpha: LaurentSeries | None = None) -> bool:
    """sum_side * (q^c; q)_inf == alpha_side (case forms), to order.

    ``alpha`` is the case-form alpha side, when the caller has it already.
    (q^c; q)_inf = 1 + O(q) is exact to 0 even below a negative order."""
    lhs = sum_side(s, order) * poch_inf(PochFactor(1, s.base_exp, 1), max(order, 0))
    rhs = alpha_side(s, order) if alpha is None else alpha
    return lhs.eq_to_order(rhs, order)


def verify_remark_relations(k: int, order: int) -> bool:
    """The consistency relations tying the case-split alpha forms to the
    unified ones: at base q^2, unified|_{i=1} equals the i = 1 display and
    (1+q) * unified|_{i=0} equals the i = 0 display; and for every pair the
    first-family unified form at i = 0 equals its separate i = 0 display."""
    ok = True
    for pid in (2, 4):
        s1 = Schedule("lim2", k, 1, pid)
        ok &= alpha_side(s1, order).eq_to_order(
            alpha_side(s1, order, unified=True), order)
        s0 = Schedule("lim2", k, 0, pid)
        case = alpha_side(s0, order)
        unified = compose_exact(order, 0, partial(alpha_side, s0, unified=True),
                                (_NEG_Q, 1, 1))
        ok &= case.eq_to_order(unified, order)
    for pid in (1, 2, 3, 4, 5):
        kind = "lim1"
        s0 = Schedule(kind, k, 0, pid)
        ok &= alpha_side(s0, order).eq_to_order(
            alpha_side_lim1_i0_form(s0, order), order)
    return ok


# -- the two collapse lemmas --------------------------------------------------

def lemma_b1bc1(j1: int, j3: int, order: int) -> bool:
    """sum over j1 >= j2 >= j3 of (-1)^{j2+j3} q^{-j2+binom(j2-j3,2)}
    / ((q)_{j1-j2} (q)_{j2-j3})  ==  q^{-j1} * (1, -1, 0) according to
    j1 = j3, j1 = j3 + 1, or otherwise."""
    if not j1 >= j3 >= 0:
        raise ValueError("need j1 >= j3 >= 0")
    lhs = term_sum(
        [(-1 if (j2 + j3) % 2 else 1, -j2 + _binom2(j2 - j3), None,
          ((Q_FACTOR, j1 - j2, -1), (Q_FACTOR, j2 - j3, -1)))
         for j2 in range(j3, j1 + 1)], order)
    if j1 == j3:
        rhs = monomial(1, -j1, order)
    elif j1 == j3 + 1:
        rhs = monomial(-1, -j1, order)
    else:
        rhs = zero(order)
    return lhs.eq_to_order(rhs, order)


def lemma_f2b1(j1: int, j3: int, c: int, order: int) -> bool:
    """sum over j1 >= j2 >= j3 of (-1)^{j2} q^{binom(j1-j2,2)}
    / ((q)_{j1-j2} (q)_{j2-j3} (-q^c;q)_{j2})
    == (-1)^{j3} q^{c(j1-j3) + binom(j1-j3,2) + binom(j1,2) - binom(j3,2)}
    / ((-q^c;q)_{j1} (q)_{j1-j3})."""
    if not j1 >= j3 >= 0:
        raise ValueError("need j1 >= j3 >= 0")
    lhs = term_sum(
        [(-1 if j2 % 2 else 1, _binom2(j1 - j2), None,
          ((Q_FACTOR, j1 - j2, -1), (Q_FACTOR, j2 - j3, -1),
           (PochFactor(-1, c, 1), j2, -1)))
         for j2 in range(j3, j1 + 1)], order)
    rhs = term_sum(
        [(-1 if j3 % 2 else 1,
          c * (j1 - j3) + _binom2(j1 - j3) + _binom2(j1) - _binom2(j3), None,
          ((PochFactor(-1, c, 1), j1, -1), (Q_FACTOR, j1 - j3, -1)))], order)
    return lhs.eq_to_order(rhs, order)


def _f2b1_lhs(nn: int, t: int, c: int, order: int) -> LaurentSeries:
    return term_sum(
        [(-1 if idx % 2 else 1, _binom2(idx), None,
          ((Q_FACTOR, nn, 1), (Q_FACTOR, idx, -1), (Q_FACTOR, nn - idx, -1),
           (PochFactor(-1, c, 1), nn - idx + t, -1)))
         for idx in range(nn + 1)], order)


def _f2b1_rhs(nn: int, t: int, c: int, order: int) -> LaurentSeries:
    return term_sum([(-1 if nn % 2 else 1, c * nn + nn * (nn + t - 1), None,
                      ((PochFactor(-1, c, 1), nn + t, -1),))], order)


def f2b1_recurrence(nn: int, t: int, c: int, order: int) -> bool:
    """Both sides of the finite-sum evaluation satisfy
    f(N+1, t) = f(N, t+1) - q^N f(N, t), with f(0, t) = 1/(-q^c; q)_t,
    and agree with each other."""
    ok = True
    for g in (_f2b1_lhs, _f2b1_rhs):
        base = g(0, t, c, order)
        ok &= base.eq_to_order(
            inv_poch_finite(PochFactor(-1, c, 1), t, order), order)
        lhs = g(nn + 1, t, c, order)
        rhs = g(nn, t + 1, c, order) - g(nn, t, c, order).shift(nn).truncated(order)
        ok &= lhs.eq_to_order(rhs, min(order, rhs.trunc))
    ok &= _f2b1_lhs(nn, t, c, order).eq_to_order(_f2b1_rhs(nn, t, c, order), order)
    return ok


# -- simplified printed forms -------------------------------------------------
#
# Most printed forms are chain multisums too: a list of terms (sign, q-shift,
# spec) stands for the sum of sign * q^shift * (the spec's n -> oo sum).  Each
# spec transcribes its display literally, variables outermost first.

Term = tuple[int, int, MultisumSpec]


def _spec(pair_id: int, quad: tuple[int, ...], lin: tuple[int, ...],
          **factors) -> MultisumSpec:
    """A spec with nvars = len(quad) and every factor not given empty."""
    fields = dict(self_binoms=(), link_binoms=(), signs=(), numer=(), denom=(),
                  prefactors=())
    return MultisumSpec(pair_id, len(quad), quad, lin, **{**fields, **factors})


def _spec_form(terms_of: Callable[[int], list[Term]], pair_id: int,
               order: int) -> LaurentSeries:
    """The printed form ``terms_of(pair_id)``, exact to ``order``."""
    return term_sum([(sign, shift, partial(eval_multisum, spec), ())
                     for sign, shift, spec in terms_of(pair_id)], order)


def _f2b1_double(pair_id: int) -> list[Term]:
    """sum over j1 >= j3 of (-1)^{j1+j3} q^{binom(j1,2)+binom(j1-j3,2)}
    (-q)_{j3} / ((q)_{j1-j3} (-q)_{j1}) * beta_{j3}."""
    return [(1, 0, _spec(pair_id, (0, 0), (0, 0), self_binoms=(0,),
                         link_binoms=(0,), signs=(0, 1), numer=((1, 1),),
                         denom=((0, 1),)))]


def _b1bc1_collapsed_single(pair_id: int) -> list[Term]:
    """sum over j of q^{j^2-j}(1 - q^{2j}) beta_j (base q) or
    q^{j^2}(1 - q^{2j+1}) beta_j (base q^2): the two-term collapse of the
    triple sums."""
    if registry_entry(pair_id).base_exp == 1:
        return [(1, 0, _spec(pair_id, (1,), (-1,))),
                (-1, 0, _spec(pair_id, (1,), (1,)))]
    return [(1, 0, _spec(pair_id, (1,), (0,))),
            (-1, 1, _spec(pair_id, (1,), (2,)))]


def _quintuple_triple(pair_id: int) -> list[Term]:
    """The collapsed quintuple sums: over j1 >= j4 >= j5 of
    (-1)^{j4+j5} q^{binom(j4-j5,2)} beta_{j5} / ((q)_{j1-j4} (q)_{j4-j5})
    times the two-term numerator -q^{j1^2+2j1+1} + q^{j1^2-2j4} (base q) or
    -q^{j1^2+3j1+3} + q^{j1^2+j1-2j4} (base q^2); the q^{binom(j4-j5,2)}
    factor survives from the five-fold sum."""
    def term(sign, shift, lin):
        return sign, shift, _spec(pair_id, (1, 0, 0), lin, link_binoms=(1,),
                                  signs=(1, 2))

    if registry_entry(pair_id).base_exp == 1:
        return [term(1, 0, (0, -2, 0)), term(-1, 1, (2, 0, 0))]
    return [term(1, 0, (1, -2, 0)), term(-1, 3, (3, 0, 0))]


def _level4_quadruple(pair_id: int) -> list[Term]:
    """The once-collapsed form of the five-fold sum at level 4 (pair 1):
    over j1 >= j2 >= j3 >= j5 of (-1)^{j2+j5} q^E (-q)_{j5} beta_{j5}
    / ((q)_{j1-j2} (q)_{j2-j3} (q)_{j3-j5} (-q)_{j3}), with exponent
    E = j1^2 - j3^2 - j2 + binom(j2-j3,2) + binom(j3-j5,2) + binom(j3,2)."""
    return [(1, 0, _spec(pair_id, (1, 0, -1, 0), (0, -1, 0, 0),
                         self_binoms=(2,), link_binoms=(1, 2), signs=(1, 3),
                         numer=((3, 1),), denom=((2, 1),)))]


def _level4_double(pair_id: int) -> list[Term]:
    """The fully collapsed level-4 five-fold sum (pair 1): over j3 >= j5 of
    (-1)^{j3+j5} q^{binom(j3-j5,2)+binom(j3,2)} (-q^{j3} + q^{-j3})
    (-q)_{j5} beta_{j5} / ((q)_{j3-j5} (-q)_{j3})."""
    def term(sign, lin):
        return sign, 0, _spec(pair_id, (0, 0), (lin, 0), self_binoms=(0,),
                              link_binoms=(0,), signs=(0, 1), numer=((1, 1),),
                              denom=((0, 1),))

    return [term(-1, 1), term(1, -1)]


def _lim2_level4_single(pair_id: int) -> list[Term]:
    """sum_j (-q)_j q^{binom(j,2)} (1 - q^j - q^{2j+1}) / (q^2;q)_{2j},
    inside 1/(-q)_inf: the collapsed level-4 second-family triple sum.
    1/(q^2;q)_{2j} is beta_j of pair 2."""
    def term(sign, shift, lin):
        return sign, shift, _spec(pair_id, (0,), (lin,), self_binoms=(0,),
                                  numer=((0, 1),), prefactors=(1,))

    return [term(1, 0, 0), term(-1, 0, 1), term(-1, 1, 2)]


def _tail_single(pair_id: int, order: int) -> LaurentSeries:
    """The reindexed single sums the two-term collapses reduce to:

      pair 3: sum_j q^{2(j^2+j)} / (q)_{2j+1}
      pair 1: sum_j q^{j^2+j} / (q)_{2j+1}
      pair 5: sum_j q^{j^2+j} (-q^3;q^3)_j / ((q)_{2j+1} (-q)_j)
      pair 4: (1-q) + sum_{j>=1} q^{2j^2} / (q^2;q)_{2j-1}
      pair 2: (1-q) + sum_{j>=1} q^{j^2}  / (q^2;q)_{2j-1}
    """
    def block(j: int) -> list[SumTerm]:
        if pair_id in (4, 2):
            if j == 0:
                return [(1, 0, None, ((Q_FACTOR, 1, 1),))]
            e = 2 * j * j if pair_id == 4 else j * j
            return [(1, e, None, ((PochFactor(1, 2, 1), 2 * j - 1, -1),))]
        units = ((Q_FACTOR, 2 * j + 1, -1),)
        if pair_id == 3:
            return [(1, 2 * (j * j + j), None, units)]
        if pair_id == 5:
            units += ((PochFactor(-1, 3, 3), j, 1), (_NEG_Q, j, -1))
        return [(1, j * j + j, None, units)]

    return vanishing_sum(block, order)


def _level3_rewritten(order: int) -> LaurentSeries:
    """1 + sum_{j>=1} q^{j + binom(j,2)} (1 + q^j) (-q^3; q^3)_{j-1} / (q)_{2j},
    all inside the 1/(-q)_inf prefactor: the rewritten level-3 single sum."""
    def block(j: int) -> list[SumTerm]:
        if j == 0:
            return [(1, 0, None, ())]
        units = ((PochFactor(-1, 3, 3), j - 1, 1), (Q_FACTOR, 2 * j, -1))
        e = j + _binom2(j)
        return [(1, e, None, units), (1, e + j, None, units)]

    total = vanishing_sum(block, order)
    return (total * inv_poch_inf(_NEG_Q, max(order, 0))).truncated(order)


# Every printed form of a cell, least to most reduced, as callables of the
# order.  The spec forms read the registry only when called.
Form = Callable[[int], LaurentSeries]
_SIMPLIFIED: dict[tuple[int, str, int, int], tuple[Form, ...]] = {
    **{(p, "lim3", 1, 1): (partial(_spec_form, _f2b1_double, p),)
       for p in (3, 5, 1)},
    (5, "lim3", 1, 0): (_level3_rewritten,),
    (1, "lim3", 1, 2): (partial(_spec_form, _level4_quadruple, 1),
                        partial(_spec_form, _level4_double, 1)),
    (2, "lim2", 1, 2): (partial(_spec_form, _lim2_level4_single, 2),),
    **{(p, "lim1", 1, 2): (partial(_spec_form, _b1bc1_collapsed_single, p),
                           partial(_tail_single, p))
       for p in (3, 4, 5, 1, 2)},
    **{(p, "lim1", 1, 3): (partial(_spec_form, _quintuple_triple, p),)
       for p in (5, 1, 2)},
}


def simplified_forms(s: Schedule, order: int) -> list[LaurentSeries]:
    """Every printed simplified version of the schedule's sum-side,
    least to most reduced.  Raises KeyError if none is cataloged."""
    return [form(order) for form in _SIMPLIFIED[(s.pair_id, s.kind, s.k, s.i)]]


def simplified_sum_side(s: Schedule, order: int) -> LaurentSeries:
    """The most-reduced printed form of the schedule's sum-side.

    Raises KeyError when the catalog has no simplified form for s."""
    return simplified_forms(s, order)[-1]


def has_simplified_form(s: Schedule) -> bool:
    return (s.pair_id, s.kind, s.k, s.i) in _SIMPLIFIED
