"""Exact arithmetic on truncated formal Laurent series in q.

A ``LaurentSeries`` is a window and a truncation order ``trunc``: the
coefficients ``coeffs`` of q^lo, q^{lo+1}, ..., first and last nonzero (a
zero series has none and lo = trunc + 1), known exactly at every exponent
<= trunc and unknown above; ``terms`` is an exponent -> coefficient view
built on each read.  All coefficients are Python ints, so arithmetic is
exact at arbitrary precision.  Truncation is propagated conservatively
through multiplication (via valuations), so a result never reports a
coefficient it does not actually know.

Every product of two nonempty series goes by Kronecker substitution: each
operand, clipped to the exponents that can reach the result's truncation,
is packed into one Python int, one fixed-width digit per exponent, and a
single big-int multiply (Karatsuba inside CPython) gives every
coefficient at once.  The digit width comes from a proved bound on the
product's coefficients, so digits never overflow into each other.

``__mul__`` is the only product of two series.  The Pochhammer symbols of
the Bailey moves, the registry betas, the multisum's inner sum and the
hand-summed series of ``lattice`` do not come here: their factors
(1 - s q^e) are applied one at a time on a mutable window ``(lo, a)``
(``qproducts.binomial_step``), the list a[i] of the coefficient of
q^{lo+i} up to a known top lo + len(a) - 1.  ``window`` copies a series
into one, ``from_window`` strips one's zeros back into a series, and
``add_window`` is the one add of a window into another (``__add__``,
``qproducts.term_sum`` and ``qproducts``' Horner chains).

Inversion solves for the inverse's coefficients one exponent at a time,
summing only over the nonzero terms of the series being inverted.  The
package never calls it: every inverse there is made of one-pass division
steps on a window (``qproducts.apply_poch_units``, and
``qproducts.divide_euler`` for 1/(q; q)_inf), so ``invert`` is the
generic inverse that the tests compare those against.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from operator import add


class TruncationError(ValueError):
    """A coefficient or comparison beyond the known truncation order."""


class InversionError(ValueError):
    """Inversion of a series that is zero to truncation or not unit-leading."""


class RunawayValuationError(ArithmeticError):
    """Exponents fell below the configured floor; computation is diverging."""


# Exponents below -RUNAWAY_FACTOR * max(|trunc|, RUNAWAY_BASE) abort: a
# series, or a sum whose terms keep falling, has run away.  Every term of
# ``qproducts.vanishing_terms`` is held to it, the multisum's j_1-blocks too;
# the DP's inner carries may go lower before they cancel, and its IN table
# bounds them instead (see ``lattice``).
RUNAWAY_FACTOR = 10
RUNAWAY_BASE = 50


def _floor_for(trunc: int) -> int:
    return -RUNAWAY_FACTOR * max(abs(trunc), RUNAWAY_BASE)


def check_floor(lo: int, trunc: int) -> None:
    """Raise ``RunawayValuationError`` if exponent lo is below trunc's floor."""
    if lo < _floor_for(trunc):
        raise RunawayValuationError(
            f"exponent {lo} below valuation floor {_floor_for(trunc)}")


def add_window(a: list[int], lo: int, glo: int, g) -> int:
    """Add the window ``(glo, g)`` into the window ``(lo, a)`` in place and
    return a's new start: a grows down to glo when g starts below it, and g
    is read only up to a's top lo + len(a) - 1, which stays where it is."""
    if not g or glo >= lo + len(a):
        return lo
    if glo < lo:
        a[:0] = [0] * (lo - glo)
        lo = glo
    i = glo - lo
    a[i:i + len(g)] = map(add, a[i:i + len(g)], g)
    return lo


def _check_span(lo: int, hi: int, trunc: int) -> None:
    if hi > trunc:
        raise TruncationError(f"exponent {hi} exceeds truncation order {trunc}")
    check_floor(lo, trunc)


def _kronecker_mul(vx: int, xs: tuple[int, ...], vy: int, ys: tuple[int, ...],
                   trunc: int) -> list[int]:
    """The coefficients of q^{vx+vy} .. q^trunc, at most, of the product of
    the windows (vx, xs) and (vy, ys).

    Both windows are nonempty and trunc >= vx + vy.  Each is clipped to the
    exponents that can reach trunc, packed into one Python int with a digit
    of ``8 * width`` bits per exponent, and the two ints are multiplied
    once.  Every product coefficient is a sum of at most min(len(xs),
    len(ys)) terms, each at most max|xs| * max|ys| in absolute value; the width
    makes that bound smaller than half a digit, so a bias of half a digit
    makes every digit of the biased product nonnegative and no digit
    carries into the next.
    """
    m = trunc - vx - vy + 1  # entries that can reach an exponent <= trunc
    xs, ys = xs[:m], ys[:m]
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
    width = (bound.bit_length() + 8) // 8  # bytes per digit; bound < 2**(8*width-1)
    bias = 1 << (8 * width - 1)
    pad = bias.to_bytes(width, "little")

    def pack(dense: tuple[int, ...]) -> int:
        raw = b"".join([(c + bias).to_bytes(width, "little") for c in dense])
        return int.from_bytes(raw, "little") - int.from_bytes(pad * len(dense), "little")

    n = min(len(xs) + len(ys) - 1, m)  # digits at exponents <= trunc
    nbytes = n * width
    low = ((pack(xs) * pack(ys) + int.from_bytes(pad * n, "little"))
           & ((1 << (8 * nbytes)) - 1))
    raw = low.to_bytes(nbytes, "little")
    return [int.from_bytes(raw[i:i + width], "little") - bias
            for i in range(0, nbytes, width)]


class LaurentSeries:
    __slots__ = ("lo", "coeffs", "trunc")

    def __init__(self, terms: dict[int, int], trunc: int):
        """Build from an exponent -> coefficient map, canonicalizing.

        Zero coefficients are dropped.  Exponents above ``trunc`` are an
        error: the caller would be claiming knowledge it cannot have.
        """
        keys = [e for e, c in terms.items() if c]
        lo, hi = (min(keys), max(keys)) if keys else (trunc + 1, trunc)
        _check_span(lo, hi, trunc)
        self._set(lo, tuple([terms.get(e, 0) for e in range(lo, hi + 1)]), trunc)

    def _set(self, lo: int, coeffs: tuple[int, ...], trunc: int) -> "LaurentSeries":
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc", trunc)
        return self

    @classmethod
    def from_window(cls, lo: int, a, trunc: int) -> "LaurentSeries":
        """The series with coefficient a[i] at q^{lo+i}, exact to trunc."""
        i, j = 0, len(a)
        while i < j and not a[i]:
            i += 1
        while j > i and not a[j - 1]:
            j -= 1
        lo = lo + i if i < j else trunc + 1  # a zero series starts past trunc
        # the floor is at most -RUNAWAY_FACTOR * RUNAWAY_BASE: check only past either
        if lo + j - i - 1 > trunc or lo < -RUNAWAY_FACTOR * RUNAWAY_BASE:
            _check_span(lo, lo + j - i - 1, trunc)
        return object.__new__(cls)._set(lo, tuple(a[i:j]), trunc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """A fresh exponent -> coefficient map of the nonzero coefficients."""
        return {e: c for e, c in enumerate(self.coeffs, self.lo) if c}

    def val(self) -> int | None:
        """Lowest exponent with nonzero coefficient, or None if zero."""
        return self.lo if self.coeffs else None

    def _effval(self) -> int:
        return self.lo

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp: int) -> int:
        return self.coefficients(exp, exp)[0]

    def coefficients(self, lo: int, hi: int) -> list[int]:
        """Coefficients of q^lo .. q^hi inclusive."""
        v, a = self.window(hi)
        return [a[e - v] if e >= v else 0 for e in range(lo, hi + 1)]

    def window(self, top: int) -> tuple[int, list[int]]:
        """The coefficients from the valuation up to ``top`` as a window
        ``(lo, a)``: a[i] is the coefficient of q^{lo+i}, and a[0] is
        nonzero.  A series with no term at or below top gives
        ``(top + 1, [])``, so lo + len(a) - 1 is top either way."""
        if top > self.trunc:
            raise TruncationError(
                f"coefficient at q^{top} unknown (trunc={self.trunc})")
        n = top - self.lo + 1
        if n <= 0:
            return top + 1, []
        return self.lo, [*self.coeffs[:n], *[0] * (n - len(self.coeffs))]

    def eq_to_order(self, other: "LaurentSeries", order: int) -> bool:
        """True iff all coefficients agree at every exponent <= order."""
        if order > self.trunc or order > other.trunc:
            raise TruncationError(
                f"cannot compare to order {order}: truncations are "
                f"{self.trunc} and {other.trunc}"
            )
        return self.truncated(order) == other.truncated(order)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        lo, a = self.window(trunc)
        lo = add_window(a, lo, other.lo, other.coeffs)
        return LaurentSeries.from_window(lo, a, trunc)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentSeries.from_window(
                self.lo, [c * other for c in self.coeffs], self.trunc)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc + other.lo, other.trunc + self.lo)
        if not (self.coeffs and other.coeffs):
            return zero(trunc)
        return LaurentSeries.from_window(
            self.lo + other.lo,
            _kronecker_mul(self.lo, self.coeffs, other.lo, other.coeffs, trunc), trunc)

    __rmul__ = __mul__

    def shift(self, m: int) -> "LaurentSeries":
        """Multiply by q^m: all exponents and the truncation move by m."""
        if m == 0:
            return self
        return LaurentSeries.from_window(self.lo + m, self.coeffs, self.trunc + m)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse.

        Requires the lowest coefficient to be +1 or -1 (all inversions this
        engine needs are unit-leading, which keeps every expansion integral).
        The result is exact to trunc - 2*val.
        """
        v = self.val()
        if v is None:
            raise InversionError("cannot invert a series that is zero to truncation")
        lead = self.coeffs[0]
        if lead not in (1, -1):
            raise InversionError(f"leading coefficient {lead} is not a unit")
        _, u = self.window(self.trunc)
        m = len(u) - 1  # known length of the monic tail
        # lead * q^-v * self is 1 + (terms of positive exponent); inv solves
        # the same recurrence from lead, so it is lead * q^v / self
        inv = [lead] + [0] * m
        tail = [(d, lead * c) for d, c in enumerate(u) if c and d]
        for e in range(1, m + 1):
            s = 0
            for d, c in tail:
                if d > e:
                    break
                s += c * inv[e - d]
            inv[e] = -s
        return LaurentSeries.from_window(-v, inv, self.trunc - 2 * v)

    def truncated(self, order: int) -> "LaurentSeries":
        """Forget everything above ``order`` (order must be <= trunc)."""
        if order > self.trunc:
            raise TruncationError(
                f"cannot extend truncation {self.trunc} to {order}"
            )
        if order == self.trunc:
            return self
        return LaurentSeries.from_window(
            self.lo, self.coeffs[:max(order - self.lo + 1, 0)], order)

    # -- equality / text form ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.trunc == other.trunc
            and self.lo == other.lo
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.trunc, self.lo, self.coeffs))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``trunc=10; -1:1 0:2 3:-5``."""
        body = " ".join(f"{e}:{c}" for e, c in enumerate(self.coeffs, self.lo) if c)
        return f"trunc={self.trunc};" + (f" {body}" if body else "")

    def __repr__(self) -> str:
        return f"LaurentSeries({self.to_text()!r})"


def from_text(text: str) -> LaurentSeries:
    """Parse the canonical text form produced by ``to_text``."""
    head, _, body = text.partition(";")
    head = head.strip()
    if not head.startswith("trunc="):
        raise ValueError(f"malformed series text: {text!r}")
    trunc = int(head[len("trunc="):])
    terms: dict[int, int] = {}
    for chunk in body.split():
        e, _, c = chunk.partition(":")
        terms[int(e)] = int(c)
    return LaurentSeries(terms, trunc)


def zero(trunc: int) -> LaurentSeries:
    return LaurentSeries({}, trunc)


def one(trunc: int) -> LaurentSeries:
    return LaurentSeries({0: 1}, trunc)


def monomial(coeff: int, exp: int, trunc: int) -> LaurentSeries:
    return LaurentSeries({exp: coeff}, trunc)
