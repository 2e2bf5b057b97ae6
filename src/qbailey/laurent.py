"""Exact arithmetic on truncated formal Laurent series in q.

A ``LaurentSeries`` stores a finite map exponent -> integer coefficient
together with a truncation order ``trunc``: the series is known exactly at
every exponent <= trunc and unknown above.  All coefficients are Python
ints, so arithmetic is exact at arbitrary precision.  Truncation is
propagated conservatively through multiplication (via valuations), so a
result never reports a coefficient it does not actually know.

Every product of two nonempty series goes by Kronecker substitution: each
operand, clipped to the exponents that can reach the result's truncation,
is written as a dense coefficient list and packed into one Python int, one
fixed-width digit per exponent, and a single big-int multiply (Karatsuba
inside CPython) gives every coefficient at once.  The digit width comes
from a proved bound on the product's coefficients, so digits never
overflow into each other.

``__mul__`` is the only product of two series.  The Pochhammer symbols of
the Bailey moves, the registry betas, the multisum's inner sum and the
hand-summed series of ``lattice`` do not come here: their factors
(1 - s q^e) are applied one at a time on a window
(``qproducts.binomial_step``).  A window ``(lo, a)`` is the dense
coefficient list a[i] of q^{lo+i}, from the valuation up to a known top
lo + len(a) - 1.  ``window`` and ``from_window`` are the only conversions
between the two formats.

Inversion solves for the inverse's coefficients one exponent at a time,
summing only over the nonzero terms of the series being inverted.  No
verification path inverts a series: every inverse there is a product of
one-pass division steps (``qproducts.inv_poch_finite``, and
``qproducts.inv_poch_inf`` by Euler's product), so ``invert`` is the
generic inverse that the tests compare those against.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations


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


def _kronecker_mul(xs: dict[int, int], ys: dict[int, int], trunc: int) -> dict[int, int]:
    """Nonzero coefficients of xs * ys at exponents <= trunc.

    Both operands are nonempty and trunc >= val(xs) + val(ys).  Each is
    written as a dense coefficient list, packed into one Python int with a
    digit of ``8 * width`` bits per exponent, and the two ints are
    multiplied once.  Every product coefficient is a sum of at most
    min(#xs, #ys) terms, each at most max|xs| * max|ys| in absolute value;
    the width makes that bound smaller than half a digit, so a bias of half
    a digit makes every digit of the biased product nonnegative and no
    digit carries into the next.
    """
    vx, vy = min(xs), min(ys)
    xs = {e: c for e, c in xs.items() if e <= trunc - vy}
    ys = {e: c for e, c in ys.items() if e <= trunc - vx}
    bound = (max(map(abs, xs.values())) * max(map(abs, ys.values()))
             * min(len(xs), len(ys)))
    width = (bound.bit_length() + 8) // 8  # bytes per digit; bound < 2**(8*width-1)
    bias = 1 << (8 * width - 1)
    pad = bias.to_bytes(width, "little")

    def pack(terms: dict[int, int], v: int) -> tuple[int, int]:
        n = max(terms) - v + 1
        dense = [bias] * n
        for e, c in terms.items():
            dense[e - v] = c + bias
        raw = b"".join([d.to_bytes(width, "little") for d in dense])
        return int.from_bytes(raw, "little") - int.from_bytes(pad * n, "little"), n

    x, nx = pack(xs, vx)
    y, ny = pack(ys, vy)
    n = min(nx + ny - 1, trunc - vx - vy + 1)  # digits at exponents <= trunc
    nbytes = n * width
    low = (x * y + int.from_bytes(pad * n, "little")) & ((1 << (8 * nbytes)) - 1)
    raw = low.to_bytes(nbytes, "little")
    digits = [int.from_bytes(raw[i:i + width], "little") for i in range(0, nbytes, width)]
    base = vx + vy
    return {base + k: d - bias for k, d in enumerate(digits) if d != bias}


class LaurentSeries:
    __slots__ = ("terms", "trunc")

    def __init__(self, terms: dict[int, int], trunc: int):
        """Build from an exponent -> coefficient map, canonicalizing.

        Zero coefficients are dropped.  Exponents above ``trunc`` are an
        error: the caller would be claiming knowledge it cannot have.
        """
        self._set({e: c for e, c in terms.items() if c != 0}, trunc)

    def _set(self, nonzero: dict[int, int], trunc: int) -> "LaurentSeries":
        if nonzero:
            lo, hi = min(nonzero), max(nonzero)
            if hi > trunc:
                raise TruncationError(
                    f"exponent {hi} exceeds truncation order {trunc}"
                )
            check_floor(lo, trunc)
        object.__setattr__(self, "terms", nonzero)
        object.__setattr__(self, "trunc", trunc)
        return self

    @classmethod
    def from_window(cls, lo: int, a, trunc: int) -> "LaurentSeries":
        """The series with coefficient a[i] at q^{lo+i}, exact to trunc."""
        return object.__new__(cls)._set({e: c for e, c in enumerate(a, lo) if c}, trunc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- inspection --------------------------------------------------------

    def val(self) -> int | None:
        """Lowest exponent with nonzero coefficient, or None if zero."""
        return min(self.terms) if self.terms else None

    def _effval(self) -> int:
        # For truncation bookkeeping a series that is zero to its truncation
        # behaves as if its valuation were trunc + 1 (it could start there).
        return min(self.terms) if self.terms else self.trunc + 1

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: int) -> int:
        if exp > self.trunc:
            raise TruncationError(
                f"coefficient at q^{exp} unknown (trunc={self.trunc})"
            )
        return self.terms.get(exp, 0)

    def coefficients(self, lo: int, hi: int) -> list[int]:
        """Coefficients of q^lo .. q^hi inclusive."""
        if hi > self.trunc:
            raise TruncationError(
                f"coefficient at q^{hi} unknown (trunc={self.trunc})"
            )
        return [self.terms.get(e, 0) for e in range(lo, hi + 1)]

    def window(self, top: int) -> tuple[int, list[int]]:
        """The coefficients from the valuation up to ``top`` as a window
        ``(lo, a)``: a[i] is the coefficient of q^{lo+i}, and a[0] is
        nonzero.  A series with no term at or below top gives
        ``(top + 1, [])``, so lo + len(a) - 1 is top either way."""
        if top > self.trunc:
            raise TruncationError(
                f"coefficient at q^{top} unknown (trunc={self.trunc})")
        terms = self.terms
        lo = min(terms, default=top + 1)
        if lo > top:
            return top + 1, []
        a = [0] * (top - lo + 1)
        for e, c in terms.items():
            if e <= top:
                a[e - lo] = c
        return lo, a

    def eq_to_order(self, other: "LaurentSeries", order: int) -> bool:
        """True iff all coefficients agree at every exponent <= order."""
        if order > self.trunc or order > other.trunc:
            raise TruncationError(
                f"cannot compare to order {order}: truncations are "
                f"{self.trunc} and {other.trunc}"
            )
        for e, c in self.terms.items():
            if e <= order and other.terms.get(e, 0) != c:
                return False
        for e, c in other.terms.items():
            if e <= order and e not in self.terms:
                return False
        return True

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentSeries({e: c for e, c in out.items() if e <= trunc}, trunc)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({e: -c for e, c in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentSeries(
                {e: c * other for e, c in self.terms.items()}, self.trunc
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc + other._effval(), other.trunc + self._effval())
        xs, ys = self.terms, other.terms
        return LaurentSeries(_kronecker_mul(xs, ys, trunc) if xs and ys else {}, trunc)

    __rmul__ = __mul__

    def shift(self, m: int) -> "LaurentSeries":
        """Multiply by q^m: all exponents and the truncation move by m."""
        if m == 0:
            return self
        return LaurentSeries(
            {e + m: c for e, c in self.terms.items()}, self.trunc + m
        )

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse.

        Requires the lowest coefficient to be +1 or -1 (all inversions this
        engine needs are unit-leading, which keeps every expansion integral).
        The result is exact to trunc - 2*val.
        """
        v = self.val()
        if v is None:
            raise InversionError("cannot invert a series that is zero to truncation")
        lead = self.terms[v]
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
        return object.__new__(LaurentSeries)._set(
            {e: c for e, c in self.terms.items() if e <= order}, order)

    # -- equality / text form ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.trunc, tuple(sorted(self.terms.items()))))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``trunc=10; -1:1 0:2 3:-5``."""
        body = " ".join(f"{e}:{c}" for e, c in sorted(self.terms.items()))
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
