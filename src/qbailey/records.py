"""Identity records: verified cells of the catalog, with JSON and LaTeX forms.

One ``IdentityRecord`` captures everything about a verified identity: the
schedule cell, the module label it lands on, the sum-side multisum, the
product side, the normalization constant tying them together, and the order
to which the whole chain was checked.  The JSON form round-trips exactly;
the LaTeX form renders the identity in standard Pochhammer notation.
Catalogs are written one record at a time (``json_chunks``, ``latex_chunks``);
``json_text`` gives ``json.dumps(doc, indent=2)``'s bytes by C-level joins.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote

from .bailey import BetaSpec, registry_entry
from .characters import (
    char_product_factors,
    normalization_poly,
    schedule_module,
    verify_character_identity,
)
from .lattice import Level, MultisumSpec, Schedule, SCHEDULE_TABLE, build_multisum_spec
from .qproducts import PochFactor

SCHEMA_VERSION = 1


class IdentityRecord(namedtuple(
        "IdentityRecord", "pair_id kind k i s0 s1 level modulus normalization "
        "sum_spec beta product_factors order status")):
    """One verified catalog cell.  The ints pair_id, k, i and the str kind
    name the schedule; the ints s0, s1, level and modulus the module;
    normalization is a tuple of (exponent, coefficient) int pairs, sum_spec
    a MultisumSpec, beta a BetaSpec, product_factors a tuple of PochFactor,
    order an int and status a str."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "pair": self.pair_id,
            "schedule": self.kind,
            "k": self.k,
            "i": self.i,
            "module": {
                "s0": self.s0,
                "s1": self.s1,
                "level": self.level,
                "modulus": self.modulus,
            },
            "normalization": [list(t) for t in self.normalization],
            "sum_side": self.sum_spec.to_dict(),
            "beta": {
                "mono_quad": self.beta.mono_quad,
                "mono_lin": self.beta.mono_lin,
                "numerator": [[f.sign, f.base_exp, f.step, kind]
                              for f, kind in self.beta.numerator],
                "denominator": [[f.sign, f.base_exp, f.step, kind]
                                for f, kind in self.beta.denominator],
            },
            "product_side": {
                "factors": [[f.sign, f.base_exp, f.step]
                            for f in self.product_factors],
                "denominator": [[1, 1, 1]],  # the 1/(q;q)_inf of every character
            },
            "order": self.order,
            "status": self.status,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IdentityRecord":
        return cls(
            pair_id=d["pair"],
            kind=d["schedule"],
            k=d["k"],
            i=d["i"],
            s0=d["module"]["s0"],
            s1=d["module"]["s1"],
            level=d["module"]["level"],
            modulus=d["module"]["modulus"],
            normalization=tuple((t[0], t[1]) for t in d["normalization"]),
            sum_spec=MultisumSpec.from_dict(d["sum_side"]),
            beta=BetaSpec(
                d["beta"]["mono_quad"], d["beta"]["mono_lin"],
                tuple((PochFactor(x[0], x[1], x[2]), x[3])
                      for x in d["beta"]["numerator"]),
                tuple((PochFactor(x[0], x[1], x[2]), x[3])
                      for x in d["beta"]["denominator"]),
            ),
            product_factors=tuple(PochFactor(x[0], x[1], x[2])
                                  for x in d["product_side"]["factors"]),
            order=d["order"],
            status=d["status"],
        )


def build_record(pair_id: int, kind: str, k: int, i: int, order: int
                 ) -> IdentityRecord:
    """Verify one catalog cell and package the result."""
    m = schedule_module(pair_id, kind, k, i)
    s = Schedule(kind, k, i, pair_id)
    spec = build_multisum_spec(s)
    ok = verify_character_identity(pair_id, kind, k, i, order)
    norm = normalization_poly(s, order)
    return IdentityRecord(
        pair_id=pair_id, kind=kind, k=k, i=i,
        s0=m.s0, s1=m.s1, level=m.level, modulus=m.modulus,
        normalization=tuple(sorted(norm.terms.items())),
        sum_spec=spec,
        beta=registry_entry(pair_id).beta,
        product_factors=tuple(char_product_factors(m)),
        order=order,
        status="verified" if ok else "failed",
    )


def catalog_cells(max_level: int) -> list[tuple[int, str, int, int]]:
    """All (pair, schedule, k, i) cells with level <= max_level, in a fixed
    deterministic order (by level, then pair, family, i)."""
    cells = []
    for (pid, kind), row in SCHEDULE_TABLE.items():
        k = 1
        while row.level(k) <= max_level:
            for i in range(row.imax(k) + 1):
                cells.append((row.level(k), pid, kind, i, k))
            k += 1
    cells.sort()
    return [(pid, kind, k, i) for (_, pid, kind, i, k) in cells]


# -- emission -----------------------------------------------------------------

def _exp_str(e: int) -> str:
    return str(e) if 0 <= e <= 9 else "{%d}" % e


def _poch_latex(sign: int, base_exp: int, step: int, length: str) -> str:
    base = ("-" if sign == -1 else "") + (
        "1" if base_exp == 0 else "q" if base_exp == 1 else f"q^{_exp_str(base_exp)}"
    )
    stepv = "q" if step == 1 else f"q^{_exp_str(step)}"
    return f"({base};{stepv})_{{{length}}}"


def _poly_latex(terms: dict[str, int]) -> str:
    """Deterministic signed-sum string from monomial -> coefficient."""
    parts = []
    for mono, coeff in terms.items():
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = mono if mag == 1 and mono else f"{mag}{mono}" if mono else str(mag)
        parts.append(("-" if coeff < 0 else "+", body))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _sum_exponent_latex(rows: list[tuple[int, Level]]) -> str:
    """The exponent of a chain's summand, from its rows (r, level) with
    j_r outermost first: quad and lin per variable, then the
    self-binomials, then the link binomials."""
    terms: dict[str, int] = {}
    for r, lv in rows:
        if lv.quad:
            terms[f"j_{r}^2"] = lv.quad
        if lv.lin:
            terms[f"j_{r}"] = lv.lin
    terms.update((f"\\binom{{j_{r}}}{{2}}", 1) for r, lv in rows if lv.self_binom)
    terms.update((f"\\binom{{j_{r}-j_{r+1}}}{{2}}", 1) for r, lv in rows if lv.link)
    return _poly_latex(terms)


def _beta_latex(beta: BetaSpec, var: str) -> str:
    terms: dict[str, int] = {}
    if beta.mono_quad:
        terms[f"{var}^2"] = beta.mono_quad
    if beta.mono_lin:
        terms[var] = beta.mono_lin
    num, den = ["".join([_poch_latex(f.sign, f.base_exp, f.step,
                                     var if kind == "n" else f"2{var}")
                         for f, kind in factors])
                for factors in (beta.numerator, beta.denominator)]
    nums = (f"q^{{{_poly_latex(terms)}}}" if terms else "") + num or "1"
    return f"\\frac{{{nums}}}{{{den}}}"


def record_latex(rec: IdentityRecord) -> str:
    """One compilable display for the record, sum side = product side."""
    rows = list(enumerate(rec.sum_spec.levels, 1))
    V = len(rows)
    subscript = " \\geq ".join([f"j_{r}" for r in range(1, V + 1)] + ["0"])

    inf = "\\infty"
    prefix = "".join(
        "\\frac{1}{%s}" % _poch_latex(-1, b, 1, inf) for b in rec.sum_spec.prefactors
    )
    signs = [f"j_{r}" for r, lv in rows if lv.sign]
    sign = "(-1)^{" + "+".join(signs) + "}" if signs else ""
    # the units innermost first
    numer = f"q^{{{_sum_exponent_latex(rows)}}}" + "".join(
        _poch_latex(-1, b, 1, f"j_{r}") for r, lv in rows[::-1] for b in lv.numer)
    denom = "".join(
        [_poch_latex(1, 1, 1, f"j_{r}-j_{r+1}") for r in range(1, V)]
        + [_poch_latex(-1, b, 1, f"j_{r}") for r, lv in rows[::-1] for b in lv.denom])
    core = f"\\frac{{{numer}}}{{{denom}}}" if denom else numer
    beta = _beta_latex(rec.beta, f"j_{V}")

    norm_terms = {("" if e == 0 else "q" if e == 1 else f"q^{_exp_str(e)}"): c
                  for e, c in rec.normalization}
    norm = _poly_latex(norm_terms)
    norm_str = "" if norm == "1" else f"({norm})\\,"

    prod_num = "".join(_poch_latex(f.sign, f.base_exp, f.step, inf)
                       for f in rec.product_factors)
    rhs = f"{norm_str}\\frac{{{prod_num}}}{{{_poch_latex(1, 1, 1, inf)}}}"

    comment = (f"% pair {rec.pair_id}, {rec.kind}, k={rec.k}, i={rec.i}: "
               f"module (s0,s1)=({rec.s0},{rec.s1}), level {rec.level}, "
               f"modulus {rec.modulus}, {rec.status} to order {rec.order}")
    lhs_bits = [b for b in (f"{prefix}\\sum_{{{subscript}}}", sign, core, beta) if b]
    return (f"{comment}\n\\begin{{align*}}\n"
            f"{' '.join(lhs_bits)}\n"
            f"&= {rhs}\n\\end{{align*}}\n")


def json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a ``to_json_dict`` value ``pad`` deep."""
    if type(value) is dict:
        items = (f"{_quote(k)}: {json_text(v, pad + '  ')}" for k, v in value.items())
    elif type(value) is list:
        # a list of ints, most of a record, is one C-level join
        items = (map(str, value) if {*map(type, value)} == {int}
                 else (json_text(v, pad + "  ") for v in value))
    else:
        return str(value) if type(value) is int else json.dumps(value)
    first, last = "{}" if type(value) is dict else "[]"
    inner = f"\n{pad}  "
    body = inner + ("," + inner).join(items) + f"\n{pad}" if value else ""
    return first + body + last


def json_chunks(records: list[IdentityRecord], max_level: int, order: int
                ) -> Iterator[str]:
    """The catalog document ``emit_json`` returns, one record at a time."""
    yield (f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "max_level": {max_level},'
           f'\n  "order": {order},\n  "records": [')
    for n, r in enumerate(records):
        yield (",\n    " if n else "\n    ") + json_text(r.to_json_dict(), "    ")
    yield ("\n  ]" if records else "]") + "\n}\n"


def emit_json(records: list[IdentityRecord], max_level: int, order: int) -> str:
    return "".join(json_chunks(records, max_level, order))


def latex_chunks(records: list[IdentityRecord]) -> Iterator[str]:
    """The document ``emit_latex`` returns, one record at a time."""
    yield ("% Catalog of verified sum-side/product-side identities.\n"
           "% Each display gives the limiting multisum and the principal\n"
           "% character product it equals, with its normalization constant.\n"
           "\\documentclass{article}\n\\usepackage{amsmath}\n"
           "\\allowdisplaybreaks\n\\begin{document}\n\n")
    yield from (record_latex(r) + "\n" for r in records)
    yield "\\end{document}\n"


def emit_latex(records: list[IdentityRecord]) -> str:
    return "".join(latex_chunks(records))


def emit_text(records: list[IdentityRecord]) -> str:
    lines = []
    for r in records:
        lines.append(
            f"pair {r.pair_id} {r.kind} k={r.k} i={r.i}: "
            f"level {r.level} module ({r.s0},{r.s1}) modulus {r.modulus} "
            f"order {r.order} {r.status}"
        )
    return "\n".join(lines) + "\n"
