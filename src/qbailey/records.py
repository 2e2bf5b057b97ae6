"""Identity records: verified cells of the catalog, with JSON and LaTeX forms.

One ``IdentityRecord`` captures everything about a verified identity: the
schedule cell, the module label it lands on, the sum-side multisum, the
product side, the normalization constant tying them together, and the order
to which the whole chain was checked.  The JSON form round-trips exactly;
the LaTeX form renders the identity in standard Pochhammer notation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bailey import BetaSpec, registry_entry
from .characters import (
    char_product_factors,
    normalization_poly,
    schedule_module,
    verify_character_identity,
)
from .lattice import MultisumSpec, Schedule, SCHEDULE_TABLE, build_multisum_spec
from .qproducts import PochFactor

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class IdentityRecord:
    pair_id: int
    kind: str
    k: int
    i: int
    s0: int
    s1: int
    level: int
    modulus: int
    normalization: tuple[tuple[int, int], ...]  # (exponent, coefficient)
    sum_spec: MultisumSpec
    beta: BetaSpec
    product_factors: tuple[PochFactor, ...]
    order: int
    status: str

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
    ok = verify_character_identity(pair_id, kind, k, i, order)
    norm = normalization_poly(s, order)
    return IdentityRecord(
        pair_id=pair_id, kind=kind, k=k, i=i,
        s0=m.s0, s1=m.s1, level=m.level, modulus=m.modulus,
        normalization=tuple(sorted(norm.terms.items())),
        sum_spec=build_multisum_spec(s),
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


def _sum_exponent_latex(spec: MultisumSpec) -> str:
    terms: dict[str, int] = {}
    for r in range(spec.nvars):
        if spec.quad[r]:
            terms[f"j_{r+1}^2"] = spec.quad[r]
        if spec.lin[r]:
            terms[f"j_{r+1}"] = spec.lin[r]
    for r in spec.self_binoms:
        terms[f"\\binom{{j_{r+1}}}{{2}}"] = terms.get(f"\\binom{{j_{r+1}}}{{2}}", 0) + 1
    for r in spec.link_binoms:
        terms[f"\\binom{{j_{r+1}-j_{r+2}}}{{2}}"] = 1
    return _poly_latex(terms)


def _beta_latex(beta: BetaSpec, var: str) -> str:
    terms: dict[str, int] = {}
    if beta.mono_quad:
        terms[f"{var}^2"] = beta.mono_quad
    if beta.mono_lin:
        terms[var] = beta.mono_lin
    num = [f"q^{{{_poly_latex(terms)}}}"] if terms else []
    for f, kind in beta.numerator:
        length = var if kind == "n" else f"2{var}"
        num.append(_poch_latex(f.sign, f.base_exp, f.step, length))
    den = []
    for f, kind in beta.denominator:
        length = var if kind == "n" else f"2{var}"
        den.append(_poch_latex(f.sign, f.base_exp, f.step, length))
    nums = "".join(num) if num else "1"
    return f"\\frac{{{nums}}}{{{''.join(den)}}}"


def record_latex(rec: IdentityRecord) -> str:
    """One compilable display for the record, sum side = product side."""
    spec = rec.sum_spec
    V = spec.nvars
    if V == 1:
        subscript = "j_1 \\geq 0"
    else:
        mid = " \\geq ".join(f"j_{r}" for r in range(1, V + 1))
        subscript = f"{mid} \\geq 0"

    inf = "\\infty"
    prefix = "".join(
        "\\frac{1}{%s}" % _poch_latex(-1, b, 1, inf) for b in spec.prefactors
    )
    sign = ""
    if spec.signs:
        sign = "(-1)^{" + "+".join(f"j_{r+1}" for r in spec.signs) + "}"
    numer = [f"q^{{{_sum_exponent_latex(spec)}}}"]
    for r, b in spec.numer:
        numer.append(_poch_latex(-1, b, 1, f"j_{r+1}"))
    denom = []
    for r in range(V - 1):
        denom.append(_poch_latex(1, 1, 1, f"j_{r+1}-j_{r+2}"))
    for r, b in spec.denom:
        denom.append(_poch_latex(-1, b, 1, f"j_{r+1}"))
    if denom:
        core = f"\\frac{{{''.join(numer)}}}{{{''.join(denom)}}}"
    else:
        core = "".join(numer)
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


def emit_json(records: list[IdentityRecord], max_level: int, order: int) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "max_level": max_level,
        "order": order,
        "records": [r.to_json_dict() for r in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_latex(records: list[IdentityRecord]) -> str:
    header = (
        "% Catalog of verified sum-side/product-side identities.\n"
        "% Each display gives the limiting multisum and the principal\n"
        "% character product it equals, with its normalization constant.\n"
        "\\documentclass{article}\n\\usepackage{amsmath}\n"
        "\\allowdisplaybreaks\n\\begin{document}\n\n"
    )
    return header + "\n".join(record_latex(r) for r in records) + "\n\\end{document}\n"


def emit_text(records: list[IdentityRecord]) -> str:
    lines = []
    for r in records:
        lines.append(
            f"pair {r.pair_id} {r.kind} k={r.k} i={r.i}: "
            f"level {r.level} module ({r.s0},{r.s1}) modulus {r.modulus} "
            f"order {r.order} {r.status}"
        )
    return "\n".join(lines) + "\n"
