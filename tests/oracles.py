"""Independent oracles that only the tests call.

Each one recomputes a library operation by a different route: a jet's
JSON body as a dict of scalar payloads, scalar arithmetic on `Fraction`
pairs, series products and sums one term pair at a time, substitution into
a series one entry at a time, the exp-map substitution as a sum of
variable products, the base-point covariant derivative with its
connection corrections added one term at a time, the oscillator L0 as a
raw differential operator on the polynomial form, multiplication by a
polynomial one monomial and one factor at a time, the 2-form Clifford
action by raw Clifford products, the Clifford action of a form as a sum
over ordered label words, and the det-sector compression identity block by
block.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import reduce
from itertools import product
from math import factorial
from operator import getitem

from bergman.exterior import CliffordFactor, CompFn, ExteriorAlgebra, ExteriorEndo
from bergman.geometry import _FRAME, _TENSOR_FIELDS, JET_SCHEMA, GeometryJet
from bergman.oscillator import PolyGaussianForm, TermKey, TwoPointState, _bump, _poly_apply_b
from bergman.scalars import ExactScalar, _format_gaussian, rat
from bergman.series import Exps, Series


class FractionScalar:
    """Q(i)[pi, pi^-1] stored as a (re, im) `Fraction` pair per pi-power.

    The layout `ExactScalar` had before it moved to integer numerators over
    one denominator; the differential tests compare the two operation by
    operation.
    """

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        self._terms = {k: (Fraction(re), Fraction(im))
                       for k, (re, im) in (terms or {}).items() if re or im}

    def terms(self):
        for k in sorted(self._terms):
            re, im = self._terms[k]
            yield k, re, im

    def __add__(self, other: "FractionScalar") -> "FractionScalar":
        terms = dict(self._terms)
        for k, (re, im) in other._terms.items():
            r0, i0 = terms.get(k, (0, 0))
            terms[k] = (r0 + re, i0 + im)
        return FractionScalar(terms)

    def __neg__(self) -> "FractionScalar":
        return FractionScalar({k: (-re, -im) for k, (re, im) in self._terms.items()})

    def __sub__(self, other: "FractionScalar") -> "FractionScalar":
        return self + (-other)

    def __mul__(self, other: "FractionScalar") -> "FractionScalar":
        terms: dict[int, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in self._terms.items():
            for k2, (c, d) in other._terms.items():
                r0, i0 = terms.get(k1 + k2, (0, 0))
                terms[k1 + k2] = (r0 + a * c - b * d, i0 + a * d + b * c)
        return FractionScalar(terms)

    def scale(self, re, im=0, pi_pow: int = 0) -> "FractionScalar":
        return self * FractionScalar({pi_pow: (re, im)})

    def __truediv__(self, other: "FractionScalar") -> "FractionScalar":
        if len(other._terms) != 1:
            raise ZeroDivisionError(f"division only by pi-monomials, got {other}")
        (k, (c, d)), = other._terms.items()
        norm = c * c + d * d
        return self * FractionScalar({-k: (c / norm, -d / norm)})

    def conjugate(self) -> "FractionScalar":
        return FractionScalar({k: (re, -im) for k, (re, im) in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FractionScalar) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, re, im in self.terms():
            coeff = _format_gaussian(re, im)
            if k == 0:
                parts.append(coeff)
            else:
                power = "pi" if k == 1 else f"pi^{k}"
                if coeff == "1":
                    parts.append(power)
                elif coeff == "-1":
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{coeff}*{power}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self) -> list[dict[str, object]]:
        return [{"pi_pow": k, "re": str(re), "im": str(im)} for k, re, im in self.terms()]


def jet_body(jet: GeometryJet) -> dict[str, object]:
    """The JSON body of a jet built as a dict, one scalar payload at a time;
    `jet_id` is the jet's own if it has one, else the digest of the body."""
    body = {"schema": JET_SCHEMA, "n": jet.n, "q": jet.q, "rk_e": jet.rk_e,
            "frame": _FRAME, "rX": jet.rX.to_json()}
    for name in _TENSOR_FIELDS:
        body[name] = _dump(getattr(jet, name))
    body["jet_id"] = jet.jet_id or jet_digest(body)
    return body


def _dump(t):
    """Nested lists of scalar payloads from nested tuples of scalars."""
    if isinstance(t, ExactScalar):
        return t.to_json()
    return [_dump(x) for x in t]


def jet_digest(body: dict[str, object]) -> str:
    """The `jet_id` of a JSON body: the first 16 hex digits of the sha256 of its
    compact, key-sorted JSON without `jet_id`."""
    payload = {k: v for k, v in body.items() if k != "jet_id"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def series_add_pairwise(x: Series, y: Series) -> Series:
    """x + y term by term, truncated at the lesser cap."""
    cap = min(x.cap, y.cap)
    out = {e: c for e, c in x.terms.items() if sum(e) <= cap}
    for e, c in y.terms.items():
        if sum(e) > cap:
            continue
        out[e] = out[e] + c if e in out else c
    return Series(x.nvars, cap, out)


def series_mul_pairwise(x: Series, y: Series) -> Series:
    """x * y over every pair of terms, dropping the products above the lesser cap."""
    cap = min(x.cap, y.cap)
    out: dict[Exps, ExactScalar] = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            if sum(e1) + sum(e2) > cap:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return Series(x.nvars, cap, out)


def compose_per_entry(s: Series, maps: list[Series], cap: int | None = None) -> Series:
    """maps[j] substituted for variable j of `s`, one term and one power at a time."""
    out_cap = cap if cap is not None else min(m.cap for m in maps)
    nv = maps[0].nvars
    maps = [Series(nv, out_cap, m.terms) for m in maps]
    acc = Series.zero(nv, out_cap)
    powers = [[Series.const(nv, out_cap, rat(1))] for _ in maps]
    for e, c in s.terms.items():
        term = Series.const(nv, out_cap, c)
        for j, k in enumerate(e):
            if k:
                table = powers[j]
                while len(table) <= k:
                    table.append(series_mul_pairwise(table[-1], maps[j]))
                term = series_mul_pairwise(term, table[k])
        acc = series_add_pairwise(acc, term)
    return acc


def normal_coordinates_by_products(gamma, gam0) -> list[Series]:
    """The cubic exp-map substitution as sums of `Series.var` products: the
    quadratic part first, then the cubic part, which reads the quadratic
    part of the other coordinates."""
    dim = len(gam0)
    mul, add = series_mul_pairwise, series_add_pairwise
    w = [Series.var(dim, 3, a) for a in range(dim)]

    def d0(s, d):
        return s.coeff(tuple(int(i == d) for i in range(dim)))

    zmap = []
    for a in range(dim):
        c2 = Series.zero(dim, 3)
        for b, c in product(range(dim), repeat=2):
            if not gam0[b][c][a].is_zero():
                c2 = add(c2, mul(w[b], w[c]).scale(gam0[b][c][a].scale("-1/2")))
        zmap.append(add(w[a], c2))
    for a in range(dim):
        c3 = Series.zero(dim, 3)
        for d, b, c in product(range(dim), repeat=3):
            dgam = d0(gamma[b][c][a], d)
            if not dgam.is_zero():
                c3 = add(c3, mul(mul(w[d], w[b]), w[c]).scale(dgam))
        for b, c in product(range(dim), repeat=2):
            if not gam0[b][c][a].is_zero():
                c2c = add(zmap[c], -w[c])
                c3 = add(c3, mul(w[b], c2c).scale(gam0[b][c][a].scale(4)))
        zmap[a] = add(zmap[a], c3.scale(rat("-1/6")))
    return zmap


def apply_L0_directly(form: PolyGaussianForm) -> PolyGaussianForm:
    """L0 = sum_j b_j b_j^+ as a raw differential operator on the polynomial."""
    n = form.ctx.n
    acc: dict[TermKey, ExteriorEndo] = {}
    for key, endo in form.terms.items():
        mono = {key: rat(1)}
        total: dict[TermKey, ExactScalar] = {}
        for j in range(n):
            stage = _poly_apply_bdag(mono, j)
            stage = _poly_apply_b(n, stage, j)
            for k, c in stage.items():
                total[k] = total.get(k, ExactScalar.zero()) + c
        for k, c in total.items():
            if k in acc:
                acc[k] = acc[k] + endo.scale(c)
            else:
                acc[k] = endo.scale(c)
    return PolyGaussianForm(form.ctx, acc)


def _poly_apply_bdag(mono: dict[TermKey, ExactScalar], j: int) -> dict[TermKey, ExactScalar]:
    """b_j^+ on f*P: (2 df/dxibar_j) P."""
    out: dict[TermKey, ExactScalar] = {}
    for (a, b, g, d), coeff in mono.items():
        if b[j]:
            key = (a, _bump(b, j, -1), g, d)
            c = coeff.scale(2 * b[j])
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
    return out


def apply_poly_by_monomials(state: TwoPointState, p: Series) -> TwoPointState:
    """Multiplication by the polynomial p(xi, xibar) as a sum of states: each
    monomial one `mul_xi` / `mul_xibar` factor at a time."""
    n = state.ctx.n
    acc = TwoPointState(state.ctx, {})
    for e, c in p.terms.items():
        s = state
        for j in range(n):
            for _ in range(e[j]):
                s = s.mul_xi(j)
            for _ in range(e[n + j]):
                s = s.mul_xibar(j)
        acc = acc + s.scale(c)
    return acc


def cov0_per_term(t, slots):
    """`geometry._cov0(t, slots)` with each Christoffel correction added to
    its output entry one term at a time, `out[key] + c * v`, over every index
    (zero ones included)."""
    dim, rank = len(t), len(slots)
    series = {idx: reduce(getitem, idx, t) for idx in product(range(dim), repeat=rank)}
    out = {}
    for idx, s in series.items():
        for m in range(dim):
            out[(m, *idx)] = s.coeff(tuple(int(a == m) for a in range(s.nvars)))
    for p, slot in enumerate(slots):
        if slot is None:
            continue
        gam0, raised = slot
        for idx, s in series.items():
            v, f = s.value0(), idx[p]
            for m, i in product(range(dim), repeat=2):
                c = gam0[m][f][i] if raised else -gam0[m][i][f]
                key = (m, *idx[:p], i, *idx[p + 1:])
                out[key] = out[key] + c * v
    return _nested(out, dim, rank + 1, ())


def _nested(entries: dict, dim: int, rank: int, prefix: tuple[int, ...]) -> list:
    if rank == 0:
        return entries[prefix]
    return [_nested(entries, dim, rank - 1, prefix + (a,)) for a in range(dim)]


def action_two_form_bruteforce(alg: ExteriorAlgebra, comp: CompFn) -> ExteriorEndo:
    """`alg.action_two_form(comp)` by raw Clifford products."""
    acc = alg.zero_endo()
    for a in range(2 * alg.n):
        for b in range(2 * alg.n):
            c = comp(alg.partner(a), alg.partner(b))
            if c.is_zero():
                continue
            acc = acc + alg.clifford_pair(a, b).scale(c)
    return acc.scale(rat("1/4"))


def clifford_of_form_walk(alg: ExteriorAlgebra, degree: int, comp) -> ExteriorEndo:
    """`alg.clifford_of_form(degree, comp)` as the sum over ordered label words:
    (1/d!) sum_{a1..ad} comp(partner(a1), .., partner(ad)) c(V_a1)..c(V_ad),
    walked depth first over the words whose Clifford product is nonzero."""
    acc = alg.zero_endo()
    stack: list[tuple[tuple[int, ...], CliffordFactor | None]] = [((), None)]
    while stack:
        prefix, factor = stack.pop()
        if len(prefix) == degree:
            coeff = comp(tuple(alg.partner(a) for a in prefix))
            if not coeff.is_zero():
                acc = acc + factor.as_endo().scale(coeff)
            continue
        for a in range(2 * alg.n):
            nxt = alg.clifford_factor(a) if factor is None else factor * alg.clifford_factor(a)
            if not nxt.matrix.is_zero():
                stack.append((prefix + (a,), nxt))
    return acc.scale(ExactScalar.rational(f"1/{factorial(degree)}"))


def compress_two_form(alg: ExteriorAlgebra, q: int, comp_xi: CompFn) -> ExteriorEndo:
    """Right side of the det-sector compression identity for 2-forms.

    `comp_xi(a, b)` gives the form on the xi-adapted coordinate frame
    (labels 0..n-1 unbarred, n..2n-1 barred).  Returns the four displayed
    blocks times the det-word projector; equals clifford_of_form(2-form)
    composed with project_det, computed independently.
    """
    n = alg.n
    proj = alg.project_det(q)
    scalar = ExactScalar.zero()
    for j in range(n):
        scalar = scalar + comp_xi(j, n + j)
    acc = proj.scale(scalar * rat(-2))
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            c = comp_xi(n + j - 1, n + k - 1)
            if not c.is_zero():
                acc = acc + (alg.wedge(k) @ alg.contract(j) @ proj).scale(c * rat(4))
    for j in range(1, q + 1):
        for k in range(1, q + 1):
            c = comp_xi(n + j - 1, n + k - 1)
            if not c.is_zero():
                acc = acc + (alg.contract(j) @ alg.contract(k) @ proj).scale(c * rat(2))
    for j in range(q + 1, n + 1):
        for k in range(q + 1, n + 1):
            c = comp_xi(n + j - 1, n + k - 1)
            if not c.is_zero():
                acc = acc + (alg.wedge(j) @ alg.wedge(k) @ proj).scale(c * rat(2))
    return acc
