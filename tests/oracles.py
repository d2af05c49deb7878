"""Independent oracles that only the tests call.

Each one recomputes a library operation by a different route: a jet's
JSON body as a dict of scalar payloads, scalar arithmetic on `Fraction`
pairs, series products and sums one term pair at a time, substitution into
a series one entry at a time, the exp-map substitution as a sum of
variable products, the normal-coordinate derivatives of the curvature form
as the Taylor coefficients of its exp-map pullback, the metric and its
inverse on all 2n slots of the frame, the base-point covariant derivative
with its connection corrections added one term at a time, the oscillator L0
as a raw differential operator on the polynomial form, multiplication by a
polynomial and the polynomial form of a state one factor at a time, the
one-factor normal-ordering rules themselves, the 2-form Clifford
action by raw Clifford products, the Clifford action of a form as a sum
over ordered label words, and the det-sector compression identity block by
block.

Also here, because no program path runs them: the torsion-free and
positive-curvature specializations of the closed formula, the square-zero
cohomology ring of a product of projective lines, a potential written back
to its JSON map, the Serre-dual potential with its K_X twist (a Leibniz
determinant and log(1 + x) at cap 2) and word map, multiplication by a
primed variable, and short compositions of oscillator and Clifford
primitives (the shifted oscillator L0 - 2 omega_d, the derivatives d/dxi
and d/dxibar, the Gram pairing of kernel columns, a kernel at Z = 0 and the
Clifford anticommutator).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import factorial
from operator import getitem

from bergman.closed_form import _mat_sum_mixed, _scale_mat, _trace_form_sum
from bergman.errors import BergmanError
from bergman.exterior import B1Result, CliffordFactor, CompFn, ExteriorAlgebra, ExteriorEndo
from bergman.geometry import _FRAME, _TENSOR_FIELDS, JET_SCHEMA, GeometryJet
from bergman.jet_checks import require_valid, s_norm
from bergman.oscillator import (
    Multi,
    PolyGaussianForm,
    TermKey,
    TwoPointState,
    _add_term,
    _bump,
)
from bergman.scalars import ExactScalar, _format_gaussian, rat
from bergman.series import Exps, Series, mat_inverse, mat_mul, mat_sqrt

_ZERO = ExactScalar.zero()


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
    """The JSON body of a jet built as a dict, one scalar payload at a time,
    with the jet's own `jet_id`."""
    body = {"schema": JET_SCHEMA, "n": jet.n, "q": jet.q, "rk_e": jet.rk_e,
            "frame": _FRAME, "rX": jet.rX.to_json()}
    for name in _TENSOR_FIELDS:
        body[name] = _dump(getattr(jet, name))
    body["jet_id"] = jet.jet_id
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


def normal_derivatives_by_pullback(RL, gamma, gam0):
    """dRL1 and dRL2 of the pipeline, from the pullback of the curvature
    form RL by the cubic exponential map: each entry substituted one term at
    a time, then jac (RL o exp) jac^T with jac[a][c] = d_a z^c, and the first
    and second Taylor coefficients at 0 (d_k d_k is twice the w_k^2 one)."""
    dim = len(RL)
    zmap = normal_coordinates_by_products(gamma, gam0)
    comp = [[compose_per_entry(s, zmap, 2) for s in row] for row in RL]
    jac = [[Series(dim, 2, zmap[c].diff(a).terms) for c in range(dim)] for a in range(dim)]
    pulled = mat_mul(jac, mat_mul(comp, [list(col) for col in zip(*jac)]))

    def d0(s, *slots):
        c = s.coeff(tuple(slots.count(i) for i in range(dim)))
        return c.scale(2) if len(set(slots)) < len(slots) else c

    return ([[[d0(pulled[a][b], k) for b in range(dim)] for a in range(dim)] for k in range(dim)],
            [[[[d0(pulled[a][b], k, l) for b in range(dim)] for a in range(dim)]
              for l in range(dim)] for k in range(dim)])


def metric_by_full_frame(phi: Series, n: int):
    """The metric g and its inverse as series matrices on all 2n slots, by the
    full-frame chain: R = d dbar phi, omega = (i / 2 pi) R, B(U, V) =
    omega(U, J_std V), M = 2 B with rows moved by part(a) = (a + n) mod 2n,
    g_endo = sqrt(M M) and its inverse by binomial series; g is g_endo / 2
    with rows moved by part and g^-1 is 2 g_endo^-1 with columns moved by it."""
    dim = 2 * n
    part = lambda a: (a + n) % dim
    rl = [[Series.zero(dim, 2) for _ in range(dim)] for _ in range(dim)]
    for a, b in product(range(n), repeat=2):
        d2 = phi.diff(a).truncate(phi.cap - 1).diff(n + b).truncate(phi.cap - 2).truncate(2)
        rl[a][n + b], rl[n + b][a] = d2, -d2
    i = ExactScalar.i()
    jstd = [i if a < n else -i for a in range(dim)]
    omega = [[s.scale(ExactScalar.rational(0, "1/2", -1)) for s in row] for row in rl]
    b_form = [[omega[a][b].scale(jstd[b]) for b in range(dim)] for a in range(dim)]
    m = [[b_form[part(a)][b].scale(rat(2)) for b in range(dim)] for a in range(dim)]
    g_endo = mat_sqrt(mat_mul(m, m))
    g_endo_inv = mat_inverse(g_endo)
    g = [[g_endo[part(a)][b].scale(rat("1/2")) for b in range(dim)] for a in range(dim)]
    ginv = [[g_endo_inv[a][part(b)].scale(rat(2)) for b in range(dim)] for a in range(dim)]
    return g, ginv


def poly_evaluate_origin(form: PolyGaussianForm) -> ExteriorEndo:
    """Kernel value at Z = Z' = 0 of the polynomial form: its constant term,
    since the vacuum kernel is 1 there."""
    z = form.ctx.zero_multi
    return form.terms.get((z, z, z, z), form.ctx.alg.zero_endo())


def apply_L0_directly(form: PolyGaussianForm) -> PolyGaussianForm:
    """L0 = sum_j b_j b_j^+ as a raw differential operator on the polynomial."""
    n = form.ctx.n
    acc: dict[TermKey, ExteriorEndo] = {}
    for key, endo in form.terms.items():
        mono = {key: rat(1)}
        total: dict[TermKey, ExactScalar] = {}
        for j in range(n):
            stage = _poly_apply_bdag(mono, j)
            stage = _poly_apply_b(stage, j)
            for k, c in stage.items():
                total[k] = total.get(k, ExactScalar.zero()) + c
        for k, c in total.items():
            if k in acc:
                acc[k] = acc[k] + endo.scale(c)
            else:
                acc[k] = endo.scale(c)
    return PolyGaussianForm(form.ctx, acc)


def _poly_apply_b(mono: dict[TermKey, ExactScalar], j: int) -> dict[TermKey, ExactScalar]:
    """b_j on f*P: (-2 df/dxi_j + 2 pi (xibar_j - xibar'_j) f) P."""
    out: dict[TermKey, ExactScalar] = {}
    for (a, b, g, d), coeff in mono.items():
        if a[j]:
            _add_term(out, (_bump(a, j, -1), b, g, d), coeff.scale(-2 * a[j]))
        _add_term(out, (a, _bump(b, j), g, d), coeff * ExactScalar.pi(1, 2))
        _add_term(out, (a, b, g, _bump(d, j)), coeff * ExactScalar.pi(1, -2))
    return out


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


def to_poly_by_factors(state: TwoPointState) -> PolyGaussianForm:
    """`TwoPointState.to_poly` one b factor at a time."""
    z = state.ctx.zero_multi
    out: dict[TermKey, ExteriorEndo] = {}
    for (a, b, g, d), endo in state.terms.items():
        mono: dict[TermKey, ExactScalar] = {(b, z, g, d): rat(1)}
        for j in range(len(z)):
            for _ in range(a[j]):
                mono = _poly_apply_b(mono, j)
        for key, coeff in mono.items():
            _add_term(out, key, endo.scale(coeff))
    return PolyGaussianForm(state.ctx, out)


def _xi_images(key: TermKey, j: int) -> list[tuple[TermKey, ExactScalar]]:
    """xi_j times one term, as (term, coefficient) pairs: [xi_j, b_j] = 2."""
    a, b, g, d = key
    out = [((a, _bump(b, j), g, d), rat(1))]
    if a[j]:
        out.append(((_bump(a, j, -1), b, g, d), rat(2 * a[j])))
    return out


def _xibar_images(key: TermKey, j: int) -> list[tuple[TermKey, ExactScalar]]:
    """xibar_j times one term, as (term, coefficient) pairs: xibar_j P is
    (b_j/(2 pi) + xibar'_j) P, and [xibar_j, b_j] = 0."""
    a, b, g, d = key
    out = [((_bump(a, j), b, g, d), ExactScalar.pi(-1, "1/2")),
           ((a, b, g, _bump(d, j)), rat(1))]
    if b[j]:
        out.append(((a, _bump(b, j, -1), g, d), ExactScalar.pi(-1, b[j])))
    return out


def _mul_factor(state: TwoPointState, images, j: int) -> TwoPointState:
    """The state times one factor, given by its one-term `images` rule; in a
    quotient context the state drops the primed images as it is built."""
    out: dict[TermKey, ExteriorEndo] = {}
    for key, endo in state.terms.items():
        for k2, c in images(key, j):
            _add_term(out, k2, endo.scale(c))
    return TwoPointState(state.ctx, out)


def mul_poly_by_factors(state: TwoPointState,
                        poly: dict[tuple[Multi, Multi], ExactScalar]) -> TwoPointState:
    """`TwoPointState.mul_poly` as a sum of states: each monomial one xi_j or
    xibar_j factor at a time, each factor by its one-term rule."""
    acc = TwoPointState(state.ctx, {})
    for (xi, xibar), c in poly.items():
        s = state
        for j in range(state.ctx.n):
            for _ in range(xi[j]):
                s = _mul_factor(s, _xi_images, j)
            for _ in range(xibar[j]):
                s = _mul_factor(s, _xibar_images, j)
        acc = acc + s.scale(c)
    return acc


def apply_poly_by_monomials(state: TwoPointState, p: Series) -> TwoPointState:
    """Multiplication by the polynomial p(xi, xibar), one factor at a time."""
    n = state.ctx.n
    return mul_poly_by_factors(state, {(e[:n], e[n:]): c for e, c in p.terms.items()})


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


# -- compositions of oscillator and Clifford primitives -----------------------


def apply_L20(s: TwoPointState) -> TwoPointState:
    """The shifted oscillator L0 - 2 omega_d, whose inverse is `resolvent_L20`."""
    return s.apply_L0() + s.apply_endo(s.ctx.alg.omega_d(s.ctx.q)).scale(rat(-2))


def differentiate_xi(s: TwoPointState, j: int) -> TwoPointState:
    # d/dxi_j = (pi xibar_j - b_j)/2
    return s.mul_xibar(j).scale(ExactScalar.pi(1, "1/2")) - s.apply_b(j).scale(rat("1/2"))


def differentiate_xibar(s: TwoPointState, j: int) -> TwoPointState:
    # d/dxibar_j = (b_j^+ - pi xi_j)/2
    return s.apply_bdag(j).scale(rat("1/2")) - s.mul_xi(j).scale(ExactScalar.pi(1, "1/2"))


def pair(x: TwoPointState, y: TwoPointState) -> ExteriorEndo:
    """Gram pairing of kernel columns: integral of x(W,0)^* y(W,0)."""
    return x.to_poly().adjoint().compose_origin(y.to_poly())


def evaluate_first_zero(s: TwoPointState) -> dict[tuple[Multi, Multi], ExteriorEndo]:
    """Kernel at Z = 0 as a polynomial in the primed variables."""
    z = s.ctx.zero_multi
    return {(g, d): endo for (a, b, g, d), endo in s.to_poly().terms.items()
            if a == z and b == z}


def anticommutator(f: CliffordFactor, g: CliffordFactor) -> ExteriorEndo:
    return (f * g).as_endo() + (g * f).as_endo()


def mul_primed(s: TwoPointState, j: int, barred: bool = True) -> TwoPointState:
    out: dict[TermKey, ExteriorEndo] = {}
    for (a, b, g, d), endo in s.terms.items():
        key = (a, b, g, _bump(d, j)) if barred else (a, b, _bump(g, j), d)
        _add_term(out, key, endo)
    return TwoPointState(s.ctx, out)


# -- potentials ---------------------------------------------------------------


def potential_to_dict(phi: Series) -> dict[str, object]:
    n = phi.nvars // 2
    out: dict[str, object] = {}
    for e in sorted(phi.terms):
        factors = []
        for j in range(n):
            if e[j]:
                factors.append(f"z{j+1}" + (f"^{e[j]}" if e[j] > 1 else ""))
        for j in range(n):
            if e[n + j]:
                factors.append(f"zb{j+1}" + (f"^{e[n+j]}" if e[n + j] > 1 else ""))
        out[" ".join(factors)] = phi.terms[e].to_json()
    return out


# -- Serre duality ------------------------------------------------------------


def series_det(m: list[list[Series]]) -> Series:
    """The determinant of a square series matrix by the Leibniz sum over
    permutations."""
    acc = Series.zero(m[0][0].nvars, m[0][0].cap)
    for perm in permutations(range(len(m))):
        term = reduce(Series.__mul__, (m[i][j] for i, j in enumerate(perm)))
        acc = acc - term if _inversions(perm) % 2 else acc + term
    return acc


def log_one_plus(x: Series) -> Series:
    """log(1 + x) for a constant-free x at cap 2: x - x^2 / 2."""
    assert x.cap <= 2 and x.value0().is_zero()
    return x - (x * x).scale(rat("1/2"))


def _inversions(seq) -> int:
    return sum(a > b for a, b in combinations(seq, 2))


def serre_dual_potentials(phi: Series, q: int) -> tuple[Series, Series]:
    """The potential psi = (-phi) o sigma of signature n - q and its twist
    phi_K o sigma, with phi_K = log((-1)^q det(d_i dbar_j phi) / pi^n) at cap 2.

    sigma orders the coordinates as (q, .., n-1, 0, .., q-1): coordinate k
    of psi is coordinate sigma[k] of phi, and so is its conjugate."""
    n = phi.nvars // 2
    hessian = [[phi.diff(i).diff(n + j).truncate(2) for j in range(n)] for i in range(n)]
    normalized = series_det(hessian).scale(ExactScalar.pi(-n, (-1) ** q))
    phi_k = log_one_plus(normalized - Series.const(2 * n, 2, rat(1)))
    sigma = [*range(q, n), *range(q)]
    slots = [*sigma, *(n + k for k in sigma)]

    def relabel(s: Series, sign: int) -> Series:
        return Series(2 * n, s.cap, {tuple(e[k] for k in slots): c.scale(sign)
                                     for e, c in s.terms.items()})

    return relabel(phi, -1), relabel(phi_k, 1)


def serre_word_map(n: int, q: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Each wedge word I to (f(I), eps(I)): f(I) is the complement of I
    relabeled by sigma^-1 (see `serre_dual_potentials`) and sorted, and
    eps(I) the sign of the shuffle (I, complement) times that of the sort."""
    inverse = {old: new for new, old in enumerate([*range(q + 1, n + 1), *range(1, q + 1)], 1)}
    out = {}
    for k in range(n + 1):
        for word in combinations(range(1, n + 1), k):
            rest = [j for j in range(1, n + 1) if j not in word]
            image = [inverse[j] for j in rest]
            sign = (-1) ** (_inversions([*word, *rest]) + _inversions(image))
            out[word] = (tuple(sorted(image)), sign)
    return out


# -- specializations of the closed formula --------------------------------------


class NotKahlerError(BergmanError):
    """A Kahler-only specialization was invoked on a jet with torsion."""


class NotPositiveError(BergmanError):
    """A positive-curvature-only specialization was invoked with q > 0."""


def b1_kahler(jet: GeometryJet, check: bool = True) -> B1Result:
    """Torsion-free specialization of the coefficient formula."""
    if check:
        require_valid(jet)
    if not jet.is_torsion_free():
        raise NotKahlerError("jet has torsion; the specialized formula does not apply")
    n, q, rk = jet.n, jet.q, jet.rk_e
    alg = ExteriorAlgebra(n, rk)
    proj = alg.project_det(q)
    nxj = jet.nablaXJ

    block = proj.scale(_trace_form_sum(jet).scale("1/4")
                       - s_norm(nxj, n, first_barred=False).scale("1/144"))
    block = block + (alg.endo_from_aux_matrix(_mat_sum_mixed(jet)) @ proj).scale(rat("1/2"))

    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    coeff = _ZERO
                    for m in range(n):
                        a = nxj[m][j - 1][k - 1]
                        b = nxj[n + m][n + i - 1][n + l - 1]
                        if not a.is_zero() and not b.is_zero():
                            coeff = coeff + a * b
                    if coeff.is_zero():
                        continue
                    op = (alg.wedge(l) @ alg.contract(i) @ proj
                          @ alg.wedge(j) @ alg.contract(k))
                    block = block + op.scale(coeff.scale("1/9"))

    # single blocks in adjoint pairs: barred slots left of the projector,
    # swapped unbarred slots right of it
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            for x, y, op in ((n + j - 1, n + k - 1, alg.wedge(k) @ alg.contract(j) @ proj),
                             (k - 1, j - 1, proj @ alg.wedge(j) @ alg.contract(k))):
                curv = _ZERO
                for i in range(n):
                    curv = curv + jet.RTX[i][n + i][x][y]
                # (1/2 tr)(2x) and (1/6)(4x) slot factors
                coeff = jet.trRT10[x][y] - curv.scale("2/3")
                block = block + op.scale(coeff.scale("-1/4"))
                block = block + (op @ alg.endo_from_aux_matrix(
                    _scale_mat(jet.RE[x][y], rat(2)))).scale(rat("-1/4"))

    return B1Result(block.scale(ExactScalar.pi(-1)), "closed-form")


def b1_positive(jet: GeometryJet, check: bool = True) -> B1Result:
    """The classical positive-curvature form: aux curvature trace plus an
    eighth of the scalar curvature."""
    if check:
        require_valid(jet)
    if jet.q != 0:
        raise NotPositiveError("specialization requires signature index q = 0")
    n, rk = jet.n, jet.rk_e
    alg = ExteriorAlgebra(n, rk)
    proj = alg.project_det(0)
    block = (alg.endo_from_aux_matrix(_mat_sum_mixed(jet)) @ proj).scale(rat("1/2"))
    block = block + proj.scale(jet.rX.scale("1/8"))
    return B1Result(block.scale(ExactScalar.pi(-1)), "closed-form")


# -- a tiny square-zero cohomology ring for the product model -------------------

_Cls = dict[int, Fraction]  # bitmask of factors -> coefficient


def _cls_mul(a: _Cls, b: _Cls) -> _Cls:
    out: _Cls = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if m1 & m2:
                continue  # squares of factor classes vanish
            m = m1 | m2
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return out


def _cls_scale(a: _Cls, c: Fraction) -> _Cls:
    return {m: v * c for m, v in a.items()}


def _cls_power(a: _Cls, k: int) -> _Cls:
    out: _Cls = {0: Fraction(1)}
    for _ in range(k):
        out = _cls_mul(out, a)
    return out


def _integrate(a: _Cls, n: int) -> Fraction:
    return a.get((1 << n) - 1, Fraction(0))


def rrh_class_integrals(n: int, q: int, rk_e: int = 1) -> tuple[Fraction, Fraction]:
    """The characteristic-class route of `models.rrh_coefficients`, expanded in
    the ring: rk_e int c_1(L)^n / n! and int (rk_e c_1(TX) / 2) c_1(L)^(n-1) / (n-1)!.
    Every subset of factors is a ring element, so keep n small."""
    c1_l: _Cls = {1 << k: Fraction(-1 if k < q else 1) for k in range(n)}
    c1_tx: _Cls = {1 << k: Fraction(2) for k in range(n)}
    chern_pn = Fraction(rk_e) * _integrate(_cls_power(c1_l, n), n) / factorial(n)
    half_tx = _cls_scale(c1_tx, Fraction(rk_e, 2))
    chern_pn1 = _integrate(_cls_mul(half_tx, _cls_power(c1_l, n - 1)), n) / factorial(n - 1)
    return chern_pn, chern_pn1
