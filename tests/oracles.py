"""Independent oracles that only the tests call.

Each one recomputes a library operation by a different route: the
oscillator L0 as a raw differential operator on the polynomial form, the
2-form Clifford action by raw Clifford products, and the det-sector
compression identity block by block.
"""

from __future__ import annotations

from bergman.exterior import CompFn, ExteriorAlgebra, ExteriorEndo
from bergman.oscillator import PolyGaussianForm, TermKey, _bump, _poly_apply_b
from bergman.scalars import ExactScalar, rat


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


def action_two_form_bruteforce(alg: ExteriorAlgebra, comp: CompFn) -> ExteriorEndo:
    """`alg.action_two_form(comp)` by raw Clifford products."""
    acc = alg.zero_endo()
    for a in range(2 * alg.n):
        for b in range(2 * alg.n):
            c = comp(alg.partner(a), alg.partner(b))
            if c.is_zero():
                continue
            acc = acc + alg.clifford_pair(a, b).scale(c)
    return acc.scale_fraction(1, 4)


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
