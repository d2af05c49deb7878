"""Exact symbolic algebra of the model operators on R^2n.

States are two-point kernels of the form

    sum  b^alpha ( xi^beta * xi'^gamma * xibar'^delta * P(Z, Z') ) (x) M

where P(Z,Z') = exp[-pi/2 sum(|xi_j|^2 + |xi'_j|^2) + pi sum xi_j xibar'_j]
is the vacuum projection kernel, b_j = -2 d/dxi_j + pi xibar_j are the
annihilation-side operators acting on the unprimed variables, and M is an
endomorphism of the exterior sector.  The primed variables are inert
parameters.  This normal-ordered basis diagonalizes the harmonic oscillator
L0 = sum_j b_j b_j^+ (eigenvalue 4 pi |alpha| per term), which turns all
spectral operations into termwise scalings.

Commutation rules used throughout:  [b_i, b_j^+] = -4 pi delta_ij,
[g, b_j] = 2 dg/dxi_j, [g, b_j^+] = -2 dg/dxibar_j, and
(b_j P)(Z,Z') = 2 pi (xibar_j - xibar'_j) P(Z,Z') with b_j^+ P = 0.

Kernel products are exact Gaussian integrals, taken on the polynomial form
(PolyGaussianForm) of a state: composing two kernels integrates out the
middle variable by the closed-form moments of exp(-pi|w|^2 + a wbar + b w),
keeping every coefficient inside the pi-Laurent Gaussian-rational field.

The engine reads every kernel at Z = Z' = 0 only, and computes no more than
that value: `TwoPointState.evaluate_origin` reads it off the normal-ordered
terms without the polynomial form, `PolyGaussianForm.compose_origin` gives a
product's value there without forming the product, and `mul_poly` multiplies
by a polynomial in one pass over the state.  Modes commute, and so do one
factor's moves on a mode, so each product normal-orders as a closed sum per
mode: a table per mode, a function of small ints (`_mul_table` and
`_b_table`, cached, and `_mode_moment`), and one product of the tables
(`_across_modes`).

The origin reads no term with a primed factor (gamma or delta != 0), and no
operator but the adjoint and the composition lowers gamma or delta.  So the
states whose only use is their origin value live in the quotient by primed
terms: `OscillatorContext.quotient()` is a sibling context in which every
state drops its primed terms as it is built, and `restrict_second_zero`
moves a state there.  A sum with a quotient summand is a quotient state.
The adjoint swaps the primed argument and the composition integrates it
out, so neither is defined modulo primed terms: there is no polynomial form
in the quotient, and `to_poly`, `adjoint`, `compose`, `from_poly` and
`compose_origin` raise ValueError on it.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, perm
from operator import add
from typing import Iterable

from .errors import DegreeCapError, KernelComponentError
from .exterior import ExteriorAlgebra, ExteriorEndo
from .scalars import ExactScalar, rat

Multi = tuple[int, ...]
TermKey = tuple[Multi, Multi, Multi, Multi]  # (alpha, beta, primed, barred-primed)

DEFAULT_DEGREE_CAP = 8


class OscillatorContext:
    """Fixed data for an engine run: mode count, signature index, sector algebra."""

    def __init__(self, n: int, q: int, rk_e: int = 1, degree_cap: int | None = None):
        if not 0 <= q <= n:
            raise ValueError("signature index out of range")
        self.n = n
        self.q = q
        self.alg = ExteriorAlgebra(n, rk_e)
        self.rk_e = rk_e
        self.degree_cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
        self.zero_multi: Multi = (0,) * n
        self._project_det = self.alg.project_det(q)
        self._identity = self.alg.identity()
        self.primed_free = False
        self._quotient: OscillatorContext | None = None

    def quotient(self) -> "OscillatorContext":
        """The sibling context modulo primed terms, built once; its own quotient."""
        if self._quotient is None:
            sibling = copy(self)
            sibling.primed_free = True
            sibling._quotient = self._quotient = sibling
        return self._quotient

    def unit(self, j: int) -> Multi:
        return tuple(1 if i == j else 0 for i in range(self.n))

    # -- state constructors --------------------------------------------------

    def vacuum(self) -> "TwoPointState":
        """The bare projection kernel P(Z,Z') with identity sector part."""
        z = self.zero_multi
        return TwoPointState(self, {(z, z, z, z): self._identity})

    def kernel_projector(self) -> "TwoPointState":
        """The full model-kernel projector: P(Z,Z') times the det-sector projector."""
        z = self.zero_multi
        return TwoPointState(self, {(z, z, z, z): self._project_det})


def _add_term(terms: dict, key: TermKey, value: ExteriorEndo | ExactScalar) -> None:
    if key in terms:
        terms[key] = terms[key] + value
    else:
        terms[key] = value


def _bump(m: Multi, j: int, by: int = 1) -> Multi:
    return m[:j] + (m[j] + by,) + m[j + 1:]


def _degree_error(degree: int, cap: int) -> DegreeCapError:
    return DegreeCapError(f"term degree {degree} exceeds cap {cap}")


def _capped_terms(ctx: OscillatorContext,
                  terms: dict[TermKey, ExteriorEndo]) -> dict[TermKey, ExteriorEndo]:
    """Drop zero terms, and primed terms in a quotient context; refuse any
    other term whose total degree exceeds the cap.

    In the quotient the cap applies to the kept terms only: a primed term is
    dropped, not refused, whatever its degree, and is never formed at all by
    `mul_poly` (its xibar' images).  The origin reads no primed term, so what
    the cap guards, the terms the engine's value depends on, is the same."""
    clean = {}
    cap = ctx.degree_cap
    primed_free, z = ctx.primed_free, ctx.zero_multi
    for key, endo in terms.items():
        if endo.is_zero() or primed_free and (key[2] != z or key[3] != z):
            continue
        degree = sum(key[0]) + sum(key[1]) + sum(key[2]) + sum(key[3])
        if degree > cap:
            raise _degree_error(degree, cap)
        clean[key] = endo
    return clean


# -- normal ordering, one mode at a time ------------------------------------------
#
# A mode table is a tuple of entries (slot values..., coefficient).

_ONE = ExactScalar.one()


def _coefficient(pi_pow: int, value: int | Fraction) -> ExactScalar:
    return _ONE if pi_pow == 0 and value == 1 else ExactScalar.pi(pi_pow, value)


@lru_cache(maxsize=None)
def _mul_table(a: int, b: int, m: int, l: int, primed_free: bool) -> tuple:
    """One mode of xi^m xibar^l times b^a xi^b xibar'^d: entries (alpha, beta,
    raise of d, coefficient).

    xibar moves (alpha, beta, d) by (1, 0, 0) with 1/(2 pi), (0, -1, 0) with
    beta/pi and (0, 0, 1) with 1: xibar^l by (k1, -k2, k3), k1 + k2 + k3 = l,
    with l!/(k1! k2! k3!) (2 pi)^-k1 (beta)_k2 pi^-k2, and k3 = 0 modulo
    primed terms.  Then xi moves (alpha, beta) by (-1, 0) with 2 alpha and
    (0, 1) with 1: xi^m by (-k, m - k) with C(m, k) 2^k (alpha)_k.
    """
    sums: dict[tuple[int, int, int], Fraction] = {}
    for k3 in range(1 if primed_free else l + 1):
        for k2 in range(min(b, l - k3) + 1):
            k1 = l - k3 - k2
            c = Fraction(comb(l, k3) * comb(l - k3, k2) * perm(b, k2), 2 ** k1)
            for k in range(min(m, a + k1) + 1):
                key = (a + k1 - k, b - k2 + m - k, k3)
                sums[key] = sums.get(key, 0) + c * comb(m, k) * 2 ** k * perm(a + k1, k)
    # the pi power, -(k1 + k2), is k3 - l
    return tuple((*key, _coefficient(key[2] - l, c)) for key, c in sums.items())


@lru_cache(maxsize=None)
def _b_table(a: int, b: int) -> tuple:
    """One mode of b^a on xi^b xibar'^d P: entries (xi power, xibar power,
    raise of d, coefficient).  b is -2 d/dxi + 2 pi (xibar - xibar') on the
    polynomial, so b^a moves (xi, xibar, d) by (-k1, k2, k3), k1 + k2 + k3 = a,
    with a!/(k1! k2! k3!) (-2)^k1 (b)_k1 (2 pi)^k2 (-2 pi)^k3."""
    return tuple((b - k1, k2, a - k1 - k2, _coefficient(
        a - k1, comb(a, k1) * comb(a - k1, k2) * perm(b, k1) * 2 ** a * (-1) ** (a - k2)))
        for k1 in range(min(a, b) + 1) for k2 in range(a - k1 + 1))


def _across_modes(tables: Iterable[tuple]) -> list[tuple]:
    """The product of per-mode tables: one entry per choice of an entry in
    every mode, each slot's values across the modes as a multi-index, and the
    coefficients multiplied."""
    out: list[tuple[tuple, ExactScalar]] = [((), _ONE)]
    for table in tables:
        out = [(picks + (entry,),
                entry[-1] if c is _ONE else c if entry[-1] is _ONE else c * entry[-1])
               for picks, c in out for entry in table]
    return [(*tuple(zip(*picks))[:-1], c) for picks, c in out]


def sum_states(ctx: OscillatorContext, plus: Iterable["TwoPointState"],
               minus: Iterable["TwoPointState"] = ()) -> "TwoPointState":
    """sum(plus) - sum(minus) in one pass: the term dicts are merged into one
    and the state is built once, instead of once per partial sum.  The sum is
    a quotient state if any summand is one."""
    terms: dict[TermKey, ExteriorEndo] = {}
    for s in plus:
        ctx = s.ctx if s.ctx.primed_free else ctx
        for k, v in s.terms.items():
            _add_term(terms, k, v)
    for s in minus:
        ctx = s.ctx if s.ctx.primed_free else ctx
        for k, v in s.terms.items():
            terms[k] = terms[k] - v if k in terms else -v
    return TwoPointState(ctx, terms)


class TwoPointState:
    """A finite normal-ordered combination of oscillator kernel terms."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: OscillatorContext, terms: dict[TermKey, ExteriorEndo]):
        self.ctx = ctx
        self.terms = _capped_terms(ctx, terms)

    # -- linear structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TwoPointState") -> "TwoPointState":
        return sum_states(self.ctx, [self, other])

    def __sub__(self, other: "TwoPointState") -> "TwoPointState":
        return sum_states(self.ctx, [self], [other])

    def scale(self, c: ExactScalar) -> "TwoPointState":
        if c.is_zero():
            return TwoPointState(self.ctx, {})
        return TwoPointState(self.ctx, {k: v.scale(c) for k, v in self.terms.items()})

    def apply_endo(self, endo: ExteriorEndo) -> "TwoPointState":
        """Left-multiply the sector part by an endomorphism."""
        return TwoPointState(self.ctx, {k: endo @ v for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoPointState):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"TwoPointState({len(self.terms)} terms)"

    # -- oscillator operators (all return new canonical states) ---------------

    def apply_b(self, j: int) -> "TwoPointState":
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            _add_term(out, (_bump(a, j), b, g, d), endo)
        return TwoPointState(self.ctx, out)

    def apply_bdag(self, j: int) -> "TwoPointState":
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            if a[j] == 0:
                continue
            c = ExactScalar.pi(1, 4 * a[j])
            _add_term(out, (_bump(a, j, -1), b, g, d), endo.scale(c))
        return TwoPointState(self.ctx, out)

    def mul_xi(self, j: int) -> "TwoPointState":
        return self.mul_poly({(self.ctx.unit(j), self.ctx.zero_multi): _ONE})

    def mul_xibar(self, j: int) -> "TwoPointState":
        return self.mul_poly({(self.ctx.zero_multi, self.ctx.unit(j)): _ONE})

    def mul_poly(self, poly: dict[tuple[Multi, Multi], ExactScalar]) -> "TwoPointState":
        """Multiply by the polynomial sum c xi^a xibar^b, given as {(a, b): c}.

        One pass, mode by mode (`_mul_table`): each term's scalar images under
        every monomial are summed first, so each sector endomorphism is scaled
        once per output term.  A (term, monomial) pair whose degrees add up to
        more than the cap is refused: its image raising the degree by every
        factor is never zero.  The message names degree cap + 1, the first
        degree above the cap that multiplying one factor at a time forms.
        """
        cap, primed_free = self.ctx.degree_cap, self.ctx.primed_free
        monomials = [(xi, xibar, c, sum(xi) + sum(xibar)) for (xi, xibar), c in poly.items()]
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            degree = sum(a) + sum(b) + sum(g) + sum(d)
            images: dict[TermKey, ExactScalar] = {}
            for xi, xibar, c, raised in monomials:
                if degree + raised > cap:
                    raise _degree_error(cap + 1, cap)
                tables = map(_mul_table, a, b, xi, xibar, repeat(primed_free))
                for a2, b2, dd, s in _across_modes(tables):
                    k2 = (a2, b2, g, tuple(map(add, d, dd)))
                    v = s * c
                    images[k2] = images[k2] + v if k2 in images else v
            for k2, s in images.items():
                if not s.is_zero():
                    _add_term(out, k2, endo.scale(s))
        return TwoPointState(self.ctx, out)

    def apply_L0(self) -> "TwoPointState":
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            tot = sum(a)
            if tot:
                out[(a, b, g, d)] = endo.scale(ExactScalar.pi(1, 4 * tot))
        return TwoPointState(self.ctx, out)

    # -- spectral projections and resolvents -----------------------------------

    def project_N(self) -> "TwoPointState":
        """Keep the (alpha = 0, det-sector) component."""
        z = self.ctx.zero_multi
        proj = self.ctx._project_det
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            if a != z:
                continue
            kept = proj @ endo
            if not kept.is_zero():
                out[(a, b, g, d)] = kept
        return TwoPointState(self.ctx, out)

    def project_Nperp(self) -> "TwoPointState":
        return self - self.project_N()

    def project_N0perp(self) -> "TwoPointState":
        z = self.ctx.zero_multi
        out = {k: v for k, v in self.terms.items() if k[0] != z}
        return TwoPointState(self.ctx, out)

    def resolvent_L20(self) -> "TwoPointState":
        """Inverse of L0 - 2 omega_d; the sector eigenvalue comes from the word defect."""
        q = self.ctx.q
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            tot = sum(a)
            for defect, block in endo.row_sector_split(q).items():
                lam = 4 * tot + 4 * defect
                if lam == 0:
                    raise KernelComponentError(
                        "resolvent hit a kernel component; project it away first")
                _add_term(out, (a, b, g, d), block.scale(ExactScalar.pi(-1, f"1/{lam}")))
        return TwoPointState(self.ctx, out)

    def resolvent_L0(self) -> "TwoPointState":
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            tot = sum(a)
            if tot == 0:
                raise KernelComponentError(
                    "bare-oscillator resolvent hit an alpha = 0 component")
            out[(a, b, g, d)] = endo.scale(ExactScalar.pi(-1, f"1/{4 * tot}"))
        return TwoPointState(self.ctx, out)

    # -- conversions -----------------------------------------------------------

    def to_poly(self) -> "PolyGaussianForm":
        """Expand every b factor into multiplication form, mode by mode (`_b_table`)."""
        out: dict[TermKey, ExteriorEndo] = {}
        for (a, b, g, d), endo in self.terms.items():
            for xi, xibar, dd, coeff in _across_modes(map(_b_table, a, b)):
                _add_term(out, (xi, xibar, g, tuple(map(add, d, dd))), endo.scale(coeff))
        return PolyGaussianForm(self.ctx, out)

    @classmethod
    def from_poly(cls, poly: "PolyGaussianForm") -> "TwoPointState":
        ctx = poly.ctx
        z = ctx.zero_multi
        return sum_states(ctx, [TwoPointState(ctx, {(z, z, g, d): endo}).mul_poly({(a, b): _ONE})
                                for (a, b, g, d), endo in poly.terms.items()])

    def restrict_second_zero(self) -> "TwoPointState":
        """Kernel against second argument zero: the state modulo primed
        terms, in the quotient context."""
        return TwoPointState(self.ctx.quotient(), self.terms)

    # -- kernel evaluation, adjoint and composition: see PolyGaussianForm --------

    def evaluate_origin(self) -> ExteriorEndo:
        """Kernel value at Z = Z' = 0, read off the normal-ordered terms.

        b^alpha xi^beta xi'^gamma xibar'^delta P is (-2)^|alpha| alpha! at the
        origin when alpha = beta and gamma = delta = 0, and 0 otherwise: only
        the -2 d/dxi part of each b factor survives there, and it must use up
        xi^beta exactly.
        """
        z = self.ctx.zero_multi
        acc = self.ctx.alg.zero_endo()
        for (a, b, g, d), endo in self.terms.items():
            if a == b and g == z and d == z:
                value = 1
                for k in a:
                    value *= factorial(k) * (-2) ** k
                acc = acc + endo.scale(rat(value))
        return acc

    def adjoint(self) -> "TwoPointState":
        return TwoPointState.from_poly(self.to_poly().adjoint())

    def compose(self, other: "TwoPointState") -> "TwoPointState":
        return TwoPointState.from_poly(self.to_poly().compose(other.to_poly()))


class PolyGaussianForm:
    """A kernel as polynomial times the vacuum kernel: (xi, xibar, primed,
    barred-primed) monomials with sector coefficients.

    Kernels are adjointed and composed in this form, and a product is read
    at the origin by `compose_origin`; states convert to it with
    `TwoPointState.to_poly` and back with `from_poly`.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: OscillatorContext, terms: dict[TermKey, ExteriorEndo]):
        if ctx.primed_free:
            raise ValueError("a kernel has no polynomial form modulo primed terms")
        self.ctx = ctx
        self.terms = _capped_terms(ctx, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyGaussianForm):
            return NotImplemented
        return self.terms == other.terms

    def adjoint(self) -> "PolyGaussianForm":
        """Kernel adjoint: swap arguments, conjugate, adjoint the sector part."""
        return PolyGaussianForm(self.ctx, {(d, g, b, a): endo.adjoint()
                                           for (a, b, g, d), endo in self.terms.items()})

    def compose(self, other: "PolyGaussianForm") -> "PolyGaussianForm":
        """Exact integral over the shared middle argument of self(Z,W) other(W,Z')."""
        out: dict[TermKey, ExteriorEndo] = {}
        for (a1, b1, g1, d1), e1 in self.terms.items():
            for (a2, b2, g2, d2), e2 in other.terms.items():
                endo = e1 @ e2
                if endo.is_zero():
                    continue
                # per-mode moments of w^(g1+a2) wbar^(d1+b2) against the middle Gaussian
                moments = map(_mode_moment, map(add, g1, a2), map(add, d1, b2))
                for xi_extra, bp_extra, coeff in _across_modes(moments):
                    key = (tuple(map(add, a1, xi_extra)), b1, g2, tuple(map(add, d2, bp_extra)))
                    _add_term(out, key, endo.scale(coeff))
        return PolyGaussianForm(self.ctx, out)

    def compose_origin(self, other: "PolyGaussianForm") -> ExteriorEndo:
        """The value at Z = Z' = 0 of `self.compose(other)`, without forming the product.

        Only terms of self with no unprimed factors reach Z = 0, and only
        terms of other with no primed factors reach Z' = 0.  Each mode's
        middle moment must then leave no xi and no xibar' power, so it keeps
        only its k = wp = wb term.
        """
        z = self.ctx.zero_multi
        left = [(g, d, e) for (a, b, g, d), e in self.terms.items() if a == z and b == z]
        right = [(a, b, e) for (a, b, g, d), e in other.terms.items() if g == z and d == z]
        acc = self.ctx.alg.zero_endo()
        for g1, d1, e1 in left:
            for a2, b2, e2 in right:
                coeff = _ONE
                for j in range(len(z)):
                    wp, wb = g1[j] + a2[j], d1[j] + b2[j]
                    if wp != wb:
                        break
                    coeff = coeff * _mode_moment(wp, wb)[-1][2]
                else:
                    endo = e1 @ e2
                    if not endo.is_zero():
                        acc = acc + endo.scale(coeff)
        return acc


def _mode_moment(wp: int, wb: int) -> list[tuple[int, int, ExactScalar]]:
    """Moments of one middle mode.

    integral of w^wp wbar^wb exp(-pi|w|^2 + pi xi wbar + pi w xibar') over C
    equals  sum_k  wp! wb! / (k! (wp-k)! (wb-k)!)  pi^-k  xi^(wp-k) xibar'^(wb-k)
    times the reassembled vacuum kernel factor.  Returns triples of
    (xi power, xibar' power, coefficient).
    """
    return [(wp - k, wb - k, _coefficient(-k, comb(wp, k) * perm(wb, k)))
            for k in range(min(wp, wb) + 1)]
