"""Truncated multivariate power series over the exact coefficient field.

The geometry pipeline does all of its differential geometry on formal jets:
a series lives in 2n formal variables that come in conjugate pairs
(w_1..w_n, wbar_1..wbar_n), is truncated at a fixed total degree, and has
ExactScalar coefficients.  Conjugation swaps the variable pairs and
conjugates coefficients, so reality of geometric data is a checkable
property rather than a convention.

The derivative of a series is known exactly only up to degree cap - 1,
but `Series.diff` keeps the cap: the engine uses `Series` as an exact
polynomial ring, where nothing is lost to truncation.  Callers that treat a
series as a truncated jet lower the cap themselves (the geometry pipeline
does so at every derivative), and the minimum cap then propagates through
`+` and `*`.

Products are graded: the right factor is bucketed by total degree once, and
a left term of degree d meets only the buckets of degree <= cap - d, so no
product above the cap is ever formed.  A sum of products (each entry of
`mat_mul`) is fused: every term pair of every product goes into one table
keyed by the output monomial, and each output coefficient is then one
`scalars.sum_products` call, normalized by a single gcd pass; `x * y` is the
one-pair case.  Every ring result is built by one internal constructor that
only drops zero coefficients: it never sees a term above the cap, because
each operation keeps to the cap itself.
Conjugation, which can make no zero, builds its result directly.  The
public `Series(nvars, cap, terms)` still filters both.

A matrix of series whose constant term is the identity, I + X with X
constant-free, has an exact inverse and square root by one binomial series,
(I + X)^e = sum_k binom(e, k) X^k with e = -1 or 1/2, which is exact once k
reaches the cap.  Nothing here divides by a series or by a scalar that is
not a rational constant: the binomial coefficients are rational literals.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .scalars import ExactScalar, rat, sum_products

Exps = tuple[int, ...]


def monomial(nvars: int, *slots: int) -> Exps:
    """The exponent tuple of the product of the variables `slots`, repeats allowed."""
    e = [0] * nvars
    for a in slots:
        e[a] += 1
    return tuple(e)


class Series:
    """A polynomial in `nvars` variables truncated at total degree `cap`."""

    __slots__ = ("nvars", "cap", "terms")

    def __init__(self, nvars: int, cap: int, terms: dict[Exps, ExactScalar] | None = None):
        self.nvars = nvars
        self.cap = cap
        clean: dict[Exps, ExactScalar] = {}
        if terms:
            for e, c in terms.items():
                if sum(e) <= cap and not c.is_zero():
                    clean[e] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, cap: int) -> "Series":
        return cls(nvars, cap)

    @classmethod
    def const(cls, nvars: int, cap: int, c: ExactScalar) -> "Series":
        return cls(nvars, cap, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, cap: int, j: int) -> "Series":
        return cls(nvars, cap, {monomial(nvars, j): rat(1)})

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        cap = min(self.cap, other.cap)
        out = dict(self.terms) if self.cap == cap else _below(self.terms, cap)
        for e, c in (other.terms if other.cap == cap else _below(other.terms, cap)).items():
            out[e] = out[e] + c if e in out else c
        return _series(self.nvars, cap, out)

    def __neg__(self) -> "Series":
        return _series(self.nvars, self.cap, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Series") -> "Series":
        cap = min(self.cap, other.cap)
        out = dict(self.terms) if self.cap == cap else _below(self.terms, cap)
        for e, c in (other.terms if other.cap == cap else _below(other.terms, cap)).items():
            out[e] = out[e] - c if e in out else -c
        return _series(self.nvars, cap, out)

    def __mul__(self, other: "Series") -> "Series":
        cap = min(self.cap, other.cap)
        return _fused(self.nvars, cap, [(_graded(self), _graded(other))])

    def scale(self, c: ExactScalar) -> "Series":
        return _series(self.nvars, self.cap, {e: v * c for e, v in self.terms.items()})

    def truncate(self, cap: int) -> "Series":
        return _series(self.nvars, cap, self.terms if cap >= self.cap else _below(self.terms, cap))

    # -- calculus ------------------------------------------------------------------

    def diff(self, j: int) -> "Series":
        out: dict[Exps, ExactScalar] = {}
        for e, c in self.terms.items():
            if e[j]:
                out[e[:j] + (e[j] - 1,) + e[j + 1:]] = c if e[j] == 1 else c.scale(e[j])
        return _series(self.nvars, self.cap, out)

    def coeff(self, exps: Exps) -> ExactScalar:
        return self.terms.get(tuple(exps), ExactScalar.zero())

    def value0(self) -> ExactScalar:
        return self.terms.get((0,) * self.nvars, ExactScalar.zero())

    def compose(self, maps: Sequence["Series"], cap: int | None = None) -> "Series":
        """Substitute maps[j] for variable j, truncated at `cap` (default: the
        least cap of the maps).

        The maps must be constant-free: otherwise every term, however high,
        reaches every degree of the result, and the truncated series does not
        determine it.  The image of each monomial is formed once, as the image
        of a monomial one degree lower times one map.
        """
        if self.nvars != len(maps):
            raise ValueError("need one substitution per variable")
        nv = maps[0].nvars
        out_cap = cap if cap is not None else min(m.cap for m in maps)
        if any(not m.value0().is_zero() for m in maps):
            raise ValueError("substitutions must be constant-free")
        maps = [m.truncate(out_cap) for m in maps]
        images = {(0,) * len(maps): Series.const(nv, out_cap, rat(1))}

        def image(e: Exps) -> Series:
            if e not in images:
                j = next(i for i, k in enumerate(e) if k)
                images[e] = image(e[:j] + (e[j] - 1,) + e[j + 1:]) * maps[j]
            return images[e]

        # a monomial of degree > out_cap has a zero image: every map starts at degree 1
        return _fused(nv, out_cap, [([[((0,) * nv, c)]], _graded(image(e)))
                                    for e, c in self.terms.items() if sum(e) <= out_cap])

    def conj(self) -> "Series":
        """Formal conjugation: swap the paired variables, conjugate coefficients."""
        n = self.nvars // 2
        s = _new(Series)
        s.nvars = self.nvars
        s.cap = self.cap
        # the conjugate of a nonzero coefficient is nonzero: there is nothing to drop
        s.terms = {e[n:] + e[:n]: c.conjugate() for e, c in self.terms.items()}
        return s

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Series(0)"
        parts = []
        for e in sorted(self.terms):
            parts.append(f"{self.terms[e]}*w^{e}")
        return "Series(" + " + ".join(parts) + ")"


_new = object.__new__


def _series(nvars: int, cap: int, terms: dict[Exps, ExactScalar]) -> Series:
    """The ring results' constructor: `terms` has no term above `cap`; zeros are dropped."""
    s = _new(Series)
    s.nvars = nvars
    s.cap = cap
    s.terms = {e: c for e, c in terms.items() if not c.is_zero()}
    return s


def _below(terms: dict[Exps, ExactScalar], cap: int) -> dict[Exps, ExactScalar]:
    return {e: c for e, c in terms.items() if sum(e) <= cap}


Graded = list[list[tuple[Exps, ExactScalar]]]


def _graded(s: Series) -> Graded:
    """The terms of `s` bucketed by degree: entry d holds the terms of degree d."""
    out: Graded = [[] for _ in range(s.cap + 1)]
    for e, c in s.terms.items():
        out[sum(e)].append((e, c))
    return out


def _fused(nvars: int, cap: int, pairs: Sequence[tuple[Graded, Graded]]) -> Series:
    """sum x * y over the graded pairs, truncated at `cap`.

    A left term of degree d meets only the right buckets of degree <= cap - d,
    so no product above the cap is formed; each output coefficient is one
    `sum_products` over all the pairs that reach it.
    """
    acc: dict[Exps, list[tuple[ExactScalar, ExactScalar]]] = {}
    for left, right in pairs:
        for d1, terms in enumerate(left[:cap + 1]):
            if not terms:
                continue
            reach = [t for bucket in right[:cap - d1 + 1] for t in bucket]
            for e1, c1 in terms:
                for e2, c2 in reach:
                    e = tuple(map(add, e1, e2))
                    if e in acc:
                        acc[e].append((c1, c2))
                    else:
                        acc[e] = [(c1, c2)]
    return _series(nvars, cap, {e: sum_products(p) for e, p in acc.items()})


Matrix = list[list[Series]]


def mat_zero(dim: int, nvars: int, cap: int) -> Matrix:
    return [[Series.zero(nvars, cap) for _ in range(dim)] for _ in range(dim)]


def mat_identity(dim: int, nvars: int, cap: int) -> Matrix:
    m = mat_zero(dim, nvars, cap)
    for i in range(dim):
        m[i][i] = Series.const(nvars, cap, rat(1))
    return m


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: ExactScalar) -> Matrix:
    return [[x.scale(c) for x in row] for row in a]


def mat_mul(rows: Sequence[Sequence[Series]], m: Matrix) -> Matrix:
    """The matrix product `rows` times `m`: each row vector times `m`, with
    `m` graded once for all rows.

    Entry d of a row is one fused sum; it keeps the minimum cap of all its
    factors, zero ones included.
    """
    nvars = m[0][0].nvars
    gm = [[_graded(y) for y in row] for row in m]
    out = []
    for t in rows:
        gt = [_graded(x) for x in t]
        row = []
        for d in range(len(m[0])):
            cap = min(min(x.cap, m[k][d].cap) for k, x in enumerate(t))
            ks = [k for k, x in enumerate(t) if not (x.is_zero() or m[k][d].is_zero())]
            row.append(_fused(nvars, cap, [(gt[k], gm[k][d]) for k in ks]))
        out.append(row)
    return out


def _binomial(a: Matrix, p: int, q: int, name: str) -> Matrix:
    """(I + X)^(p/q) = sum_k binom(p/q, k) X^k for a = I + X.

    X is constant-free, so X^k starts at degree k and the sum up to k = cap
    is exact.  Each coefficient is the last one times (p/q - k + 1) / k.
    """
    dim = len(a)
    nvars = a[0][0].nvars
    cap = min(s.cap for row in a for s in row)
    ident = mat_identity(dim, nvars, cap)
    for i in range(dim):
        for j in range(dim):
            want = rat(1) if i == j else rat(0)
            if a[i][j].value0() != want:
                raise ValueError(f"matrix {name} needs identity constant term")
    x = mat_sub(a, ident)
    s, power, coeff = ident, x, rat(1)
    for k in range(1, cap + 1):
        if k > 1:
            power = mat_mul(power, x)
        coeff = coeff.scale(f"{p - q * (k - 1)}/{q * k}")
        s = mat_add(s, mat_scale(power, coeff))
    return s


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a series matrix whose constant term is the identity:
    (I + X)^-1 = sum_k (-X)^k."""
    return _binomial(a, -1, 1, "inverse")


def mat_sqrt(a: Matrix) -> Matrix:
    """Square root of a series matrix whose constant term is the identity:
    (I + X)^(1/2) = sum_k binom(1/2, k) X^k."""
    return _binomial(a, 1, 2, "square root")
