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

Matrices of series support exact inversion by Newton iteration seeded at
the exact constant-term inverse, which terminates after O(log cap) sweeps
because the error degree doubles each step, and exact square roots of
I + X (X constant-free) by the binomial series sum_k binom(1/2, k) X^k,
which is exact once k reaches the cap.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ExactScalar, rat

Exps = tuple[int, ...]


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
        e = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, cap, {e: rat(1)})

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        cap = min(self.cap, other.cap)
        out = {e: c for e, c in self.terms.items() if sum(e) <= cap}
        for e, c in other.terms.items():
            if sum(e) > cap:
                continue
            out[e] = out[e] + c if e in out else c
        return Series(self.nvars, cap, out)

    def __neg__(self) -> "Series":
        return Series(self.nvars, self.cap, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        cap = min(self.cap, other.cap)
        out: dict[Exps, ExactScalar] = {}
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > cap:
                continue
            for e2, d2, c2 in right:
                if d1 + d2 > cap:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Series(self.nvars, cap, out)

    def scale(self, c: ExactScalar) -> "Series":
        return Series(self.nvars, self.cap, {e: v * c for e, v in self.terms.items()})

    def truncate(self, cap: int) -> "Series":
        return Series(self.nvars, cap, self.terms)

    # -- calculus ------------------------------------------------------------------

    def diff(self, j: int) -> "Series":
        out: dict[Exps, ExactScalar] = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            d = e[:j] + (e[j] - 1,) + e[j + 1:]
            out[d] = c.scale(e[j]) if d not in out else out[d] + c.scale(e[j])
        return Series(self.nvars, self.cap, out)

    def coeff(self, exps: Exps) -> ExactScalar:
        return self.terms.get(tuple(exps), ExactScalar.zero())

    def value0(self) -> ExactScalar:
        return self.terms.get((0,) * self.nvars, ExactScalar.zero())

    def compose(self, maps: Sequence["Series"], cap: int | None = None) -> "Series":
        """Substitute maps[j] (constant-free) for variable j."""
        if len(maps) != self.nvars:
            raise ValueError("need one substitution per variable")
        out_cap = cap if cap is not None else min(m.cap for m in maps)
        nv = maps[0].nvars
        acc = Series.zero(nv, out_cap)
        # powers[j][k] = maps[j]^k, extended as far as a term needs
        powers = [[Series.const(nv, out_cap, rat(1))] for _ in maps]
        for e, c in self.terms.items():
            term = Series.const(nv, out_cap, c)
            for j, k in enumerate(e):
                if k:
                    table = powers[j]
                    while len(table) <= k:
                        table.append(table[-1] * maps[j].truncate(out_cap))
                    term = term * table[k]
            acc = acc + term
        return acc

    def conj(self) -> "Series":
        """Formal conjugation: swap the paired variables, conjugate coefficients."""
        n = self.nvars // 2
        out: dict[Exps, ExactScalar] = {}
        for e, c in self.terms.items():
            swapped = e[n:] + e[:n]
            out[swapped] = c.conjugate()
        return Series(self.nvars, self.cap, out)

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    dim = len(a)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = None
            for k in range(dim):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                p = a[i][k] * b[k][j]
                acc = p if acc is None else acc + p
            row.append(acc if acc is not None else Series.zero(a[0][0].nvars, a[0][0].cap))
        out.append(row)
    return out


def _const_matrix_inverse(m: list[list[ExactScalar]]) -> list[list[ExactScalar]]:
    """Exact Gauss-Jordan; pivots must stay pi-monomials (rational suffices here)."""
    dim = len(m)
    a = [row[:] for row in m]
    inv = [[rat(1) if i == j else rat(0) for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        piv = None
        for r in range(col, dim):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular constant matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(dim):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def mat_inverse(a: Matrix) -> Matrix:
    """Series inverse by Newton iteration from the exact constant-term inverse."""
    dim = len(a)
    nvars = a[0][0].nvars
    cap = min(s.cap for row in a for s in row)
    const = [[a[i][j].value0() for j in range(dim)] for i in range(dim)]
    x = [[Series.const(nvars, cap, c) for c in row] for row in _const_matrix_inverse(const)]
    two = mat_scale(mat_identity(dim, nvars, cap), rat(2))
    err_deg = 1
    while err_deg <= cap:
        x = mat_mul(x, mat_sub(two, mat_mul(a, x)))
        err_deg *= 2
    return x


def mat_sqrt(a: Matrix) -> Matrix:
    """Square root of a series matrix whose constant term is the identity.

    With a = I + X, sqrt(a) = sum_k binom(1/2, k) X^k; X is constant-free, so
    X^k starts at degree k and the sum up to k = cap is exact.
    """
    dim = len(a)
    nvars = a[0][0].nvars
    cap = min(s.cap for row in a for s in row)
    ident = mat_identity(dim, nvars, cap)
    for i in range(dim):
        for j in range(dim):
            want = rat(1) if i == j else rat(0)
            if a[i][j].value0() != want:
                raise ValueError("matrix square root needs identity constant term")
    x = mat_sub(a, ident)
    s, power, coeff = ident, ident, rat(1)
    for k in range(1, cap + 1):
        power = mat_mul(power, x)
        coeff = coeff.scale(f"{3 - 2 * k}/{2 * k}")  # binom(1/2, k)
        s = mat_add(s, mat_scale(power, coeff))
    return s
