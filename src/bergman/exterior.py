"""Exterior algebra on n anti-holomorphic generators with Clifford actions.

The state space is Lambda(W*) tensor C^rkE, where W* has generators
vb^1, ..., vb^n (the duals of an orthonormal anti-holomorphic frame
vb_1, ..., vb_n).  Wedge words are subsets of {1..n} stored with strictly
increasing indices; the auxiliary index varies fastest in the flattened
basis so serialization is deterministic.

Clifford conventions.  For a complexified tangent vector v with parts
(v10, v01) the Clifford action is c(v) = sqrt(2) (dual(v10) wedge - i_{v01}),
so c(v_j) = sqrt(2) vb^j wedge and c(vb_j) = -sqrt(2) i_{vb_j}.  A single
factor carries sqrt(2), which is irrational; every quantity this package
evaluates is an even product of factors.  The routes quantize through
`clifford_of_form`.  `CliffordFactor` (a product with its power of sqrt(2)
kept aside), `clifford_factor`, `clifford_vector`, `clifford_pair` and
`action_two_form` run on no program path: they stay only because
`perfbench/spans.py` wraps them.

Complex frame labels: an integer a in 0..2n-1 denotes v_{a+1} for a < n and
vb_{a-n+1} for a >= n.  Metric pairing partners v_j <-> vb_j implement frame
resolutions of identity without ever leaving exact arithmetic.

Clifford quantization of forms.  An even, totally antisymmetric form acts
through the quantization map of Berline-Getzler-Vergne (Heat Kernels and
Dirac Operators, 3.1): a sum over increasing label words w of the form's
value on the partner word times Q(w), the antisymmetrized product of the
bare Clifford factors of w.  Q(w) depends only on the algebra, so each
algebra builds it once, by expansion along the first factor.  The 2-form
action `action_two_form` is half the degree-2 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Callable, Sequence

from .scalars import ExactScalar, rat, sum_products

CompFn = Callable[[int, int], ExactScalar]

_ZERO = ExactScalar.zero()
_ONE = ExactScalar.one()
_HALF = ExactScalar.rational("1/2")


class ExteriorAlgebra:
    """Basis bookkeeping for Lambda(W*) tensor C^rkE with n generators."""

    def __init__(self, n: int, rk_e: int = 1):
        if n < 1:
            raise ValueError("need at least one generator")
        if rk_e < 1:
            raise ValueError("auxiliary rank must be positive")
        self.n = n
        self.rk_e = rk_e
        self.words = sorted(w for k in range(n + 1) for w in combinations(range(1, n + 1), k))
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words) * rk_e
        self._quantized_words: dict[tuple[int, ...], dict[tuple[int, int], ExactScalar]] = {}
        self._bare_factors: dict[int, dict[tuple[int, int], ExactScalar]] = {}

    def basis_index(self, word: tuple[int, ...], e: int = 0) -> int:
        return self.word_index[word] * self.rk_e + e

    # -- elementary endomorphisms -------------------------------------------

    def zero_endo(self) -> "ExteriorEndo":
        return ExteriorEndo(self, {})

    def _diagonal(self, value: Callable[[tuple[int, ...]], ExactScalar]) -> "ExteriorEndo":
        """The diagonal endomorphism with value(word) on every aux index of the word."""
        entries: dict[tuple[int, int], ExactScalar] = {}
        for w in self.words:
            v = value(w)
            for e in range(self.rk_e):
                idx = self.basis_index(w, e)
                entries[(idx, idx)] = v
        return ExteriorEndo(self, entries)

    def identity(self) -> "ExteriorEndo":
        return self._diagonal(lambda w: _ONE)

    def scalar_endo(self, c: ExactScalar) -> "ExteriorEndo":
        return self._diagonal(lambda w: c)

    def endo_from_aux_matrix(self, mat: Sequence[Sequence[ExactScalar]]) -> "ExteriorEndo":
        """Id on the wedge factor tensored with a rk_e x rk_e matrix."""
        entries: dict[tuple[int, int], ExactScalar] = {}
        for w in self.words:
            base = self.word_index[w] * self.rk_e
            for r in range(self.rk_e):
                for c in range(self.rk_e):
                    v = mat[r][c]
                    if not v.is_zero():
                        entries[(base + r, base + c)] = v
        return ExteriorEndo(self, entries)

    def wedge(self, j: int) -> "ExteriorEndo":
        """Exterior multiplication by the generator vb^j, 1-based."""
        entries: dict[tuple[int, int], ExactScalar] = {}
        for w in self.words:
            if j in w:
                continue
            pos = sum(1 for s in w if s < j)
            sign = rat(-1 if pos % 2 else 1)
            target = tuple(sorted(w + (j,)))
            for e in range(self.rk_e):
                entries[(self.basis_index(target, e), self.basis_index(w, e))] = sign
        return ExteriorEndo(self, entries)

    def contract(self, j: int) -> "ExteriorEndo":
        """Interior multiplication i_{vb_j}, 1-based: the adjoint, so transpose, of `wedge(j)`."""
        return ExteriorEndo(self, {(c, r): v for (r, c), v in self.wedge(j).entries.items()})

    def omega_d(self, q: int) -> "ExteriorEndo":
        """Diagonal degree operator; eigenvalue -2 pi (defect count of the word).

        The defect of a word S relative to the distinguished word {1..q} is
        #(j <= q missing from S) + #(j > q present in S); the kernel is
        exactly the {1..q} sector.
        """
        return self._diagonal(lambda w: ExactScalar.pi(1, -2 * self.word_defect(w, q)))

    def word_defect(self, word: tuple[int, ...], q: int) -> int:
        missing = sum(1 for j in range(1, q + 1) if j not in word)
        extra = sum(1 for j in word if j > q)
        return missing + extra

    def det_word(self, q: int) -> tuple[int, ...]:
        return tuple(range(1, q + 1))

    def project_det(self, q: int) -> "ExteriorEndo":
        """Orthogonal projection onto the {1..q} wedge word (all aux indices)."""
        det = self.det_word(q)
        return self._diagonal(lambda w: _ONE if w == det else _ZERO)

    def project_degree(self, q: int) -> "ExteriorEndo":
        """Orthogonal projection onto all degree-q wedge words (all aux indices)."""
        return self._diagonal(lambda w: _ONE if len(w) == q else _ZERO)

    # -- Clifford action -----------------------------------------------------

    def partner(self, a: int) -> int:
        """Metric pairing partner of a complex frame label: v_j <-> vb_j."""
        return a - self.n if a >= self.n else a + self.n

    def clifford_factor(self, a: int) -> "CliffordFactor":
        """The single Clifford factor c(V_a) with its sqrt(2) tracked aside."""
        return CliffordFactor(ExteriorEndo(self, self._bare_factor(a)), 1)

    def _bare_factor(self, a: int) -> dict[tuple[int, int], ExactScalar]:
        """The entries of the matrix of c(V_a), built once per algebra."""
        entries = self._bare_factors.get(a)
        if entries is None:
            m = self.wedge(a + 1) if a < self.n else -self.contract(a - self.n + 1)
            entries = self._bare_factors[a] = m.entries
        return entries

    def clifford_vector(self, coeffs: dict[int, ExactScalar]) -> "CliffordFactor":
        """c(v) for v = sum coeffs[a] V_a over complex frame labels."""
        m = self.zero_endo()
        for a, c in coeffs.items():
            if c.is_zero():
                continue
            m = m + self.clifford_factor(a).matrix.scale(c)
        return CliffordFactor(m, 1)

    def clifford_pair(self, a: int, b: int) -> "ExteriorEndo":
        """The exact even product c(V_a) c(V_b)."""
        return (self.clifford_factor(a) * self.clifford_factor(b)).as_endo()

    def clifford_of_form(self, degree: int, comp: Callable[[tuple[int, ...]], ExactScalar]) -> "ExteriorEndo":
        """Clifford quantization of a totally antisymmetric degree-d form.

        `comp` returns the form on complex frame labels.  For an orthonormal
        real frame the operator is sum_{i1<...<id} B(e_{i1},..) c(e_{i1}).. ;
        summing the complex resolution of identity in every slot yields
        (1/d!) sum_{a1..ad} B(partner(a1),..,partner(ad)) c(V_{a1})..c(V_{ad}).
        As B is antisymmetric, the orders of one label set add up to the
        increasing word w, so the sum is 2^(d/2)/d! sum_w B(partner(w)) Q(w),
        with 2^(d/2) collecting the sqrt(2) of each factor (Berline-Getzler-
        Vergne, Heat Kernels and Dirac Operators, 3.1).
        Only even degrees are supported (odd ones would strand a sqrt(2)).
        """
        if degree % 2:
            raise ValueError("only even-degree forms act within exact arithmetic")
        scale = ExactScalar.rational(f"{2 ** (degree // 2)}/{factorial(degree)}")
        pairs: dict[tuple[int, int], list[tuple[ExactScalar, ExactScalar]]] = {}
        for w in combinations(range(2 * self.n), degree):
            c = comp(tuple(self.partner(a) for a in w))
            if c.is_zero():
                continue
            for key, v in self._quantized(w).items():
                pairs.setdefault(key, []).append((c, v))
        return ExteriorEndo(self, {key: sum_products(p) * scale for key, p in pairs.items()})

    def action_two_form(self, comp: CompFn) -> "ExteriorEndo":
        """(1/4) A(e_i, e_j) c(e_i) c(e_j) for an antisymmetric bilinear A:
        half the Clifford quantization of A.

        `comp(a, b)` gives A on complex frame labels (either a 2-form or
        <A' . , .> for a skew-adjoint endomorphism A').
        """
        return self.clifford_of_form(2, lambda w: comp(*w)).scale(_HALF)

    def _quantized(self, word: tuple[int, ...]) -> dict[tuple[int, int], ExactScalar]:
        """Q(word) for an increasing label word: the signed sum over all orders
        of the word of the product of its bare Clifford factors (the matrices
        of `clifford_factor`), built once per algebra by expanding along the
        first factor, Q(w) = sum_i (-1)^i m_{w_i} Q(w without w_i).
        Entries, not endomorphisms, so that the algebra holds no reference to itself."""
        entries = self._quantized_words.get(word)
        if entries is None:
            acc = self.identity() if not word else self.zero_endo()
            for i, a in enumerate(word):
                rest = ExteriorEndo(self, self._quantized(word[:i] + word[i + 1:]))
                term = ExteriorEndo(self, self._bare_factor(a)) @ rest
                acc = acc - term if i % 2 else acc + term
            entries = self._quantized_words[word] = acc.entries
        return entries


class ExteriorEndo:
    """Sparse matrix over ExactScalar in the wedge-word (x) aux basis."""

    __slots__ = ("alg", "entries")

    def __init__(self, alg: ExteriorAlgebra, entries: dict[tuple[int, int], ExactScalar]):
        self.alg = alg
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.entries

    def _check_same_algebra(self, other: "ExteriorEndo") -> None:
        a, b = self.alg, other.alg
        if a is not b and (a.n, a.rk_e) != (b.n, b.rk_e):
            raise ValueError("algebra mismatch")

    def __add__(self, other: "ExteriorEndo") -> "ExteriorEndo":
        self._check_same_algebra(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out[k] + v if k in out else v
        return ExteriorEndo(self.alg, out)

    def __neg__(self) -> "ExteriorEndo":
        return ExteriorEndo(self.alg, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "ExteriorEndo") -> "ExteriorEndo":
        return self + (-other)

    def __matmul__(self, other: "ExteriorEndo") -> "ExteriorEndo":
        self._check_same_algebra(other)
        cols: dict[int, list[tuple[int, ExactScalar]]] = {}
        for (r, c), v in other.entries.items():
            cols.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], ExactScalar] = {}
        for (r, mid), v in self.entries.items():
            for c, w in cols.get(mid, ()):
                key = (r, c)
                prod = v * w
                out[key] = out[key] + prod if key in out else prod
        return ExteriorEndo(self.alg, out)

    def scale(self, c: ExactScalar) -> "ExteriorEndo":
        if c.is_zero():
            return ExteriorEndo(self.alg, {})
        return ExteriorEndo(self.alg, {k: v * c for k, v in self.entries.items()})

    def adjoint(self) -> "ExteriorEndo":
        return ExteriorEndo(
            self.alg, {(c, r): v.conjugate() for (r, c), v in self.entries.items()}
        )

    def trace(self) -> ExactScalar:
        t = ExactScalar.zero()
        for (r, c), v in self.entries.items():
            if r == c:
                t = t + v
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExteriorEndo):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __repr__(self) -> str:
        if not self.entries:
            return "ExteriorEndo(0)"
        items = ", ".join(
            f"({r},{c}): {v}" for (r, c), v in sorted(self.entries.items())
        )
        return f"ExteriorEndo({items})"

    def to_json(self) -> dict[str, object]:
        """Row-major dense dump; entries are pi-term lists."""
        dim = self.alg.dim
        rows = []
        for r in range(dim):
            row = []
            for c in range(dim):
                v = self.entries.get((r, c))
                row.append(v.to_json() if v is not None else [])
            rows.append(row)
        return {"n": self.alg.n, "rk_e": self.alg.rk_e, "matrix": rows}


@dataclass(frozen=True)
class B1Result:
    """A computed coefficient and the route that evaluated it.  It lives in a
    module both routes import, so that neither imports the other."""

    endo: ExteriorEndo
    route: str

    @property
    def trace(self) -> ExactScalar:
        return self.endo.trace()

    def to_json(self) -> dict[str, object]:
        return {"route": self.route, "trace": self.trace.to_json(), "endo": self.endo.to_json()}


class CliffordFactor:
    """A product of Clifford factors with its power of sqrt(2) kept symbolic."""

    __slots__ = ("matrix", "half_powers")

    def __init__(self, matrix: ExteriorEndo, half_powers: int):
        self.matrix = matrix
        self.half_powers = half_powers

    def __mul__(self, other: "CliffordFactor") -> "CliffordFactor":
        return CliffordFactor(self.matrix @ other.matrix, self.half_powers + other.half_powers)

    def as_endo(self) -> ExteriorEndo:
        if self.half_powers % 2:
            raise ValueError("odd number of Clifford factors leaves a stray sqrt(2)")
        return self.matrix.scale(rat(2 ** (self.half_powers // 2)))
