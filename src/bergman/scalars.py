"""The coefficient field: Laurent polynomials in pi over the Gaussian rationals.

Every quantity in this package (curvature components, oscillator amplitudes,
kernel values) is a finite sum  sum_k (a_k + i b_k) pi^k  with a_k, b_k
rational and k ranging over the integers.  Since pi is transcendental, two
such expressions are equal iff they are structurally equal, which is what
makes "exact equality" a decidable test everywhere downstream.

Layout.  A scalar holds integers only: `_num` maps each pi-power k to the
integer numerators (a_k D, b_k D) of its Gaussian coefficient, all over one
shared denominator `_den` = D > 0 (the layout of FLINT's fmpq_poly).  The
form is canonical: no entry is (0, 0), gcd(D, every numerator) = 1, and
zero is the empty map over D = 1.  Every operation restores it with one gcd
pass over the integers, so equal values have equal fields and `==` and
`hash` compare structure.  `terms()` hands the coefficients out as
`Fraction`s; no `Fraction` arithmetic runs inside.

There is no division.  Every quotient the package forms is by a rational
constant (a binomial coefficient, a factorial, an eigenvalue count), and it
is written as a product with a rational literal: `rat("p/q")` or
`scale("p/q")`.  So every value is built from the inputs by ring operations
and multiplication by constants, and `a / b` raises TypeError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

Numerators = dict[int, tuple[int, int]]


class ExactScalar:
    """An element of Q(i)[pi, pi^-1]: integer numerators by pi-power over one denominator."""

    __slots__ = ("_num", "_den")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactScalar":
        return _CACHED_ZERO

    @classmethod
    def one(cls) -> "ExactScalar":
        return _CACHED_ONE

    @classmethod
    def rational(cls, re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> "ExactScalar":
        if type(re) is int and type(im) is int:
            return _make({pi_pow: (re, im)}, 1) if re or im else _CACHED_ZERO
        (a, p), (b, q) = [(x.numerator, x.denominator) if isinstance(x, Fraction)
                          else _exact_rational(x) for x in (re, im)]
        return _reduced({pi_pow: (a * q, b * p)}, p * q)

    @classmethod
    def i(cls) -> "ExactScalar":
        return _make({0: (0, 1)}, 1)

    @classmethod
    def pi(cls, power: int = 1, coeff: RationalLike = 1) -> "ExactScalar":
        return cls.rational(coeff, 0, power)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def terms(self) -> Iterable[tuple[int, Fraction, Fraction]]:
        den = self._den
        for k in sorted(self._num):
            re, im = self._num[k]
            yield k, Fraction(re, den), Fraction(im, den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        return _combine(self, other, 1)

    def __neg__(self) -> "ExactScalar":
        return _make({k: (-a, -b) for k, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not other._num:
            return self
        return _combine(self, other, -1)

    def negates(self, other: "ExactScalar") -> bool:
        """Whether self == -other, without forming -other."""
        n1, n2 = self._num, other._num
        if self._den != other._den or len(n1) != len(n2):
            return False
        for k, (a, b) in n1.items():
            c = n2.get(k)
            if c is None or a != -c[0] or b != -c[1]:
                return False
        return True

    def conjugates(self, other: "ExactScalar", sign: int = 1) -> bool:
        """Whether other == sign * conj(self) for sign = 1 or -1, without forming conj(self)."""
        n1, n2 = self._num, other._num
        if self._den != other._den or len(n1) != len(n2):
            return False
        for k, (a, b) in n1.items():
            c = n2.get(k)
            if c is None or c[0] != sign * a or c[1] != -sign * b:
                return False
        return True

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return _CACHED_ZERO
        if other._den == 1 and len(n2) == 1 and 0 in n2 and n2[0][1] == 0:
            # times a nonzero integer c: gcd(D, c * nums) = gcd(D, c) in canonical form
            c = n2[0][0]
            g = gcd(self._den, c)
            if g != 1:
                c //= g
            return _make({k: (a * c, b * c) for k, (a, b) in n1.items()}, self._den // g)
        if len(n1) == 1 and len(n2) == 1:
            # monomial times monomial: the product of nonzero Gaussian integers is nonzero
            (k1, (a, b)), = n1.items()
            (k2, (c, d)), = n2.items()
            re, im, den = a * c - b * d, a * d + b * c, self._den * other._den
            if den != 1:
                g = gcd(den, re, im)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            return _make({k1 + k2: (re, im)}, den)
        return _fused(((self, other),))

    def scale(self, re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> "ExactScalar":
        return self * ExactScalar.rational(re, im, pi_pow)

    def conjugate(self) -> "ExactScalar":
        return _make({k: (a, -b) for k, (a, b) in self._num.items()}, self._den)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    # -- formatting / serialization ------------------------------------------

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def __str__(self) -> str:
        if not self._num:
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
        den = self._den
        return [
            {"pi_pow": k, "re": _ratio_str(re, den), "im": _ratio_str(im, den)}
            for k, (re, im) in sorted(self._num.items())
        ]

    @classmethod
    def from_json(cls, data: object) -> "ExactScalar":
        """Read a payload: a "p" or "p/q" string of ASCII digits, an int, or a list of
        {"pi_pow": int, "re": str | int, "im": str | int} items.

        Anything else, floats and bools included, raises ValueError: a float
        would load as its binary value rather than the number written.
        """
        if not isinstance(data, list):
            p, q = _exact_rational(data)
            return _reduced({0: (p, 0)}, q)
        parts: list[tuple[int, int, int, int, int]] = []
        den = 1
        for item in data:
            if not isinstance(item, dict) or not _is_int(item.get("pi_pow")):
                raise ValueError(f"bad scalar term {item!r}: need an integer pi_pow")
            re, re_den = _exact_rational(item.get("re", "0"))
            im, im_den = _exact_rational(item.get("im", "0"))
            parts.append((item["pi_pow"], re, re_den, im, im_den))
            den = lcm(den, re_den, im_den)
        num: Numerators = {}
        for k, re, re_den, im, im_den in parts:
            re, im = re * (den // re_den), im * (den // im_den)
            if k in num:
                r0, i0 = num[k]
                re, im = r0 + re, i0 + im
            num[k] = (re, im)
        return _reduced(num, den)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The form str(Fraction) writes.  Fraction() itself also takes exponents,
# decimals, underscores and spaces; "1e1000000" would expand to a million digits.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _exact_rational(x: object) -> tuple[int, int]:
    """An int or a "p" / "p/q" string payload as integers (p, q), q > 0, not
    necessarily in lowest terms; ValueError for anything else."""
    pq = _parse_ratio(x) if isinstance(x, str) else (x, 1) if _is_int(x) else None
    if pq is None:
        raise ValueError(f"bad scalar payload {x!r}: need an int or a \"p\" or \"p/q\" string")
    if not pq[1]:
        raise ValueError(f"bad scalar payload {x!r}: zero denominator")
    return pq


@lru_cache(maxsize=4096)  # a jet file repeats a few hundred distinct strings
def _parse_ratio(x: str) -> tuple[int, int] | None:
    """(p, q) of a "p" or "p/q" string, q = 0 included; None for any other string."""
    m = _RATIONAL_RE.fullmatch(x)
    if m is None:
        return None
    p, q = m.groups()
    return int(p), int(q) if q else 1


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms as str(Fraction(p, q)) writes it, for q > 0."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def _format_gaussian(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{mag}i"
    return f"({re}{sign}{istr})"


_new = object.__new__


def _make(num: Numerators, den: int) -> ExactScalar:
    """A scalar from fields already in canonical form."""
    s = _new(ExactScalar)
    s._num = num
    s._den = den
    return s


def _reduced(num: Numerators, den: int) -> ExactScalar:
    """The canonical scalar of num / den: zero entries dropped, one gcd pass."""
    g = den
    has_zero = False
    for a, b in num.values():
        if not (a or b):
            has_zero = True
        elif g != 1:
            g = gcd(g, a, b)
    if has_zero:
        num = {k: v for k, v in num.items() if v[0] or v[1]}
    if not num:
        return _CACHED_ZERO
    if g != 1:
        num = {k: (a // g, b // g) for k, (a, b) in num.items()}
        den //= g
    return _make(num, den)


def _combine(x: ExactScalar, y: ExactScalar, sign: int) -> ExactScalar:
    """x + sign * y for sign = 1 or -1, over the lcm of the denominators."""
    d1, d2 = x._den, y._den
    if d1 == d2:
        den, num, m2 = d1, dict(x._num), sign
    else:
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        den = d1 * m1
        num = {k: (a * m1, b * m1) for k, (a, b) in x._num.items()}
    for k, (c, d) in y._num.items():
        if m2 != 1:
            c, d = c * m2, d * m2
        if k in num:
            a, b = num[k]
            num[k] = (a + c, b + d)
        else:
            num[k] = (c, d)
    return _reduced(num, den)


def sum_products(pairs: Sequence[tuple[ExactScalar, ExactScalar]]) -> ExactScalar:
    """sum x * y over `pairs`.  A single pair is `x * y`, which has fast paths
    for monomials and integers."""
    if len(pairs) == 1:
        (x, y), = pairs
        return x * y
    return _fused(pairs)


def _fused(pairs: Sequence[tuple[ExactScalar, ExactScalar]]) -> ExactScalar:
    """sum x * y over `pairs`: every product summed over the least common
    denominator, then one gcd pass (`_reduced`) for the whole sum."""
    den = 1
    for x, y in pairs:
        d = x._den * y._den
        if den % d:
            den = den // gcd(den, d) * d
    num: Numerators = {}
    for x, y in pairs:
        n2 = y._num
        m = den // (x._den * y._den)
        for k1, (a, b) in x._num.items():
            if m != 1:
                a, b = a * m, b * m
            for k2, (c, d) in n2.items():
                k = k1 + k2
                re = a * c - b * d
                im = a * d + b * c
                if k in num:
                    r0, i0 = num[k]
                    num[k] = (r0 + re, i0 + im)
                else:
                    num[k] = (re, im)
    return _reduced(num, den)


_CACHED_ZERO = _make({}, 1)
_CACHED_ONE = _make({0: (1, 0)}, 1)


def rat(re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> ExactScalar:
    """Shorthand constructor used pervasively in formulas and tests."""
    return ExactScalar.rational(re, im, pi_pow)

