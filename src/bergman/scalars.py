"""The coefficient field: Laurent polynomials in pi over the Gaussian rationals.

Every quantity in this package (curvature components, oscillator amplitudes,
kernel values) is a finite sum  sum_k (a_k + i b_k) pi^k  with a_k, b_k
rational and k ranging over the integers.  Since pi is transcendental, two
such expressions are equal iff they are structurally equal, which is what
makes "exact equality" a decidable test everywhere downstream.

Division is deliberately restricted to monomials (a single pi-power with an
invertible Gaussian-rational coefficient): that is the only division the
resolvent calculus ever needs, and keeping it that narrow means the ring
never silently leaves the Laurent class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class ExactScalar:
    """An element of Q(i)[pi, pi^-1], stored sparsely by pi-power."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, tuple[Fraction, Fraction]] | None = None):
        clean: dict[int, tuple[Fraction, Fraction]] = {}
        if terms:
            for k, (re, im) in terms.items():
                if re or im:
                    clean[int(k)] = (re, im)
        self._terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactScalar":
        return _CACHED_ZERO

    @classmethod
    def one(cls) -> "ExactScalar":
        return _CACHED_ONE

    @classmethod
    def rational(cls, re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> "ExactScalar":
        return cls({pi_pow: (_frac(re), _frac(im))})

    @classmethod
    def i(cls) -> "ExactScalar":
        return cls({0: (_ZERO, Fraction(1))})

    @classmethod
    def pi(cls, power: int = 1, coeff: RationalLike = 1) -> "ExactScalar":
        return cls({power: (_frac(coeff), _ZERO)})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        return all(im == 0 for _, im in self._terms.values())

    def is_rational(self) -> bool:
        return set(self._terms) <= {0} and self.is_real()

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; only valid when pi-free and real."""
        if not self._terms:
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"not a plain rational: {self}")
        return self._terms[0][0]

    def terms(self) -> Iterable[tuple[int, Fraction, Fraction]]:
        for k in sorted(self._terms):
            re, im = self._terms[k]
            yield k, re, im

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for k, (re, im) in other._terms.items():
            if k in terms:
                r0, i0 = terms[k]
                terms[k] = (r0 + re, i0 + im)
            else:
                terms[k] = (re, im)
        return ExactScalar(terms)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar({k: (-re, -im) for k, (re, im) in self._terms.items()})

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not self._terms or not other._terms:
            return _CACHED_ZERO
        terms: dict[int, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in self._terms.items():
            for k2, (c, d) in other._terms.items():
                k = k1 + k2
                re = a * c - b * d
                im = a * d + b * c
                if k in terms:
                    r0, i0 = terms[k]
                    terms[k] = (r0 + re, i0 + im)
                else:
                    terms[k] = (re, im)
        return ExactScalar(terms)

    def scale(self, re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> "ExactScalar":
        return self * ExactScalar.rational(re, im, pi_pow)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        """Division by a monomial c*pi^k with c an invertible Gaussian rational."""
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if len(other._terms) != 1:
            raise ZeroDivisionError(f"division only by pi-monomials, got {other}")
        (k, (c, d)), = other._terms.items()
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        inv = ExactScalar({-k: (c / norm, -d / norm)})
        return self * inv

    def conjugate(self) -> "ExactScalar":
        return ExactScalar({k: (re, -im) for k, (re, im) in self._terms.items()})

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    # -- formatting / serialization ------------------------------------------

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

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
        return [
            {"pi_pow": k, "re": str(re), "im": str(im)}
            for k, re, im in self.terms()
        ]

    @classmethod
    def from_json(cls, data: object) -> "ExactScalar":
        """Read a payload: a "p" or "p/q" string of ASCII digits, an int, or a list of
        {"pi_pow": int, "re": str | int, "im": str | int} items.

        Anything else, floats and bools included, raises ValueError: a float
        would load as its binary value rather than the number written.
        """
        if not isinstance(data, list):
            return cls.rational(_exact_rational(data))
        terms: dict[int, tuple[Fraction, Fraction]] = {}
        for item in data:
            if not isinstance(item, dict) or not _is_int(item.get("pi_pow")):
                raise ValueError(f"bad scalar term {item!r}: need an integer pi_pow")
            k = item["pi_pow"]
            re = _exact_rational(item.get("re", "0"))
            im = _exact_rational(item.get("im", "0"))
            if k in terms:
                r0, i0 = terms[k]
                re, im = r0 + re, i0 + im
            terms[k] = (re, im)
        return cls(terms)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The form str(Fraction) writes.  Fraction() itself also takes exponents,
# decimals, underscores and spaces; "1e1000000" would expand to a million digits.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _exact_rational(x: object) -> Fraction:
    """An int or a "p" / "p/q" string payload as a Fraction; ValueError for anything else."""
    if not (_is_int(x) or isinstance(x, str) and _RATIONAL_RE.fullmatch(x)):
        raise ValueError(f"bad scalar payload {x!r}: need an int or a \"p\" or \"p/q\" string")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"bad scalar payload {x!r}: zero denominator") from None


def _format_gaussian(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{mag}i"
    return f"({re}{sign}{istr})"


_CACHED_ZERO = ExactScalar()
_CACHED_ONE = ExactScalar({0: (Fraction(1), _ZERO)})


def rat(re: RationalLike, im: RationalLike = 0, pi_pow: int = 0) -> ExactScalar:
    """Shorthand constructor used pervasively in formulas and tests."""
    return ExactScalar.rational(re, im, pi_pow)

