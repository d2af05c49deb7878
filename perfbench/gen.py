"""Seeded generator of normalized degree-4 potentials and auxiliary twists.

The family matches the library's own random potentials: the mixed Hessian
is diag(-pi, .., -pi, +pi, .., +pi) with q minus signs, and every cubic and
quartic monomial gets a Gaussian-rational coefficient times pi^2, mirrored
(conjugated, with z and zbar exponents swapped) so the potential is real.
Unlike the library generator, every coefficient is nonzero, so the number of
terms, and with it the work per input, does not depend on the seed.

The generator is independent of `bergman.random_potential` on purpose: a
change to that function must not change the benchmark's inputs.  Output is
the potential JSON that `parse_potential` and `bergman jet build` accept.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

_NUMERATORS = (-2, -1, 1, 2)
_DENOMINATORS = (1, 2, 3)


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def monomial_key(e: tuple[int, ...], n: int) -> str:
    """The potential-JSON key of an exponent vector (z1..zn, zb1..zbn)."""
    factors = []
    for j in range(n):
        if e[j]:
            factors.append(f"z{j + 1}" + (f"^{e[j]}" if e[j] > 1 else ""))
    for j in range(n):
        if e[n + j]:
            factors.append(f"zb{j + 1}" + (f"^{e[n + j]}" if e[n + j] > 1 else ""))
    return " ".join(factors)


def _scalar(re: Fraction, im: Fraction, pi_pow: int) -> list[dict[str, object]]:
    return [{"pi_pow": pi_pow, "re": str(re), "im": str(im)}]


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))


def potential(rng: random.Random, n: int, q: int) -> dict[str, object]:
    """One normalized real potential of signature (q, n - q)."""
    if not 0 <= q <= n:
        raise ValueError("signature index out of range")
    out: dict[str, object] = {}
    for j in range(n):
        e = [0] * (2 * n)
        e[j] = e[n + j] = 1
        out[monomial_key(tuple(e), n)] = _scalar(Fraction(-1 if j < q else 1), Fraction(0), 1)
    for degree in (3, 4):
        for e in _monomials(2 * n, degree):
            mirror = e[n:] + e[:n]
            if mirror < e:
                continue
            re = _small(rng)
            im = Fraction(0) if mirror == e else _small(rng)
            out[monomial_key(e, n)] = _scalar(re, im, 2)
            if mirror != e:
                out[monomial_key(mirror, n)] = _scalar(re, -im, 2)
    return out


def diagonal_twist(rng: random.Random, n: int) -> dict[str, object]:
    """Auxiliary potential sum_j c_j pi |z_j|^2: a diagonal curvature twist."""
    return {f"z{j + 1} zb{j + 1}": _scalar(_small(rng), Fraction(0), 1) for j in range(n)}
