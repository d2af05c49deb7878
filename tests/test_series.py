"""Matrix functions of truncated series: exact square root and inverse."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from bergman.scalars import ExactScalar, rat
from bergman.series import Series, mat_identity, mat_inverse, mat_mul, mat_sqrt

DIM, NVARS = 3, 2


def _random_matrix(seed: int, cap: int, const) -> list[list[Series]]:
    """Seeded entries const[i][j] + Gaussian-rational pi-Laurent terms of degree 1..cap."""
    rng = random.Random(seed)

    def small() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    monos = [e for e in product(range(cap + 1), repeat=NVARS) if 1 <= sum(e) <= cap]
    out = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            terms = {e: ExactScalar.rational(small(), small(), rng.randint(-1, 2))
                     for e in monos}
            terms[(0,) * NVARS] = const[i][j]
            row.append(Series(NVARS, cap, terms))
        out.append(row)
    return out


def _identity_const():
    return [[rat(1) if i == j else rat(0) for j in range(DIM)] for i in range(DIM)]


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_mat_sqrt_squares_back(cap):
    a = _random_matrix(cap, cap, _identity_const())
    s = mat_sqrt(a)
    assert mat_mul(s, s) == a
    assert [[x.value0() for x in row] for row in s] == _identity_const()


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_mat_inverse_is_inverse(cap):
    rng = random.Random(100 + cap)
    # strictly diagonally dominant, hence invertible
    const = [[rat(rng.randint(3, 5)) if i == j else rat(Fraction(rng.randint(-1, 1), 2))
              for j in range(DIM)] for i in range(DIM)]
    a = _random_matrix(cap, cap, const)
    ident = mat_identity(DIM, NVARS, cap)
    inv = mat_inverse(a)
    assert mat_mul(inv, a) == ident
    assert mat_mul(a, inv) == ident


def test_mat_sqrt_needs_identity_constant_term():
    const = _identity_const()
    const[0][1] = rat("1/2")
    with pytest.raises(ValueError):
        mat_sqrt(_random_matrix(0, 2, const))
    const = _identity_const()
    const[2][2] = rat(4)
    with pytest.raises(ValueError):
        mat_sqrt(_random_matrix(0, 2, const))
