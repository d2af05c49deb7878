"""Truncated series: the graded ring operations against term-by-term
oracles, the substitution, and the exact square root and inverse."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from bergman.scalars import ExactScalar, rat
from bergman.series import (
    Series,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_sqrt,
)
from oracles import compose_per_entry, series_add_pairwise, series_mul_pairwise

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
    a = _random_matrix(100 + cap, cap, _identity_const())
    ident = mat_identity(DIM, NVARS, cap)
    inv = mat_inverse(a)
    assert mat_mul(inv, a) == ident
    assert mat_mul(a, inv) == ident


@pytest.mark.parametrize("power", [mat_sqrt, mat_inverse])
def test_binomial_series_needs_identity_constant_term(power):
    const = _identity_const()
    const[0][1] = rat("1/2")
    with pytest.raises(ValueError, match="identity constant term"):
        power(_random_matrix(0, 2, const))
    const = _identity_const()
    const[2][2] = rat(4)
    with pytest.raises(ValueError, match="identity constant term"):
        power(_random_matrix(0, 2, const))


def _random_series(rng: random.Random, nvars: int, cap: int, low: int = 0,
                   density: float = 0.6) -> Series:
    """Seeded Gaussian-rational pi-Laurent terms of degree low..cap, some of them absent."""
    terms = {}
    for e in product(range(cap + 1), repeat=nvars):
        if low <= sum(e) <= cap and rng.random() < density:
            terms[e] = ExactScalar.rational(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 6])),
                                            Fraction(rng.randint(-2, 2), rng.choice([1, 3])),
                                            rng.randint(-1, 1))
    return Series(nvars, cap, terms)


def _assert_well_formed(s: Series, cap: int) -> None:
    """The cap is `cap`, no term lies above it and no coefficient is zero."""
    assert s.cap == cap
    assert all(sum(e) <= cap and not c.is_zero() for e, c in s.terms.items())


_MIXED_CAPS = [(2, 2), (1, 3), (4, 2), (3, 0), (0, 3)]


@pytest.mark.parametrize("cx, cy", _MIXED_CAPS)
def test_ring_operations_match_the_pairwise_oracles(cx, cy):
    rng = random.Random(10 * cx + cy)
    for nvars in (1, 2, 4):
        x, y = _random_series(rng, nvars, cx), _random_series(rng, nvars, cy)
        cap = min(cx, cy)
        # subtraction also against a y that shares every term of x, and x itself
        for got, want in ((x * y, series_mul_pairwise(x, y)),
                          (x + y, series_add_pairwise(x, y)),
                          (x - y, series_add_pairwise(x, -y)),
                          (x - (x + y), series_add_pairwise(x, -(x + y))),
                          (x - x.truncate(cy), Series(nvars, cap))):
            _assert_well_formed(got, cap)
            assert got == want
        got = x.truncate(cap)
        _assert_well_formed(got, cap)
        assert got == Series(nvars, cap, x.terms)
        c = rat("-2/3", 1, 1)
        got = x.scale(c)
        _assert_well_formed(got, cx)
        assert got == series_mul_pairwise(x, Series.const(nvars, cx, c))


def test_cancelling_products_store_no_zero_coefficient():
    w0, w1 = Series.var(2, 3, 0), Series.var(2, 3, 1)
    p = (w0 + w1) * (w0 - w1)  # the w0 w1 coefficients cancel
    _assert_well_formed(p, 3)
    assert p.terms == {(2, 0): rat(1), (0, 2): rat(-1)}
    rng = random.Random(7)
    x, y = _random_series(rng, 3, 3), _random_series(rng, 3, 2)
    for zero in (x * y - y * x, _one_row([(x, y), (-x, y)]),
                 _one_row([(x, y), (y, x.scale(rat(-1)))])):
        _assert_well_formed(zero, 2)
        assert zero.terms == {}


def _one_row(pairs: list[tuple[Series, Series]]) -> Series:
    """sum x * y over `pairs` as the one entry of a row times a column."""
    return mat_mul([[x for x, _ in pairs]], [[y] for _, y in pairs])[0][0]


@pytest.mark.parametrize("seed", range(4))
def test_fused_sum_matches_the_sum_of_products(seed):
    """A zero factor of the least cap sets the cap of the sum."""
    rng = random.Random(seed)
    nvars, cap = rng.choice([(2, 3), (4, 2), (6, 2)])
    pairs = [(_random_series(rng, nvars, rng.randint(cap, cap + 1), density=0.4),
              _random_series(rng, nvars, rng.randint(cap, cap + 2), density=0.4))
             for _ in range(rng.randint(1, 5))]
    pairs.append((Series.zero(nvars, cap), pairs[0][1]))
    want = Series.zero(nvars, cap)
    for x, y in pairs:
        want = series_add_pairwise(want, series_mul_pairwise(x, y))
    got = _one_row(pairs)
    _assert_well_formed(got, cap)
    assert got == want
    _assert_well_formed(_one_row(pairs[-1:]), cap)


def _assert_matches_the_entrywise_oracle(rows, m):
    """Entry d of row t of rows times m is the sum of the pairwise products;
    zero entries count towards the cap of that sum, and only there."""
    for t, got in zip(rows, mat_mul(rows, m)):
        for d in range(len(m[0])):
            want = Series.zero(NVARS, min(min(x.cap, r[d].cap) for x, r in zip(t, m)))
            for x, r in zip(t, m):
                want = series_add_pairwise(want, series_mul_pairwise(x, r[d]))
            _assert_well_formed(got[d], want.cap)
            assert got[d] == want


def _mixed_entry(rng: random.Random) -> Series:
    return _random_series(rng, NVARS, rng.choice([1, 2, 3]), density=rng.choice([0, 0.5]))


@pytest.mark.parametrize("seed", range(3))
def test_mat_mul_matches_the_entrywise_oracle(seed):
    """Square products of mixed caps with zero entries."""
    rng = random.Random(50 + seed)
    a = [[_mixed_entry(rng) for _ in range(DIM)] for _ in range(DIM)]
    b = [[_mixed_entry(rng) for _ in range(DIM)] for _ in range(DIM)]
    _assert_matches_the_entrywise_oracle(a, b)


@pytest.mark.parametrize("seed", range(3))
def test_vec_mat_matches_the_entrywise_oracle(seed):
    """More row vectors than the matrix has rows: the non-square product."""
    rng = random.Random(70 + seed)
    m = [[_mixed_entry(rng) for _ in range(DIM)] for _ in range(DIM)]
    rows = [[_mixed_entry(rng) for _ in range(DIM)] for _ in range(4)]
    _assert_matches_the_entrywise_oracle(rows, m)


@pytest.mark.parametrize("cap", [None, 1, 2, 3])
def test_mat_compose_matches_per_entry_compose(cap):
    """`Series.compose` on each entry of a matrix of series, with one set of
    maps, is the substitution one term and one power at a time."""
    rng = random.Random(cap or 0)
    nvars = 3
    maps = [_random_series(rng, nvars, 3, low=1) for _ in range(nvars)]
    a = [[_random_series(rng, nvars, rng.choice([2, 3, 4])) for _ in range(2)] for _ in range(2)]
    for i, j in product(range(2), repeat=2):
        got = a[i][j].compose(maps, cap)
        _assert_well_formed(got, 3 if cap is None else cap)
        assert got == compose_per_entry(a[i][j], maps, cap)


def test_compose_needs_constant_free_maps():
    s = Series(2, 2, {(1, 0): rat(1), (0, 2): rat(3)})
    maps = [Series.var(2, 2, 1), Series.var(2, 2, 0) + Series.const(2, 2, rat("1/2"))]
    with pytest.raises(ValueError, match="constant-free"):
        s.compose(maps)
    with pytest.raises(ValueError, match="one substitution per variable"):
        s.compose(maps[:1])
