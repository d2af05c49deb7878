"""Shared fixtures: jets are expensive enough to build once per session."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

from bergman.geometry import (
    flat_potential,
    fs_product_potential,
    jet_from_potential,
    parse_potential,
    random_potential,
)
from bergman.scalars import ExactScalar
from bergman.series import Series

CROSSCHECK_SEEDS = tuple(range(1, 21))


def dense_potential(n: int, q: int, seed: int) -> Series:
    """A seeded normalized real potential whose every cubic and quartic
    coefficient is nonzero (`random_potential` zeroes about a fifth of them):
    a nonzero Gaussian rational times pi^2 per monomial, conjugated onto its
    mirror."""
    rng = random.Random(seed)
    terms = dict(flat_potential(n, q).terms)

    def small() -> str:
        return f"{rng.choice((-2, -1, 1, 2))}/{rng.choice((1, 2, 3))}"

    for degree in (3, 4):
        for combo in combinations_with_replacement(range(2 * n), degree):
            e = tuple(combo.count(i) for i in range(2 * n))
            mirror = e[n:] + e[:n]
            if mirror < e:
                continue
            c = ExactScalar.rational(small(), 0 if mirror == e else small(), 2)
            terms[e] = c
            terms[mirror] = c.conjugate()
    return Series(2 * n, 4, terms)


@pytest.fixture(scope="session")
def jet_cache():
    cache = {}

    def get(kind: str, n: int, q: int, seed: int = 0, rk_e: int = 1, twist=None, swap=None,
            offdiag=None):
        """`swap`, a permutation of 0..n-1, relabels z_j and zbar_j as z_swap[j], zbar_swap[j].
        `twist` holds the coefficients of z_j zb_j in the auxiliary potential, over pi, and
        `offdiag`, a (re, im) pair, that of z1 zb2, with its conjugate on z2 zb1."""
        key = (kind, n, q, seed, rk_e, twist, swap, offdiag)
        if key not in cache:
            if kind == "flat":
                phi = flat_potential(n, q)
            elif kind == "fs":
                phi = fs_product_potential(n, q)
            elif kind == "random":
                phi = random_potential(n, q, seed)
            elif kind == "dense":
                phi = dense_potential(n, q, seed)
            else:
                raise ValueError(kind)
            if swap is not None:
                sigma = tuple(swap[a % n] + (n if a >= n else 0) for a in range(2 * n))
                phi = Series(2 * n, phi.cap,
                             {tuple(e[i] for i in sigma): c for e, c in phi.terms.items()})
            phi_e = None
            if twist is not None:
                terms = {f"z{j + 1} zb{j + 1}": [{"pi_pow": 1, "re": str(c), "im": "0"}]
                         for j, c in enumerate(twist)}
                if offdiag is not None:
                    c = ExactScalar.rational(*offdiag, 1)
                    terms["z1 zb2"], terms["z2 zb1"] = c.to_json(), c.conjugate().to_json()
                phi_e = parse_potential(terms, n)
            cache[key] = jet_from_potential(phi, phi_e, n=n, q=q, rk_e=rk_e)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def batch_jets(jet_cache):
    """The seeded mixed-signature batch used by the cross-check criteria."""
    return [jet_cache("random", 2, 1, seed) for seed in CROSSCHECK_SEEDS]
