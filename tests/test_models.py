import itertools
import time
from fractions import Fraction

import pytest

from bergman.models import (
    cp1_product_trace,
    cp1_sections_kernel,
    dimension_polynomial,
    fit_expansion,
    rrh_coefficients,
)

from oracles import rrh_class_integrals


def test_section_counts():
    assert cp1_product_trace(5, 1, 0) == 6          # six sections of the 5th power
    assert cp1_product_trace(5, 1, 1) == 4          # dual route: 5 - 1
    assert cp1_product_trace(4, 2, 1) == 3 * 5
    assert cp1_product_trace(3, 3, 2) == 2 * 2 * 4


def test_vanishing_regime_guard():
    with pytest.raises(ValueError):
        cp1_product_trace(1, 1, 0)
    with pytest.raises(ValueError):
        cp1_product_trace(4, 2, 3)


@pytest.mark.parametrize("n,q", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_dimension_polynomial_matches_traces(n, q):
    coeffs = dimension_polynomial(n, q)
    for p in range(2, 7):
        val = sum(c * p ** (n - i) for i, c in enumerate(coeffs))
        assert val == cp1_product_trace(p, n, q)
    assert coeffs[0] == 1
    assert coeffs[1] == n - 2 * q


def test_fit_reproduces_leading_coefficients():
    for n in range(1, 4):
        for q in range(n + 1):
            samples = [(p, cp1_product_trace(p, n, q)) for p in range(2, n + 4)]
            coeffs = fit_expansion(samples, degree=n)
            assert coeffs[0] == 1
            assert coeffs[1] == n - 2 * q
            assert coeffs == dimension_polynomial(n, q)


def test_fit_is_sample_independent():
    n, q = 2, 1
    pool = [(p, cp1_product_trace(p, n, q)) for p in range(2, 9)]
    results = {tuple(fit_expansion(list(chosen), degree=n))
               for chosen in itertools.combinations(pool, n + 1)}
    assert len(results) == 1


def test_fit_edge_cases():
    assert fit_expansion([(2, 7), (5, 7), (9, 7)]) == [Fraction(7)]
    with pytest.raises(ValueError):
        fit_expansion([(2, 3)], degree=1)
    with pytest.raises(ValueError):
        fit_expansion([], None)
    with pytest.raises(ValueError):
        fit_expansion([(2, 3), (3, 5), (4, 9)], degree=1)  # not degree-1 data


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rk", [1, 2])
def test_index_consistency(n, rk):
    for q in range(n + 1):
        res = rrh_coefficients(n, q, rk)
        assert res["pn"] == rk
        assert res["pn1"] == rk * (n - 2 * q)


def test_index_consistency_guard():
    """Out-of-range dimensions are bad input, not an index-theorem mismatch."""
    for n, q in ((0, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError, match="signature index"):
            rrh_coefficients(n, q)


def test_class_integrals_match_the_square_zero_ring():
    """The closed-form class integrals inside `rrh_coefficients` equal the
    ring expansion; the ring walks every subset of factors, so n <= 6."""
    for n in range(1, 7):
        for q in range(n + 1):
            for rk in (1, 2):
                res = rrh_coefficients(n, q, rk)
                sign = (-1) ** q
                assert rrh_class_integrals(n, q, rk) == (sign * res["pn"], sign * res["pn1"])


def test_index_consistency_is_fast_in_high_dimension():
    start = time.process_time()
    res = rrh_coefficients(40, 17, 2)
    assert time.process_time() - start < 1
    dims = dimension_polynomial(40, 17, 2)
    assert (res["pn"], res["pn1"]) == (dims[0], dims[1]) == (2, 2 * (40 - 2 * 17))


def test_numeric_kernel_witness():
    for p in (3, 10, 30):
        rep = cp1_sections_kernel(p)
        assert len(rep["samples"]) == 20
        assert rep["max_deviation"] < 1e-9
    rep = cp1_sections_kernel(3, count=2)
    assert [row["z"] for row in rep["samples"]] == [[0.0, 0.0], [1 / 7, 3 / 13]]
    for row in rep["samples"]:
        assert abs(row["value"] - 4) < 1e-9
    assert cp1_sections_kernel(0)["max_deviation"] == 0.0
    with pytest.raises(ValueError):
        cp1_sections_kernel(61)
