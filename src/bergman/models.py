"""Exact and numeric checks on products of projective lines.

On a product of n projective lines with the tensor line bundle that is dual
tautological on the first q factors and hyperplane on the rest, the kernel
trace is constant and every global quantity is a closed-form polynomial in
the tensor power p.  That gives three independently computable columns to
reconcile: harmonic-space dimensions (by factorwise section counts and
duality), characteristic-class integrals, and volume-weighted traces of the
expansion coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


def cp1_product_trace(p: int, n: int, q: int) -> int:
    """Kernel trace for tensor power p: (p-1)^q (p+1)^(n-q).

    Factors with negative curvature contribute the dual-space dimension
    p - 1, positive ones the section count p + 1; homogeneity makes the
    diagonal trace constant, and each factor has unit volume.
    """
    if p < 2:
        raise ValueError("need p >= 2 so the kernel is concentrated in one degree")
    if not 0 <= q <= n:
        raise ValueError("signature index out of range")
    return (p - 1) ** q * (p + 1) ** (n - q)


def dimension_polynomial(n: int, q: int, rk_e: int = 1) -> list[Fraction]:
    """Exact coefficients (descending in p) of rk_e (p-1)^q (p+1)^(n-q)."""
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(q + 1):
        for j in range(n - q + 1):
            deg = i + j
            coeffs[n - deg] += (Fraction(comb(q, i)) * comb(n - q, j)
                                * (-1) ** (q - i))
    return [c * rk_e for c in coeffs]


def fit_expansion(samples: list[tuple[int, int | Fraction]],
                  degree: int | None = None) -> list[Fraction]:
    """Exact polynomial interpolation of (p, trace) samples.

    Returns descending coefficients.  When `degree` is given, at least
    degree + 1 distinct samples are required and the result is trimmed to
    that length (the fit of a degree-d polynomial is independent of which
    d+1 samples are used).
    """
    pts = sorted(set((int(p), Fraction(t)) for p, t in samples))
    if degree is not None and len(pts) < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct samples")
    if len(pts) < 1:
        raise ValueError("no samples")
    # Newton divided differences, then expand to monomial coefficients
    xs = [Fraction(p) for p, _ in pts]
    coefs = [t for _, t in pts]
    m = len(pts)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * m  # ascending
    for i in reversed(range(m)):
        # poly <- poly * (x - xs[i]) + coefs[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - p * xs[i] for s, p in zip(shifted, poly)]
        poly[0] += coefs[i]
    desc = list(reversed(poly))
    while len(desc) > 1 and desc[0] == 0:
        desc.pop(0)
    if degree is not None:
        want = degree + 1
        if len(desc) > want:
            raise ValueError("samples do not lie on a polynomial of the stated degree")
        desc = [Fraction(0)] * (want - len(desc)) + desc
    return desc


def rrh_coefficients(n: int, q: int, rk_e: int = 1) -> dict[str, Fraction]:
    """Top two p-coefficients of the global dimension count, three ways.

    The dimension-polynomial route, the characteristic-class route and the
    volume-weighted expansion-coefficient route must agree exactly; a
    mismatch raises.  Returns the p^n and p^(n-1) coefficients of the
    dimension polynomial itself.

    The class integrals are taken in closed form.  Each factor class x_k
    squares to zero and x_1 ... x_n integrates to 1, so for linear classes
    c = sum c_k x_k and t = sum t_k x_k only the squarefree monomials
    survive: int c^n / n! = prod c_k and int t c^(n-1) / (n-1)! =
    sum_k t_k prod_{j != k} c_j.
    """
    if n < 1 or not 0 <= q <= n:
        raise ValueError("need n >= 1 factors and a signature index 0 <= q <= n")
    dims = dimension_polynomial(n, q, rk_e)
    pn, pn1 = dims[0], dims[1]

    sign = Fraction((-1) ** q)
    c1_l = [Fraction(-1 if k < q else 1) for k in range(n)]
    # t = rk_e c_1(TX) / 2, and c_1(TX) is 2 on every factor, so t_k = rk_e
    chern_pn = rk_e * prod(c1_l)
    chern_pn1 = rk_e * sum(prod(c1_l[:k] + c1_l[k + 1:]) for k in range(n))

    if sign * pn != chern_pn or sign * pn1 != chern_pn1:
        raise AssertionError(
            f"index-theorem mismatch: dims give ({sign * pn}, {sign * pn1}), "
            f"classes give ({chern_pn}, {chern_pn1})")

    # volume-weighted traces of the leading expansion coefficients
    trace_b0 = Fraction(rk_e)
    trace_b1 = Fraction(rk_e * (n - 2 * q))
    if pn != trace_b0 or pn1 != trace_b1:
        raise AssertionError(
            f"expansion-trace mismatch: dims give ({pn}, {pn1}), "
            f"coefficients give ({trace_b0}, {trace_b1})")
    return {"pn": pn, "pn1": pn1}


MAX_SECTIONS_POWER = 60


def cp1_sections_kernel(p: int, count: int = 20) -> dict[str, object]:
    """Float witness that the section kernel of the p-th power is constant.

    For each sample z the normalized section sum equals
    (p+1) sum_k C(p,k) |z|^(2k) / (1+|z|^2)^p  =  p + 1
    by the binomial theorem; the report records the float deviation.
    """
    if not 0 <= p <= MAX_SECTIONS_POWER:
        raise ValueError(f"tensor power out of the supported range 0..{MAX_SECTIONS_POWER}")
    rows = []
    max_dev = 0.0
    for j in range(count):
        z = complex(Fraction(j, 7), Fraction((3 * j) % 11, 13))
        r2 = abs(z) ** 2
        total = sum(comb(p, k) * r2 ** k for k in range(p + 1))
        value = (p + 1) * total / (1.0 + r2) ** p
        dev = abs(value - (p + 1))
        max_dev = max(max_dev, dev)
        rows.append({"z": [z.real, z.imag], "value": value, "deviation": dev})
    return {"p": p, "expected": p + 1, "max_deviation": max_dev, "samples": rows}
