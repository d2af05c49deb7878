"""Direct evaluation of the subleading kernel coefficient from a jet.

The coefficient is an endomorphism of the degree-q exterior sector tensored
with the auxiliary bundle.  Its pi-multiple is assembled from seven blocks:
a scalar block on the distinguished wedge word, a mixed double-transvection
block, two single wedge-contract blocks carrying the curvature 2-form
aggregate and the second derivative of the structure map, and two double
wedge-contract blocks carrying the torsion 4-form and quadratic structure-
derivative products.  All contractions are taken in the xi-adapted frame;
normalized-frame slots contribute a factor sqrt(2) each and always appear
in even totals, so every constant below is an exact rational.
"""

from __future__ import annotations

from .exterior import B1Result, ExteriorAlgebra
from .geometry import GeometryJet
from .jet_checks import lambda_scalars, require_valid, s_norm
from .scalars import ExactScalar, rat

_ZERO = ExactScalar.zero()


def _mat_sum_mixed(jet: GeometryJet):
    """sum_j RE[u_j][ubar_j] as an auxiliary matrix, normalized frame."""
    n, rk = jet.n, jet.rk_e
    out = [[_ZERO for _ in range(rk)] for _ in range(rk)]
    for j in range(n):
        m = jet.RE[j][n + j]
        for r in range(rk):
            for c in range(rk):
                out[r][c] = out[r][c] + m[r][c].scale(2)
    return out


def b1_formula(jet: GeometryJet, check: bool = True) -> B1Result:
    """The full mixed-signature coefficient formula, evaluated exactly."""
    if check:
        require_valid(jet)
    n, q, rk = jet.n, jet.q, jet.rk_e
    alg = ExteriorAlgebra(n, rk)
    lam = lambda_scalars(jet)
    proj = alg.project_det(q)
    nbj = jet.nablaBJ
    # the generators' matrices, built once per call; index 0 is unused
    wedge = [None, *(alg.wedge(j) for j in range(1, n + 1))]
    contract = [None, *(alg.contract(j) for j in range(1, n + 1))]

    # scalar block on the distinguished word
    block = proj.scale(
        _trace_form_sum(jet).scale("1/4")
        - lam.contracted_divergence.scale("1/16")
        - s_norm(nbj, n, first_barred=False).scale("1/144"))
    block = block + (alg.endo_from_aux_matrix(_mat_sum_mixed(jet)) @ proj).scale(rat("1/2"))

    # wedge-contract blocks come in adjoint pairs: one formula at slot offset
    # s = n (barred slots, operator left of the projector) and s = 0 (unbarred
    # slots, the adjoint operator right of the projector)

    # single wedge-contract blocks with the curvature aggregate
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            for s, x, y, op in ((n, n + j - 1, n + k - 1, wedge[k] @ contract[j] @ proj),
                                (0, k - 1, j - 1, proj @ wedge[j] @ contract[k])):
                d2j = _ZERO
                for i in range(n):
                    d2j = d2j + jet.nablaB2J[n - s + i][s + i][x][y]
                # -(i/3) * 4(slot factor)
                coeff = lam.p_form[x][y].scale(2) - d2j.scale(0, "4/3")
                block = block + op.scale(coeff.scale("-1/4"))
                block = block + (op @ alg.endo_from_aux_matrix(
                    _scale_mat(jet.RE[x][y], rat(2)))).scale(rat("-1/4"))

    # the mixed double transvection and the double wedge-contract blocks
    double = (
        (n, lambda i, j, k, l: wedge[k] @ wedge[l] @ contract[i] @ contract[j] @ proj),
        (0, lambda i, j, k, l: proj @ wedge[j] @ wedge[i] @ contract[l] @ contract[k]),
    )
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    mixed = _ZERO
                    for m in range(n):
                        a = nbj[m][j - 1][k - 1]
                        b = nbj[n + m][n + i - 1][n + l - 1]
                        if not a.is_zero() and not b.is_zero():
                            mixed = mixed + a * b
                    if not mixed.is_zero():
                        op = wedge[l] @ contract[i] @ proj @ wedge[j] @ contract[k]
                        block = block + op.scale(mixed.scale("1/9"))  # 8/72
                    for s, make_op in double:
                        si, sj, sk, sl = s + i - 1, s + j - 1, s + k - 1, s + l - 1
                        s15 = _ZERO
                        s10 = _ZERO
                        for m in range(n):
                            s15 = s15 + nbj[n - s + m][si][sl] * nbj[s + m][sj][sk]
                            s10 = s10 + nbj[s + m][si][sl] * nbj[n - s + m][sj][sk]
                        co = (jet.dTas[si][sj][sk][sl].scale("1/2")
                              - s15.scale("8/15") - s10.scale("4/5"))
                        if not co.is_zero():
                            block = block + make_op(i, j, k, l).scale(co.scale("1/8"))

    return B1Result(block.scale(ExactScalar.pi(-1)), "closed-form")


def _scale_mat(mat, c: ExactScalar):
    return [[v * c for v in row] for row in mat]


def _trace_form_sum(jet: GeometryJet) -> ExactScalar:
    acc = _ZERO
    for j in range(jet.n):
        acc = acc + jet.trRT10[j][jet.n + j]
    return acc.scale(2)


def b1_trace(jet: GeometryJet, check: bool = True) -> ExactScalar:
    """The degree-sector trace of the coefficient, from its closed scalar form."""
    if check:
        require_valid(jet)
    lam = lambda_scalars(jet)
    re_sum = _mat_sum_mixed(jet)
    tr_e = _ZERO
    for r in range(jet.rk_e):
        tr_e = tr_e + re_sum[r][r]
    pi_tr = (tr_e.scale("1/2")
             + (_trace_form_sum(jet).scale("1/4")
                - lam.contracted_divergence.scale("1/16")).scale(jet.rk_e))
    return pi_tr * ExactScalar.pi(-1)
