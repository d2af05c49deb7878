"""Independent reconstructions of the engine's intermediate kernel values.

Each checker rebuilds a displayed right-hand side directly from jet
components and bare oscillator/exterior primitives and compares it exactly
against the engine's own chain.  Used by both the granular perturbation
tests and the batch acceptance criterion.
"""

from __future__ import annotations

from bergman.jet_checks import frame_norm3, lambda_scalars, s_norm
from bergman.oscillator import TwoPointState
from bergman.perturbation import (
    build_O1,
    build_O1_prime,
    build_O2_prime,
    build_psi_endo,
    compute_F2_terms,
    engine_context,
)
from bergman.scalars import ExactScalar

from oracles import evaluate_first_zero, mul_primed


def scaled(state, coeff):
    return state.scale(coeff) if not coeff.is_zero() else TwoPointState(state.ctx, {})


def first_order_kernel_display(jet, ctx):
    n, q = jet.n, jet.q
    pn = ctx.kernel_projector()
    acc = TwoPointState(ctx, {})
    m2i3 = ExactScalar.rational(0, "-2/3")
    m4pi3 = ExactScalar.rational(0, "-4/3", 1)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                c = jet.nablaXJ[n + j][n + m][n + i]
                if not c.is_zero():
                    acc = acc + scaled(
                        mul_primed(pn, m, True).apply_b(j).apply_b(i), m2i3 * c)
        for m in range(n):
            for l in range(n):
                c = jet.nablaXJ[n + m][n + l][n + i]
                if not c.is_zero():
                    acc = acc + scaled(
                        mul_primed(mul_primed(pn, m, True), l, True).apply_b(i),
                        m4pi3 * c)
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            op = ctx.alg.wedge(k) @ ctx.alg.contract(j)
            for m in range(n):
                c = jet.nablaBJ[n + m][n + j - 1][n + k - 1]
                if not c.is_zero():
                    base = pn.apply_b(m) + mul_primed(pn, m, True).scale(ExactScalar.pi(1, 2))
                    acc = acc + scaled(base.apply_endo(op), c.scale(0, -4))
                c = jet.nablaBJ[m][n + j - 1][n + k - 1]
                if not c.is_zero():
                    acc = acc + scaled(pn.mul_xi(m).apply_endo(op),
                                       c * ExactScalar.rational(0, -8, 1))
    return acc


def resolved_first_zero_display(jet, ctx):
    n, q = jet.n, jet.q
    proj = ctx.alg.project_det(q)
    expected = {}
    for m in range(n):
        endo = ctx.alg.zero_endo()
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                c = jet.nablaBJ[n + m][n + j - 1][n + k - 1]
                if not c.is_zero():
                    endo = endo + (ctx.alg.wedge(k) @ ctx.alg.contract(j)
                                   @ proj).scale(c.scale(0, "-1/3"))
        if not endo.is_zero():
            key = ((0,) * n, tuple(1 if x == m else 0 for x in range(n)))
            expected[key] = endo
    return expected


def resolved_second_zero_display(jet, ctx):
    n, q = jet.n, jet.q
    pn = ctx.kernel_projector()
    acc = TwoPointState(ctx, {})
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            op = ctx.alg.wedge(k) @ ctx.alg.contract(j)
            for m in range(n):
                c = jet.nablaBJ[n + m][n + j - 1][n + k - 1]
                if not c.is_zero():
                    acc = acc + scaled(
                        pn.mul_xibar(m).restrict_second_zero().apply_endo(op),
                        c.scale(0, "-2/3"))
                c = jet.nablaBJ[m][n + j - 1][n + k - 1]
                if not c.is_zero():
                    acc = acc + scaled(pn.mul_xi(m).apply_endo(op), c.scale(0, -1))
    return acc


def adjoint_second_zero_display(jet, ctx):
    n, q = jet.n, jet.q
    vac = ctx.vacuum()
    acc = TwoPointState(ctx, {})
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            endo = ctx.alg.project_det(q) @ ctx.alg.wedge(j) @ ctx.alg.contract(k)
            for m in range(n):
                c = jet.nablaBJ[m][j - 1][k - 1]
                if not c.is_zero():
                    acc = acc + scaled(vac.mul_xi(m).apply_endo(endo),
                                       c.scale(0, "1/3"))
    return acc


def adjoint_first_zero_display(jet, ctx):
    n, q = jet.n, jet.q
    expected = {}
    for m in range(n):
        for barred, coeff_im in ((False, "2/3"), (True, "1")):
            endo = ctx.alg.zero_endo()
            for j in range(1, q + 1):
                for k in range(q + 1, n + 1):
                    src = jet.nablaBJ[m if not barred else n + m][j - 1][k - 1]
                    if not src.is_zero():
                        endo = endo + (ctx.alg.project_det(q) @ ctx.alg.wedge(j)
                                       @ ctx.alg.contract(k)).scale(src.scale(0, coeff_im))
            if not endo.is_zero():
                em = tuple(1 if x == m else 0 for x in range(n))
                key = (em, (0,) * n) if not barred else ((0,) * n, em)
                expected[key] = expected.get(key, ctx.alg.zero_endo()) + endo
    return {k: v for k, v in expected.items() if not v.is_zero()}


def iterated_resolvent_display(jet, ctx):
    norm = frame_norm3(jet.nablaBJ, jet.n)
    s_bu = s_norm(jet.SB, jet.n, first_barred=True)
    return ctx.alg.project_det(jet.q).scale(
        (norm + s_bu.scale(10)).scale("1/72") * ExactScalar.pi(-1))


def kernel_sandwich_display(jet, ctx):
    n, q = jet.n, jet.q
    proj = ctx.alg.project_det(q)
    acc = ctx.alg.zero_endo()
    ninth = ExactScalar.pi(-1, "1/9")
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    c = ExactScalar.zero()
                    for m in range(n):
                        c = c + (jet.nablaBJ[n + m][n + i - 1][n + l - 1]
                                 * jet.nablaBJ[m][j - 1][k - 1])
                    if c.is_zero():
                        continue
                    op = (ctx.alg.wedge(l) @ ctx.alg.contract(i) @ proj
                          @ ctx.alg.wedge(j) @ ctx.alg.contract(k))
                    acc = acc + op.scale(c * ninth)
    return acc


def double_resolved_gradient_display(jet, ctx):
    n, q = jet.n, jet.q
    proj = ctx.alg.project_det(q)
    norm = frame_norm3(jet.nablaBJ, n)
    s_bu = s_norm(jet.SB, n, first_barred=True)
    acc = proj.scale((norm + s_bu.scale(4)).scale("-1/24") * ExactScalar.pi(-1))
    c15 = ExactScalar.pi(-1, "-1/15")
    c10 = ExactScalar.pi(-1, "-1/10")
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    op = (ctx.alg.wedge(k) @ ctx.alg.wedge(l)
                          @ ctx.alg.contract(i) @ ctx.alg.contract(j) @ proj)
                    c1 = ExactScalar.zero()
                    c2 = ExactScalar.zero()
                    for m in range(n):
                        c1 = c1 + (jet.nablaBJ[m][n + i - 1][n + l - 1]
                                   * jet.nablaBJ[n + m][n + j - 1][n + k - 1])
                        c2 = c2 + (jet.nablaBJ[n + m][n + i - 1][n + l - 1]
                                   * jet.nablaBJ[m][n + j - 1][n + k - 1])
                    acc = acc + op.scale(c1 * c15) + op.scale(c2 * c10)
    return acc


def bare_second_order_display(jet, ctx):
    n = jet.n
    re_sum = [[ExactScalar.zero()] * jet.rk_e for _ in range(jet.rk_e)]
    for i in range(n):
        m = jet.RE[i][n + i]
        for r in range(jet.rk_e):
            for c in range(jet.rk_e):
                re_sum[r][c] = re_sum[r][c] + m[r][c]
    curv = ExactScalar.zero()
    for i in range(n):
        for j in range(n):
            curv = curv + jet.RTX[i][n + j][j][n + i]
    half_pi = ExactScalar.pi(-1, "1/2")
    return (ctx.alg.endo_from_aux_matrix(re_sum)
            + ctx.alg.scalar_endo(curv)).scale(half_pi)


def torsion_form_display(jet, ctx):
    n, q = jet.n, jet.q
    proj = ctx.alg.project_det(q)
    acc = ctx.alg.zero_endo()
    c16 = ExactScalar.pi(-1, "1/16")
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    c = jet.dTas[n + i - 1][n + j - 1][n + k - 1][n + l - 1]
                    if c.is_zero():
                        continue
                    op = (ctx.alg.wedge(k) @ ctx.alg.wedge(l)
                          @ ctx.alg.contract(i) @ ctx.alg.contract(j) @ proj)
                    acc = acc + op.scale(c * c16)
    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            c = ExactScalar.zero()
            for i in range(n):
                c = c + jet.dTas[i][n + i][n + j - 1][n + k - 1]
            if c.is_zero():
                continue
            op = ctx.alg.wedge(k) @ ctx.alg.contract(j) @ proj
            acc = acc + op.scale(c * ExactScalar.pi(-1, "-1/4"))
    return acc


def second_order_term_display(jet, ctx):
    n, q = jet.n, jet.q
    lam = lambda_scalars(jet)
    proj = ctx.alg.project_det(q)
    inv_pi = ExactScalar.pi(-1)

    re_sum = [[ExactScalar.zero()] * jet.rk_e for _ in range(jet.rk_e)]
    tr_sum = ExactScalar.zero()
    for i in range(n):
        m = jet.RE[i][n + i]
        for r in range(jet.rk_e):
            for c in range(jet.rk_e):
                re_sum[r][c] = re_sum[r][c] + m[r][c].scale("1/2")
        tr_sum = tr_sum + jet.trRT10[i][n + i].scale("1/4")
    scal = (tr_sum
            - lam.contracted_divergence.scale("1/32")
            + frame_norm3(jet.nablaBJ, n).scale("3/64")
            + s_norm(jet.SB, n, first_barred=True).scale("1/4"))
    acc = (proj.scale(scal) + ctx.alg.endo_from_aux_matrix(re_sum) @ proj) \
        .scale(inv_pi)

    for j in range(1, q + 1):
        for k in range(q + 1, n + 1):
            op = ctx.alg.wedge(k) @ ctx.alg.contract(j) @ proj
            c = lam.p_form[n + j - 1][n + k - 1]
            d2 = ExactScalar.zero()
            for i in range(n):
                d2 = d2 + jet.nablaB2J[i][n + i][n + j - 1][n + k - 1]
            c = c - d2.scale(0, "2/3")
            acc = acc + op.scale(c * ExactScalar.pi(-1, "-1/2"))
            m = jet.RE[n + j - 1][n + k - 1]
            acc = acc + (op @ ctx.alg.endo_from_aux_matrix(
                [[x * ExactScalar.pi(-1, "-1/2") for x in row] for row in m]))

    c16 = ExactScalar.pi(-1, "1/16")
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(q + 1, n + 1):
                for l in range(q + 1, n + 1):
                    c = jet.dTas[n + i - 1][n + j - 1][n + k - 1][n + l - 1]
                    if c.is_zero():
                        continue
                    op = (ctx.alg.wedge(k) @ ctx.alg.wedge(l)
                          @ ctx.alg.contract(i) @ ctx.alg.contract(j) @ proj)
                    acc = acc + op.scale(c * c16)
    return acc


def check_all_displays(jet) -> list[str]:
    """Run every display comparison on one jet; returns failing display names."""
    ctx = engine_context(jet)
    o1 = build_O1(jet, ctx)
    pn = ctx.kernel_projector()
    failures = []

    got = o1(pn)
    if got != first_order_kernel_display(jet, ctx):
        failures.append("first-order-kernel")

    resolved = got.project_Nperp().resolvent_L20()
    if evaluate_first_zero(resolved) != resolved_first_zero_display(jet, ctx):
        failures.append("resolved-first-zero")
    if resolved.restrict_second_zero() != resolved_second_zero_display(jet, ctx):
        failures.append("resolved-second-zero")
    adj = resolved.adjoint()
    if adj.restrict_second_zero() != adjoint_second_zero_display(jet, ctx):
        failures.append("adjoint-second-zero")
    if evaluate_first_zero(adj) != adjoint_first_zero_display(jet, ctx):
        failures.append("adjoint-first-zero")

    o1p = build_O1_prime(jet, ctx)
    if not o1p(resolved).project_Nperp().resolvent_L20().evaluate_origin().is_zero():
        failures.append("scalar-composite-vanishes")

    terms = compute_F2_terms(jet)
    if terms["iterated-resolvent"] != iterated_resolvent_display(jet, ctx):
        failures.append("iterated-resolvent")
    if terms["kernel-sandwich"] != kernel_sandwich_display(jet, ctx):
        failures.append("kernel-sandwich")
    if terms["double-resolved-gradient"] != double_resolved_gradient_display(jet, ctx):
        failures.append("double-resolved-gradient")
    if -terms["resolved-second-order"] != second_order_term_display(jet, ctx):
        failures.append("second-order-term")

    o2p = build_O2_prime(jet, ctx)
    got = -(o2p(ctx.vacuum()).project_N0perp().resolvent_L0().evaluate_origin())
    if got != bare_second_order_display(jet, ctx):
        failures.append("bare-second-order")

    psi = build_psi_endo(jet, ctx.alg)
    got = (pn.apply_endo(psi).project_Nperp().resolvent_L20().evaluate_origin())
    if got != torsion_form_display(jet, ctx):
        failures.append("torsion-form-resolvent")
    return failures
