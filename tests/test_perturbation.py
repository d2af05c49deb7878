"""Engine tests: every intermediate kernel display is rebuilt independently
from jet components and oscillator primitives and compared exactly against
the engine's own chains, ending with the closed-form cross-check."""

from itertools import combinations

import pytest

from bergman.closed_form import b1_formula
from bergman.exterior import ExteriorAlgebra, ExteriorEndo
from bergman.geometry import jet_from_potential, random_potential
from bergman.jet_checks import validate_jet
from bergman.perturbation import (
    b1_engine,
    build_O1,
    build_O2,
    compute_F2_terms,
    engine_context,
)
from bergman.scalars import rat

from display_helpers import (
    adjoint_first_zero_display,
    adjoint_second_zero_display,
    bare_second_order_display,
    check_all_displays,
    double_resolved_gradient_display,
    first_order_kernel_display,
    iterated_resolvent_display,
    kernel_sandwich_display,
    resolved_first_zero_display,
    resolved_second_zero_display,
    second_order_term_display,
    torsion_form_display,
)
from oracles import (
    apply_L20,
    evaluate_first_zero,
    pair,
    serre_dual_potentials,
    serre_word_map,
)

DISPLAY_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def display_jets(jet_cache):
    jets = [jet_cache("flat", 2, 1), jet_cache("fs", 2, 1)]
    jets += [jet_cache("random", 2, 1, s) for s in DISPLAY_SEEDS]
    return jets


def test_first_order_kernel_display(display_jets):
    for jet in display_jets:
        ctx = engine_context(jet)
        got = build_O1(jet, ctx)(ctx.kernel_projector())
        assert got == first_order_kernel_display(jet, ctx), jet.jet_id


def test_resolved_chain_boundary_values(display_jets):
    """The once-resolved chain against either base-point argument, and its
    adjoint, reproduce the four displayed kernels."""
    for jet in display_jets:
        ctx = engine_context(jet)
        resolved = (build_O1(jet, ctx)(ctx.kernel_projector())
                    .project_Nperp().resolvent_L20())
        assert evaluate_first_zero(resolved) == \
            resolved_first_zero_display(jet, ctx), jet.jet_id
        assert resolved.restrict_second_zero() == \
            resolved_second_zero_display(jet, ctx), jet.jet_id
        adj = resolved.adjoint()
        assert adj.restrict_second_zero() == \
            adjoint_second_zero_display(jet, ctx), jet.jet_id
        assert evaluate_first_zero(adj) == \
            adjoint_first_zero_display(jet, ctx), jet.jet_id


def test_expansion_term_displays(display_jets):
    """Origin values of the expansion terms block by block."""
    for jet in display_jets:
        ctx = engine_context(jet)
        terms = compute_F2_terms(jet)
        assert terms["iterated-resolvent"] == \
            iterated_resolvent_display(jet, ctx), jet.jet_id
        assert terms["kernel-sandwich"] == \
            kernel_sandwich_display(jet, ctx), jet.jet_id
        assert terms["double-resolved-gradient"] == \
            double_resolved_gradient_display(jet, ctx), jet.jet_id
        assert -terms["resolved-second-order"] == \
            second_order_term_display(jet, ctx), jet.jet_id


def test_consolidated_display_checker(display_jets):
    for jet in display_jets:
        assert check_all_displays(jet) == [], jet.jet_id


def test_bare_second_order_and_torsion_displays(display_jets):
    from bergman.perturbation import build_O2_prime, build_psi_endo
    for jet in display_jets:
        ctx = engine_context(jet)
        o2p = build_O2_prime(jet, ctx)
        got = -(o2p(ctx.vacuum()).project_N0perp().resolvent_L0().evaluate_origin())
        assert got == bare_second_order_display(jet, ctx), jet.jet_id
        psi = build_psi_endo(jet, ctx.alg)
        got = (ctx.kernel_projector().apply_endo(psi)
               .project_Nperp().resolvent_L20().evaluate_origin())
        assert got == torsion_form_display(jet, ctx), jet.jet_id


def test_torsion_form_compression_blocks(display_jets):
    """The Clifford action of the torsion 4-form against the sector projector
    collapses to three blocks: a scalar trace, single and double transvections."""
    from bergman.perturbation import build_psi_endo
    from bergman.scalars import ExactScalar
    for jet in display_jets:
        n, q = jet.n, jet.q
        ctx = engine_context(jet)
        proj = ctx.alg.project_det(q)
        got = build_psi_endo(jet, ctx.alg) @ proj

        scal = ExactScalar.zero()
        for i in range(n):
            for j in range(n):
                scal = scal + jet.dTas[i][n + i][j][n + j]
        acc = proj.scale(scal.scale("1/2"))
        for i in range(1, q + 1):
            for j in range(q + 1, n + 1):
                c = ExactScalar.zero()
                for k in range(n):
                    c = c + jet.dTas[n + i - 1][n + j - 1][k][n + k]
                if not c.is_zero():
                    acc = acc + (ctx.alg.wedge(j) @ ctx.alg.contract(i)
                                 @ proj).scale(c.scale(-2))
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                for k in range(q + 1, n + 1):
                    for l in range(q + 1, n + 1):
                        c = jet.dTas[n + i - 1][n + j - 1][n + k - 1][n + l - 1]
                        if not c.is_zero():
                            acc = acc + (ctx.alg.wedge(k) @ ctx.alg.wedge(l)
                                         @ ctx.alg.contract(i) @ ctx.alg.contract(j)
                                         @ proj).scale(c)
        assert got == acc, jet.jet_id


# ---------------------------------------------------------------------------
# operator-level properties and the flagship cross-check
# ---------------------------------------------------------------------------


def spanning_states(ctx):
    out = [ctx.kernel_projector(), ctx.vacuum().apply_b(0),
           ctx.vacuum().mul_xi(0).mul_xibar(ctx.n - 1)]
    endo = ctx.alg.wedge(ctx.n) @ ctx.alg.contract(1)
    if not endo.is_zero():
        out.append(ctx.vacuum().apply_endo(endo).mul_xi(0))
    out.append(ctx.vacuum().apply_b(ctx.n - 1).apply_endo(ctx.alg.wedge(1)))
    return out


def test_kernel_block_of_first_order_vanishes(display_jets, jet_cache):
    jets = display_jets + [jet_cache("random", 2, 2, 25), jet_cache("random", 1, 1, 22)]
    for jet in jets:
        ctx = engine_context(jet)
        o1 = build_O1(jet, ctx)
        for beta in ([0] * jet.n, [1] + [0] * (jet.n - 1), [1] * jet.n,
                     [2] + [0] * (jet.n - 1)):
            s = ctx.kernel_projector()
            for j, k in enumerate(beta):
                for _ in range(k):
                    s = s.mul_xi(j)
            assert o1(s).project_N().is_zero(), (jet.jet_id, beta)


def test_perturbation_operators_self_adjoint(display_jets):
    for jet in display_jets[:4]:
        ctx = engine_context(jet)
        o1 = build_O1(jet, ctx)
        o2 = build_O2(jet, ctx)
        states = spanning_states(ctx)
        for x in states:
            for y in states:
                assert pair(o1(x), y) == pair(x, o1(y)), jet.jet_id
                assert pair(o2(x), y) == pair(x, o2(y)), jet.jet_id
                assert pair(apply_L20(x), y) == pair(x, apply_L20(y))


def test_flat_jet_engine_vanishes(jet_cache):
    jet = jet_cache("flat", 2, 1)
    ctx = engine_context(jet)
    assert build_O1(jet, ctx)(ctx.kernel_projector()).is_zero()
    assert build_O2(jet, ctx)(ctx.kernel_projector()).is_zero()
    assert b1_engine(jet, check=False).endo.is_zero()


@pytest.mark.parametrize("n,q", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)])
def test_engine_reproduces_product_models(jet_cache, n, q):
    jet = jet_cache("fs", n, q)
    res = b1_engine(jet, check=False)
    assert res.endo == ExteriorAlgebra(n).project_det(q).scale(rat(n - 2 * q))
    assert res.route == "engine"


def test_flagship_crosscheck_batch(batch_jets):
    for jet in batch_jets:
        eng = b1_engine(jet, check=False)
        closed = b1_formula(jet, check=False)
        assert eng.endo == closed.endo, jet.jet_id
        assert eng.trace == closed.trace


def test_flagship_crosscheck_other_signatures(jet_cache):
    cases = [("random", 1, 0, 21, 1, None), ("random", 1, 1, 22, 1, None),
             ("random", 2, 0, 23, 1, None), ("random", 2, 2, 25, 1, None),
             ("fs", 2, 1, 0, 1, None),
             ("random", 2, 1, 11, 2, ("1/2", "-1/3")),
             ("flat", 1, 0, 0, 1, ("2",))]
    for kind, n, q, seed, rk, twist in cases:
        jet = jet_cache(kind, n, q, seed, rk_e=rk, twist=twist)
        assert b1_engine(jet, check=False).endo == b1_formula(jet, check=False).endo


def test_flagship_crosscheck_three_dimensional(jet_cache):
    """One torsion-rich three-dimensional jet exercises the largest sector."""
    jet = jet_cache("random", 3, 2, 9)
    assert b1_engine(jet, check=False).endo == b1_formula(jet, check=False).endo


def test_flagship_crosscheck_four_dimensional(jet_cache):
    """The smallest size with q >= 2 and n - q >= 2, which every block of the
    closed form needs; the engine's operators sum the most terms here."""
    jet = jet_cache("random", 4, 2, 5)
    eng = b1_engine(jet, check=False)
    assert eng.endo == b1_formula(jet, check=False).endo
    assert str(eng.trace) == "1/6 - 75/16*pi"


@pytest.mark.parametrize("n,q,seed,perm", [
    (2, 0, 9, (1, 0)), (2, 2, 9, (1, 0)), (3, 1, 0, (0, 2, 1)),
])
def test_coordinate_swap_conjugates_b1(jet_cache, n, q, seed, perm):
    """Swapping two coordinates of one signature block in the potential
    conjugates b_1 by the induced signed permutation of wedge words, on both
    routes.  Within a block the swap permutes the generators vb^j alike."""
    jet = jet_cache("random", n, q, seed)
    other = jet_cache("random", n, q, seed, swap=perm)
    alg = ExteriorAlgebra(n)
    entries = {}
    for word in alg.words:
        image = [perm[j - 1] + 1 for j in word]
        sign = (-1) ** sum(x > y for x, y in combinations(image, 2))
        entries[(alg.basis_index(tuple(sorted(image))), alg.basis_index(word))] = rat(sign)
    p = ExteriorEndo(alg, entries)  # an involution: p @ p is the identity
    for route in (b1_formula, b1_engine):
        b1 = route(jet, check=False).endo
        assert route(other, check=False).endo == p @ b1 @ p, route.__name__


@pytest.mark.parametrize("n,q,seed", [(2, 1, 5), (3, 1, 5), (3, 2, 5), (4, 2, 5)])
def test_serre_duality_maps_b1_to_the_dual_signature(jet_cache, n, q, seed):
    """The conjugate-linear Hodge star takes Lambda^{0,k} (x) L^p to
    Lambda^{0,n-k} (x) L^-p (x) K_X, so b_1 of -phi at signature n - q, twisted
    by K_X, is b_1 of phi conjugated and carried by the word map f with its
    signs: b_1^psi[f(I)][f(J)] = eps(I) eps(J) conj(b_1^phi[I][J]), on both
    routes.  This relates two signatures, so it reaches blocks that the
    coordinate swaps, which stay inside one, cannot."""
    jet = jet_cache("random", n, q, seed)
    psi, twist = serre_dual_potentials(random_potential(n, q, seed), q)
    dual = jet_from_potential(psi, twist, n=n, q=n - q)
    assert validate_jet(dual).ok
    image = serre_word_map(n, q)
    alg = ExteriorAlgebra(n)
    for route in (b1_formula, b1_engine):
        b1 = route(jet, check=False).endo
        assert not b1.is_zero()
        want = {}
        for (r, c), v in b1.entries.items():
            (fr, er), (fc, ec) = image[alg.words[r]], image[alg.words[c]]
            want[(alg.basis_index(fr), alg.basis_index(fc))] = v.conjugate() * rat(er * ec)
        assert route(dual, check=False).endo == ExteriorEndo(alg, want), route.__name__


def test_engine_output_self_adjoint(batch_jets):
    for jet in batch_jets[:6]:
        res = b1_engine(jet, check=False)
        assert res.endo.adjoint() == res.endo


def test_expansion_term_adjoint_pairings(display_jets):
    """The transposed expansion terms are true operator adjoints.

    Their kernels cannot be materialized directly (the complement projector
    carries a distributional part), but the composite chains do act on
    states, so the adjoint relation is certified through the Gram pairing:
    <T1 x, y> = <x, T3 y> and <T2 x, y> = <x, T4 y> on spanning states.
    """
    for jet in display_jets[:4]:
        ctx = engine_context(jet)
        o1 = build_O1(jet, ctx)
        o2 = build_O2(jet, ctx)

        def t1(x):
            s = o1(x.project_N()).project_Nperp().resolvent_L20()
            return o1(s).project_Nperp().resolvent_L20()

        def t3(y):
            s = o1(y.project_Nperp().resolvent_L20()).project_Nperp().resolvent_L20()
            return o1(s).project_N()

        def t2(x):
            return o2(x.project_N()).project_Nperp().resolvent_L20()

        def t4(y):
            return o2(y.project_Nperp().resolvent_L20()).project_N()

        states = spanning_states(ctx)
        for x in states:
            for y in states:
                assert pair(t1(x), y) == pair(x, t3(y)), jet.jet_id
                assert pair(t2(x), y) == pair(x, t4(y)), jet.jet_id


def test_term_breakdown_shape(jet_cache):
    jet = jet_cache("random", 2, 1, 3)
    terms = compute_F2_terms(jet)
    assert set(terms) == {
        "double-resolved-gradient", "resolved-second-order",
        "double-resolved-gradient-adjoint", "resolved-second-order-adjoint",
        "kernel-sandwich", "iterated-resolvent"}
    # the adjoint pairs really are matrix adjoints
    assert terms["double-resolved-gradient-adjoint"] == \
        terms["double-resolved-gradient"].adjoint()
    assert terms["resolved-second-order-adjoint"] == \
        terms["resolved-second-order"].adjoint()
