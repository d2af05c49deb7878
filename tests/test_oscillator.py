import random

import pytest
from hypothesis import given, strategies as st

from bergman.errors import DegreeCapError, KernelComponentError
from bergman.oscillator import OscillatorContext, TwoPointState, _mode_moment, sum_states
from bergman.scalars import ExactScalar, rat

from oracles import (
    apply_L0_directly,
    apply_L20,
    differentiate_xi,
    differentiate_xibar,
    mul_primed,
    pair,
)


@pytest.fixture(scope="module")
def ctx():
    return OscillatorContext(2, 1)


def random_state(ctx, rng, ops=4):
    s = ctx.vacuum()
    endo = ctx.alg.identity()
    if rng.random() < 0.5:
        endo = ctx.alg.wedge(rng.randint(1, ctx.n)) @ ctx.alg.contract(rng.randint(1, ctx.n))
        if endo.is_zero():
            endo = ctx.alg.identity()
    s = s.apply_endo(endo)
    for _ in range(ops):
        j = rng.randrange(ctx.n)
        s = rng.choice([
            lambda t: t.apply_b(j),
            lambda t: t.mul_xi(j),
            lambda t: t.mul_xibar(j),
            lambda t: mul_primed(t, j, rng.random() < 0.5),
        ])(s)
        if s.is_zero():
            return ctx.vacuum()
    return s


def test_vacuum_facts(ctx):
    vac = ctx.vacuum()
    assert vac.evaluate_origin() == ctx.alg.identity()
    assert vac.apply_bdag(0).is_zero()
    assert vac.apply_bdag(1).is_zero()
    got = vac.apply_b(0).to_poly().terms
    z = (0, 0)
    ident = ctx.alg.identity()
    assert got[(z, (1, 0), z, z)] == ident.scale(ExactScalar.pi(1, 2))
    assert got[(z, z, z, (1, 0))] == ident.scale(ExactScalar.pi(1, -2))
    assert len(got) == 2


def test_barred_multiplication_decomposition(ctx):
    s = ctx.vacuum().mul_xibar(0)
    z = (0, 0)
    assert s.terms[((1, 0), z, z, z)] == ctx.alg.identity().scale(ExactScalar.pi(-1, "1/2"))
    assert s.terms[(z, z, z, (1, 0))] == ctx.alg.identity()
    assert len(s.terms) == 2


def test_commutation_rule(ctx):
    """Annihilator against creator differs by -4 pi per mode on any state."""
    rng = random.Random(1)
    for _ in range(15):
        s = random_state(ctx, rng)
        for j in range(ctx.n):
            lhs = s.apply_bdag(j).apply_b(j) - s.apply_b(j).apply_bdag(j)
            assert lhs == s.scale(ExactScalar.pi(1, -4))


def test_scalar_commutators(ctx):
    rng = random.Random(2)
    for _ in range(10):
        s = random_state(ctx, rng)
        for j in range(ctx.n):
            # [xi_j, b_j] = 2
            assert s.apply_b(j).mul_xi(j) - s.mul_xi(j).apply_b(j) == s.scale(rat(2))
            # xibar commutes with b
            assert s.apply_b(j).mul_xibar(j) == s.mul_xibar(j).apply_b(j)


def test_derivatives_of_vacuum(ctx):
    vac = ctx.vacuum()
    got = differentiate_xi(vac, 0).to_poly().terms
    z = (0, 0)
    assert got[(z, (1, 0), z, z)] == ctx.alg.identity().scale(ExactScalar.pi(1, "-1/2"))
    assert got[(z, z, z, (1, 0))] == ctx.alg.identity().scale(ExactScalar.pi(1))
    # derivative operators recombine into the creator: 2 d/dxibar + pi xi = b+
    s = ctx.vacuum().mul_xi(0)
    lhs = differentiate_xibar(s, 0).scale(rat(2)) + s.mul_xi(0).scale(ExactScalar.pi(1))
    assert lhs == s.apply_bdag(0)


def test_eigenbasis_invariant_fuzz(ctx):
    """Every canonical term is an eigenvector: the independent differential
    oracle for the oscillator agrees with the termwise scaling."""
    rng = random.Random(3)
    for _ in range(60):
        s = random_state(ctx, rng, ops=5)
        assert s.apply_L0().to_poly() == apply_L0_directly(s.to_poly())


def test_round_trip_random_states(ctx):
    rng = random.Random(4)
    for _ in range(200):
        s = random_state(ctx, rng, ops=4)
        assert TwoPointState.from_poly(s.to_poly()) == s


@given(st.lists(st.tuples(st.integers(0, 7), st.booleans(),
                          st.sampled_from([-2, -1, 1, 3])), max_size=6),
       st.booleans())
def test_sum_states_equals_the_fold(ctx, draws, cancel):
    """One-pass sum of plus and minus states against the left fold of + and -.
    Few seeds, so summands often share terms and cancel in part; with
    `cancel` every summand comes back with the opposite sign, so the sum is
    zero.  No zero term may survive either way."""
    summands = [(minus, random_state(ctx, random.Random(seed)).scale(rat(k)))
                for seed, minus, k in draws]
    if cancel:
        summands += [(not minus, s) for minus, s in summands]
    fold = TwoPointState(ctx, {})
    for minus, s in summands:
        fold = fold - s if minus else fold + s
    got = sum_states(ctx, [s for minus, s in summands if not minus],
                     [s for minus, s in summands if minus])
    assert got == fold
    assert all(not v.is_zero() for v in got.terms.values())
    if cancel:
        assert got.is_zero()


def test_projection_partition(ctx):
    rng = random.Random(5)
    for _ in range(100):
        s = random_state(ctx, rng)
        assert s.project_N() + s.project_Nperp() == s
        assert s.project_N().project_Nperp().is_zero()
    pn = ctx.kernel_projector()
    assert pn.project_N() == pn
    assert pn.apply_b(0).project_N().is_zero()


def test_resolvent_eigen_relation(ctx):
    """Resolvent then operator is the identity on the orthogonal complement."""
    rng = random.Random(6)
    for _ in range(30):
        s = random_state(ctx, rng).project_Nperp()
        assert apply_L20(s.resolvent_L20()) == s
        t = random_state(ctx, rng).project_N0perp()
        if not t.is_zero():
            assert t.resolvent_L0().apply_L0() == t
    # and in the other order: resolving the operator's output projects away
    # exactly the kernel component
    for _ in range(30):
        s = random_state(ctx, rng)
        assert apply_L20(s).resolvent_L20() == s.project_Nperp()


def test_resolvent_kernel_errors(ctx):
    with pytest.raises(KernelComponentError):
        ctx.kernel_projector().resolvent_L20()
    with pytest.raises(KernelComponentError):
        ctx.vacuum().resolvent_L0()
    # a single-defect sector passes through the shifted resolvent
    E = ctx.alg.wedge(2) @ ctx.alg.contract(1) @ ctx.alg.project_det(1)
    out = ctx.kernel_projector().apply_endo(E).resolvent_L20()
    assert out == ctx.kernel_projector().apply_endo(E).scale(ExactScalar.pi(-1, "1/8"))


def test_resolved_constants(ctx):
    """The five pinned evaluation constants of the resolvent calculus."""
    ident = ctx.alg.identity()
    vac = ctx.vacuum()
    v = vac.apply_b(0).mul_xi(0).project_N0perp().resolvent_L0().evaluate_origin()
    assert v == ident.scale(ExactScalar.pi(-1, "-1/2"))
    v = vac.mul_xibar(0).mul_xi(0).project_N0perp().resolvent_L0().evaluate_origin()
    assert v == ident.scale(ExactScalar.pi(-2, "-1/4"))
    # cross-derivative pairs leave no origin value
    v = vac.apply_b(0).mul_xibar(1).project_N0perp().resolvent_L0().evaluate_origin()
    assert v.is_zero()

    E = ctx.alg.wedge(2) @ ctx.alg.contract(1) @ ctx.alg.project_det(1)
    start = ctx.kernel_projector().apply_endo(E)
    v = start.apply_b(0).mul_xi(0).resolvent_L20().evaluate_origin()
    assert v == E.scale(ExactScalar.pi(-1, "1/12"))
    v = start.mul_xibar(0).mul_xi(0).resolvent_L20().evaluate_origin()
    assert v == E.scale(ExactScalar.pi(-2, "1/24"))

    big = OscillatorContext(4, 2)
    E2 = (big.alg.wedge(3) @ big.alg.wedge(4) @ big.alg.contract(1)
          @ big.alg.contract(2) @ big.alg.project_det(2))
    start = big.kernel_projector().apply_endo(E2)
    v = start.mul_xibar(0).mul_xi(0).resolvent_L20().evaluate_origin()
    assert v == E2.scale(ExactScalar.pi(-2, "1/80"))


def test_sector_eigenvalues_follow_defects():
    """Resolvent denominators come from the word defect count, not a table."""
    ctx = OscillatorContext(3, 1)
    alg = ctx.alg
    cases = [
        (alg.project_det(1), None),                          # kernel: must error
        (alg.wedge(2) @ alg.contract(1) @ alg.project_det(1), 8),
        (alg.wedge(2) @ alg.wedge(3) @ alg.contract(1) @ alg.project_det(1), 12),
    ]
    for endo, denom in cases:
        state = ctx.kernel_projector().apply_endo(endo)
        if state.is_zero():
            continue
        if denom is None:
            with pytest.raises(KernelComponentError):
                state.resolvent_L20()
        else:
            got = state.resolvent_L20()
            assert got == state.scale(ExactScalar.pi(-1, f"1/{denom}"))


def test_gaussian_moment_primitive():
    assert _mode_moment(1, 1) == [(1, 1, rat(1)), (0, 0, ExactScalar.pi(-1))]
    assert _mode_moment(0, 0) == [(0, 0, rat(1))]
    assert _mode_moment(2, 1) == [(2, 1, rat(1)), (1, 0, ExactScalar.pi(-1, 2))]


def _polar_moment(a: int, b: int) -> ExactScalar:
    """Independent oracle: the centered Gaussian moment by polar coordinates.

    integral of w^a wbar^b exp(-pi |w|^2) over C vanishes unless a = b by
    angular symmetry, and for a = b the radial integral gives a! / pi^a.
    """
    if a != b:
        return ExactScalar.zero()
    fact = 1
    for i in range(2, a + 1):
        fact *= i
    return ExactScalar.pi(-a, fact)


def test_moment_formula_against_polar_oracle():
    for a in range(5):
        for b in range(5):
            constant = ExactScalar.zero()
            for (pa, pb, c) in _mode_moment(a, b):
                if pa == 0 and pb == 0:
                    constant = constant + c
            assert constant == _polar_moment(a, b), (a, b)


def test_compose_origin_against_polar_oracle():
    """Composition evaluated at the base point, recomputed by raw moments."""
    ctx = OscillatorContext(1, 0, degree_cap=16)
    rng = random.Random(12)
    for _ in range(12):
        A = random_state(ctx, rng, ops=3)
        B = random_state(ctx, rng, ops=3)
        got = A.compose(B).evaluate_origin()
        # A(0, w): poly terms with no unprimed variables; B(w, 0): none primed
        acc = ctx.alg.zero_endo()
        for (a1, b1, g1, d1), e1 in A.to_poly().terms.items():
            if any(a1) or any(b1):
                continue
            for (a2, b2, g2, d2), e2 in B.to_poly().terms.items():
                if any(g2) or any(d2):
                    continue
                m = _polar_moment(g1[0] + a2[0], d1[0] + b2[0])
                if not m.is_zero():
                    acc = acc + (e1 @ e2).scale(m)
        assert got == acc


def test_compose_projector_identities(ctx):
    vac = ctx.vacuum()
    assert vac.compose(vac) == vac
    pn = ctx.kernel_projector()
    assert pn.compose(pn) == pn
    b1vac = vac.apply_b(0)
    assert b1vac.compose(vac) == b1vac
    # absorbing from the right side
    assert vac.compose(b1vac.adjoint()) == b1vac.adjoint()


def test_compose_associativity_one_mode():
    # composition can transiently exceed the production degree bound
    ctx = OscillatorContext(1, 0, degree_cap=18)
    rng = random.Random(8)
    for _ in range(10):
        x = random_state(ctx, rng, ops=3)
        y = random_state(ctx, rng, ops=3)
        z = random_state(ctx, rng, ops=3)
        assert x.compose(y).compose(z) == x.compose(y.compose(z))


def test_adjoint_properties(ctx):
    rng = random.Random(9)
    vac = ctx.vacuum()
    assert vac.adjoint() == vac
    for _ in range(20):
        s = random_state(ctx, rng)
        t = random_state(ctx, rng)
        assert s.adjoint().adjoint() == s
        assert (s + t).adjoint() == s.adjoint() + t.adjoint()
        assert s.compose(t).adjoint() == t.adjoint().compose(s.adjoint())


def test_operators_self_adjoint_in_pairing(ctx):
    """The oscillator and its sector shift are symmetric for the kernel pairing."""
    rng = random.Random(10)
    for _ in range(12):
        x = random_state(ctx, rng)
        y = random_state(ctx, rng)
        assert pair(x.apply_L0(), y) == pair(x, y.apply_L0())
        assert pair(apply_L20(x), y) == pair(x, apply_L20(y))


def test_pair_agrees_with_state_path(ctx):
    """pair stays on the polynomial form; the state-form bridges go through
    from_poly and must give the same value."""
    rng = random.Random(13)
    for _ in range(20):
        x = random_state(ctx, rng)
        y = random_state(ctx, rng)
        assert pair(x, y) == x.adjoint().compose(y).evaluate_origin()


def test_poly_compose_degree_cap():
    ctx = OscillatorContext(1, 0, degree_cap=4)
    s = mul_primed(mul_primed(ctx.vacuum().mul_xi(0).mul_xi(0), 0), 0)
    p = s.to_poly()
    with pytest.raises(DegreeCapError):
        p.compose(p)
    with pytest.raises(DegreeCapError):
        s.compose(s)


def test_degree_cap_enforced():
    ctx = OscillatorContext(1, 0, degree_cap=3)
    s = ctx.vacuum()
    for _ in range(3):
        s = s.mul_xi(0)
    with pytest.raises(DegreeCapError):
        s.mul_xi(0)
