"""Differential tests of the engine's origin-only paths.

The engine reads each expansion term only at Z = Z' = 0, and computes no
more than that value needs: the origin value straight from the normal-ordered
terms, the kernel sandwich without forming the product, the terms read only
at the origin modulo primed terms, and multiplication by a polynomial in
one pass.  Each path is compared here with the full computation it replaces,
and the closed-form mode tables that normal-order products with the same
products one factor at a time.
"""

import random

import pytest

from bergman import oscillator
from bergman.errors import DegreeCapError
from bergman.oscillator import OscillatorContext, PolyGaussianForm, TwoPointState, sum_states
from bergman.perturbation import (
    _apply_poly,
    _gradient_polys,
    _var,
    b1_engine,
    build_O1,
    build_O2,
    engine_context,
)
from bergman.scalars import rat
from bergman.series import Series

from oracles import (
    apply_poly_by_monomials,
    mul_poly_by_factors,
    mul_primed,
    poly_evaluate_origin,
    to_poly_by_factors,
)

SIGNATURES = ((2, 1), (3, 2))


def _endos(ctx):
    alg = ctx.alg
    out = [alg.identity(), alg.project_det(ctx.q)]
    for j in range(1, ctx.n + 1):
        for k in range(1, ctx.n + 1):
            out.append(alg.wedge(j) @ alg.contract(k))
    return [e for e in out if not e.is_zero()]


def _random_scalar(rng):
    return rat(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-2, 2), rng.randint(-1, 1))


def random_terms(ctx, rng, size, top):
    """A state of random normal-ordered terms; about half have alpha = beta and
    no primed factor, the others arbitrary multi-indices up to `top`."""
    z = ctx.zero_multi
    endos = _endos(ctx)

    def multi():
        return tuple(rng.randint(0, top) for _ in range(ctx.n))

    terms = {}
    for _ in range(size):
        a = multi()
        key = (a, a, z, z) if rng.random() < 0.5 else (a, multi(), multi(), multi())
        endo = rng.choice(endos).scale(_random_scalar(rng))
        terms[key] = terms[key] + endo if key in terms else endo
    return TwoPointState(ctx, terms)


def primed_state(ctx, rng, ops=3):
    """A sum of short random chains of primitives, primed factors included."""
    acc = TwoPointState(ctx, {})
    for endo in rng.sample(_endos(ctx), 2):
        s = ctx.vacuum().apply_endo(endo)
        for _ in range(ops):
            j = rng.randrange(ctx.n)
            s = rng.choice([
                lambda t: t.apply_b(j),
                lambda t: t.mul_xi(j),
                lambda t: t.mul_xibar(j),
                lambda t: mul_primed(t, j, rng.random() < 0.5),
            ])(s)
        acc = acc + s.scale(_random_scalar(rng))
    return acc


@pytest.mark.parametrize("n,q", SIGNATURES)
def test_evaluate_origin_matches_polynomial_form(n, q):
    ctx = OscillatorContext(n, q, degree_cap=40)
    rng = random.Random(101 + n)
    nonzero = 0
    for _ in range(25):
        s = random_terms(ctx, rng, size=6, top=3)
        got = s.evaluate_origin()
        assert got == poly_evaluate_origin(s.to_poly())
        nonzero += not got.is_zero()
    assert nonzero >= 10


@pytest.mark.parametrize("n,q", SIGNATURES)
def test_compose_origin_matches_the_product(n, q):
    ctx = OscillatorContext(n, q, degree_cap=40)
    rng = random.Random(200 + n)
    nonzero = 0
    for _ in range(5):
        x = random_terms(ctx, rng, size=3, top=2).to_poly()
        y = random_terms(ctx, rng, size=3, top=2).to_poly()
        for left, right in ((x, y), (x, x.adjoint())):
            got = left.compose_origin(right)
            assert got == poly_evaluate_origin(left.compose(right))
            nonzero += not got.is_zero()
    assert nonzero >= 4


def test_kernel_sandwich_matches_the_product(jet_cache):
    """The engine's own sandwich input, at (2,1) and (3,2)."""
    for jet in (jet_cache("random", 2, 1, 5), jet_cache("random", 3, 2, 9)):
        ctx = engine_context(jet)
        o1 = build_O1(jet, ctx)
        rp = o1(ctx.kernel_projector()).project_Nperp().resolvent_L20().to_poly()
        got = rp.compose_origin(rp.adjoint())
        assert not got.is_zero()
        assert got == poly_evaluate_origin(rp.compose(rp.adjoint()))


@pytest.mark.parametrize("n,q,seed", [(2, 1, 5), (3, 2, 9)])
def test_operators_never_lower_primed_indices(jet_cache, n, q, seed):
    """restrict(O(x)) = O(restrict(x)) term for term, where O of a quotient
    state is computed modulo primed terms: what lets the engine compute the
    terms it reads only at the origin in the quotient."""
    jet = jet_cache("random", n, q, seed)
    ctx = engine_context(jet)
    rng = random.Random(303 + n)
    primed = dropped = 0
    for op in (build_O1(jet, ctx), build_O2(jet, ctx)):
        for _ in range(4):
            x = primed_state(ctx, rng)
            free = x.restrict_second_zero()
            primed += free != x
            full, modulo = op(x), op(free)
            assert full.ctx is ctx and modulo.ctx is ctx.quotient()
            assert modulo.terms == full.restrict_second_zero().terms
            dropped += len(full.terms) - len(modulo.terms)
    assert primed >= 4 and dropped > 0


@pytest.mark.parametrize("n,q", SIGNATURES)
def test_a_sum_with_a_quotient_summand_is_a_quotient_state(n, q):
    ctx = OscillatorContext(n, q)
    quotient = ctx.quotient()
    assert quotient is ctx.quotient() is quotient.quotient() and quotient.primed_free
    rng = random.Random(606)
    for _ in range(5):
        x, y = primed_state(ctx, rng), primed_state(ctx, rng)
        free = y.restrict_second_zero()
        for got, want in ((x + free, x + y), (free + x, y + x), (x - free, x - y),
                          (sum_states(ctx, [x], [free]), x - y)):
            assert got.ctx is ctx.quotient()
            assert got.terms == want.restrict_second_zero().terms
        assert (x + y).ctx is ctx


@pytest.mark.parametrize("n,q", SIGNATURES)
def test_the_quotient_has_no_polynomial_form(n, q):
    """The adjoint swaps the primed argument and the composition integrates it
    out: both are refused modulo primed terms, and so is the polynomial form
    that `from_poly` and `compose_origin` take."""
    ctx = OscillatorContext(n, q)
    x = primed_state(ctx, random.Random(707)) + ctx.vacuum().mul_xibar(1)
    free = x.restrict_second_zero()
    assert not free.is_zero() and free != x
    for refused in (free.to_poly, free.adjoint, lambda: free.compose(x),
                    lambda: x.compose(free),
                    lambda: PolyGaussianForm(ctx.quotient(), x.to_poly().terms)):
        with pytest.raises(ValueError, match="modulo primed terms"):
            refused()


@pytest.mark.parametrize("n,q", SIGNATURES)
def test_engine_degree_cap(jet_cache, monkeypatch, n, q):
    """The engine's terms reach degree 4 on seed-5 jets: cap 3 is refused."""
    jet = jet_cache("random", n, q, 5)
    monkeypatch.setattr(oscillator, "DEFAULT_DEGREE_CAP", 3)
    with pytest.raises(DegreeCapError, match="term degree 4 exceeds cap 3"):
        b1_engine(jet, check=False)
    monkeypatch.setattr(oscillator, "DEFAULT_DEGREE_CAP", 4)
    capped = b1_engine(jet, check=False)
    monkeypatch.undo()
    assert capped == b1_engine(jet, check=False)


def test_the_quotient_caps_the_kept_terms_only():
    """A primed term above the cap is refused in the full context, and dropped,
    not refused, in the quotient, where its images are never formed; an
    unprimed term above the cap is refused in both."""
    ctx = OscillatorContext(2, 1, degree_cap=1)
    z, e0 = ctx.zero_multi, ctx.unit(0)
    one = ctx.alg.identity()
    primed = TwoPointState(ctx, {(z, z, z, e0): one})
    with pytest.raises(DegreeCapError, match="term degree 2 exceeds cap 1"):
        primed.mul_xi(0)
    free = primed.restrict_second_zero()
    assert free.is_zero() and free.mul_xi(0).is_zero()
    with pytest.raises(DegreeCapError, match="term degree 2 exceeds cap 1"):
        TwoPointState(ctx.quotient(), {(z, z, z, (2, 0)): one, (e0, e0, z, z): one})
    assert TwoPointState(ctx.quotient(), {(z, z, z, (2, 0)): one}).is_zero()
    unprimed = TwoPointState(ctx, {(e0, z, z, z): one}).restrict_second_zero()
    with pytest.raises(DegreeCapError, match="term degree 2 exceeds cap 1"):
        unprimed.mul_xi(0)


def _random_poly(n, rng, degree):
    terms = {}
    for _ in range(4):
        e = [0] * (2 * n)
        for _ in range(rng.randint(1, degree)):
            e[rng.randrange(2 * n)] += 1
        terms[tuple(e)] = _random_scalar(rng)
    return Series(2 * n, 4, terms)


@pytest.mark.parametrize("n,q,seed", [(2, 1, 5), (3, 2, 9)])
def test_apply_poly_matches_the_monomial_chain(jet_cache, n, q, seed):
    jet = jet_cache("random", n, q, seed)
    ctx = engine_context(jet)
    rng = random.Random(404 + n)
    polys = _gradient_polys(jet) + [_var(n, 0) * _var(n, n), _random_poly(n, rng, 3)]
    for p in polys:
        for _ in range(3):
            x = primed_state(ctx, rng)
            assert _apply_poly(x, p) == apply_poly_by_monomials(x, p)


def test_apply_poly_degree_cap():
    s = mul_primed(OscillatorContext(2, 1, degree_cap=4).vacuum().mul_xi(0), 1)
    p = _var(2, 0) * _var(2, 3)  # xi_1 xibar_2
    got = _apply_poly(s, p)
    assert max(sum(map(sum, key)) for key in got.terms) == 4
    assert got == apply_poly_by_monomials(s, p)
    low = mul_primed(OscillatorContext(2, 1, degree_cap=3).vacuum().mul_xi(0), 1)
    with pytest.raises(DegreeCapError, match="term degree 4 exceeds cap 3"):
        _apply_poly(low, p)
    with pytest.raises(DegreeCapError):
        apply_poly_by_monomials(low, p)


def _spread(rng, total, slots):
    """`total` units spread at random over `slots` nonnegative ints."""
    out = [0] * slots
    for _ in range(total):
        out[rng.randrange(slots)] += 1
    return out


@pytest.mark.parametrize("n,q", [(1, 0), (2, 1), (3, 2)])
def test_mode_tables_match_the_one_factor_rules(n, q):
    """mul_poly and to_poly, one closed-form table per mode, against the same
    products one factor at a time: random terms with multi-indices up to 3 and
    monomials up to degree 4, in the full context and in the quotient."""
    ctx = OscillatorContext(n, q, degree_cap=40)
    rng = random.Random(505 + n)
    moved = 0
    for _ in range(6):
        x = random_terms(ctx, rng, size=4, top=3)
        assert x.to_poly() == to_poly_by_factors(x)
        poly = {}
        for _ in range(3):
            e = _spread(rng, rng.randint(0, 4), 2 * n)
            poly[tuple(e[:n]), tuple(e[n:])] = _random_scalar(rng)
        for s in (x, x.restrict_second_zero()):
            got = s.mul_poly(poly)
            assert got.ctx is s.ctx and got == mul_poly_by_factors(s, poly)
            moved += got != s
    assert moved >= 10


@pytest.mark.parametrize("quotient", [False, True])
def test_mul_poly_refuses_exactly_the_pairs_above_the_cap(quotient):
    """A (term, monomial) pair whose degrees add up to the cap passes, and one
    that adds up to more is refused with degree cap + 1 in the message,
    whatever the two degrees are on their own, as one factor at a time."""
    cap, n = 5, 2
    ctx = OscillatorContext(n, 1, degree_cap=cap)
    ctx = ctx.quotient() if quotient else ctx
    slots = 2 * n if quotient else 4 * n
    rng = random.Random(808)
    for term_degree in range(cap + 1):
        e = _spread(rng, term_degree, slots) + [0] * (4 * n - slots)
        key = tuple(tuple(e[i:i + n]) for i in range(0, 4 * n, n))
        s = TwoPointState(ctx, {key: ctx.alg.identity()})
        for total in (cap, cap + 1, cap + 2):
            m = _spread(rng, total - term_degree, 2 * n)
            poly = {(tuple(m[:n]), tuple(m[n:])): rat(1)}
            if total == cap:
                assert s.mul_poly(poly) == mul_poly_by_factors(s, poly)
                continue
            for product in (s.mul_poly, lambda p: mul_poly_by_factors(s, p)):
                with pytest.raises(DegreeCapError, match=f"term degree {cap + 1} exceeds cap {cap}"):
                    product(poly)
