"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts.  Every equality below is exact (structural equality of pi-Laurent
Gaussian-rational values); the only tolerances are the stated float bound of
the numeric witness and the stated wall-clock budgets.
"""

import itertools
import random
import time

import pytest

from bergman.cli import pinned_oracles
from bergman.closed_form import b1_formula, b1_trace
from bergman.exterior import ExteriorAlgebra
from bergman.jet_checks import identity_suite, validate_jet
from bergman.models import cp1_product_trace, cp1_sections_kernel, fit_expansion, rrh_coefficients
from bergman.oscillator import OscillatorContext, TwoPointState
from bergman.perturbation import b1_engine, build_O1, build_O2, engine_context
from bergman.scalars import ExactScalar, rat

from display_helpers import check_all_displays
from oracles import (
    anticommutator,
    apply_L0_directly,
    apply_L20,
    differentiate_xi,
    mul_primed,
    pair,
)


def announce(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def display_batch(jet_cache, batch_jets):
    return [jet_cache("flat", 2, 1), jet_cache("fs", 2, 1)] + batch_jets


def test_criterion_1_oracle_suite():
    """Pinned exact constants of the Clifford and resolvent calculus, < 1 s."""
    start = time.time()
    for name, ok in pinned_oracles():
        assert ok, name
    elapsed = time.time() - start
    assert elapsed < 1.0, f"oracle suite took {elapsed:.2f}s"
    announce("criterion-1 oracle suite", f"{elapsed:.2f}s")


def test_criterion_1_operator_identity(jet_cache):
    """The kernel-to-kernel block of the first-order operator vanishes."""
    for seed in (7, 13):
        jet = jet_cache("random", 2, 1, seed)
        ctx = engine_context(jet)
        o1 = build_O1(jet, ctx)
        for beta in itertools.product(range(3), repeat=2):
            if sum(beta) > 3:
                continue
            s = ctx.kernel_projector()
            for j, k in enumerate(beta):
                for _ in range(k):
                    s = s.mul_xi(j)
            assert o1(s).project_N().is_zero(), (seed, beta)
    announce("criterion-1 operator identity")


def test_criterion_2_intermediate_displays(display_batch):
    """Named engine sub-results equal the displayed right sides, < 5 min."""
    start = time.time()
    assert len([j for j in display_batch if not j.is_torsion_free()]) >= 20
    for jet in display_batch:
        failures = check_all_displays(jet)
        assert failures == [], (jet.jet_id, failures)
    elapsed = time.time() - start
    assert elapsed < 300, f"display suite took {elapsed:.1f}s"
    announce("criterion-2 intermediate displays",
             f"{len(display_batch)} jets, {elapsed:.1f}s")


def test_criterion_3_flagship_crosscheck(display_batch, jet_cache):
    """Both routes agree bitwise on the batch and on all small pipelines, < 10 min."""
    start = time.time()
    jets = list(display_batch)
    for n in (1, 2):
        for q in range(n + 1):
            jets.append(jet_cache("fs", n, q))
            jets.append(jet_cache("random", n, q, 40 + 10 * n + q))
    jets.append(jet_cache("random", 2, 1, 11, rk_e=2, twist=("1/2", "-1/3")))
    # the double wedge-contract blocks need q >= 2 and n - q >= 2; (4,2) is
    # the smallest such signature
    jets += [jet_cache("random", 4, 2, seed) for seed in (5, 6, 7)]
    jets.append(jet_cache("random", 4, 2, 5, rk_e=2, twist=("1/2", "-1/3", "1/4", "-1/5")))
    count = 0
    for jet in jets:
        eng = b1_engine(jet, check=False)
        closed = b1_formula(jet, check=False)
        assert eng.endo == closed.endo, jet.jet_id
        count += 1
    elapsed = time.time() - start
    assert elapsed < 600, f"cross-check took {elapsed:.1f}s"
    announce("criterion-3 flagship cross-check", f"{count} jets, {elapsed:.1f}s")


def test_criterion_4_product_models(jet_cache):
    """Product-model coefficients equal (n - 2q) times the sector projector."""
    for n in (1, 2, 3):
        for q in range(n + 1):
            jet = jet_cache("fs", n, q)
            res = b1_formula(jet, check=False)
            assert res.endo == ExteriorAlgebra(n).project_det(q).scale(rat(n - 2 * q))
    jet = jet_cache("fs", 1, 0)
    assert jet.rX == ExactScalar.pi(1, 8)
    assert b1_formula(jet, check=False).trace == rat(1)
    announce("criterion-4 product models")


def test_criterion_5_expansion_fit(jet_cache):
    """Interpolated kernel traces reproduce the leading coefficient pair."""
    for n in (1, 2, 3):
        for q in range(n + 1):
            samples = [(p, cp1_product_trace(p, n, q)) for p in range(2, n + 4)]
            coeffs = fit_expansion(samples, degree=n)
            assert coeffs[0] == 1
            assert coeffs[1] == n - 2 * q
            jet = jet_cache("fs", n, q)
            assert b1_trace(jet, check=False) == rat(n - 2 * q)
    announce("criterion-5 expansion fit")


def test_criterion_6_index_consistency():
    for n in (1, 2, 3):
        for q in range(n + 1):
            for rk in (1, 2):
                res = rrh_coefficients(n, q, rk)
                assert res["pn"] == rk and res["pn1"] == rk * (n - 2 * q)
    announce("criterion-6 index-theorem consistency")


def test_criterion_7_identity_suite(display_batch, jet_cache):
    jets = list(display_batch)
    jets += [jet_cache("fs", n, q) for n in (1, 2, 3) for q in range(n + 1)]
    jets += [jet_cache("random", n, q, 40 + 10 * n + q)
             for n in (1, 2) for q in range(n + 1)]
    for jet in jets:
        assert validate_jet(jet).ok, jet.jet_id
        rep = identity_suite(jet)
        assert rep.ok, (jet.jet_id, rep.failures())
    announce("criterion-7 identity suite", f"{len(jets)} jets")


def test_criterion_8_property_suites(jet_cache, batch_jets):
    # Clifford relations, exhaustive for n <= 3
    for n in (1, 2, 3):
        alg = ExteriorAlgebra(n)
        i_ = ExactScalar.i()
        frame = []
        for j in range(n):
            frame.append({j: rat("1/2"), n + j: rat("1/2")})
            frame.append({j: i_.scale("1/2"), n + j: i_.scale("-1/2")})
        for i, ci in enumerate(frame):
            for j, cj in enumerate(frame):
                anti = anticommutator(alg.clifford_vector(ci), alg.clifford_vector(cj))
                assert anti == alg.scalar_endo(rat(-1 if i == j else 0))

    # eigenbasis invariant under 10^4 fuzzed operations
    rng = random.Random(2024)
    ctx = OscillatorContext(2, 1)
    ops_done = 0
    state = ctx.kernel_projector()
    while ops_done < 10_000:
        j = rng.randrange(2)
        state = rng.choice([
            lambda s: s.apply_b(j),
            lambda s: s.apply_bdag(j),
            lambda s: s.mul_xi(j),
            lambda s: s.mul_xibar(j),
            lambda s: mul_primed(s, j, rng.random() < 0.5),
            lambda s: differentiate_xi(s, j),
        ])(state)
        ops_done += 1
        assert state.apply_L0().to_poly() == apply_L0_directly(state.to_poly())
        degree = max((sum(a) + sum(b) + sum(g) + sum(d)
                      for (a, b, g, d) in state.terms), default=0)
        if state.is_zero() or degree >= 5 or len(state.terms) > 24:
            state = ctx.kernel_projector()

    # self-adjointness of the perturbation operators and both output routes
    jet = jet_cache("random", 2, 1, 1)
    ctxj = engine_context(jet)
    o1, o2 = build_O1(jet, ctxj), build_O2(jet, ctxj)
    states = [ctxj.kernel_projector(), ctxj.vacuum().apply_b(0),
              ctxj.vacuum().mul_xi(1).apply_endo(ctxj.alg.wedge(2) @ ctxj.alg.contract(1))]
    for x in states:
        for y in states:
            assert pair(o1(x), y) == pair(x, o1(y))
            assert pair(o2(x), y) == pair(x, o2(y))
            assert pair(apply_L20(x), y) == pair(x, apply_L20(y))
    for jet in batch_jets[:4]:
        assert b1_formula(jet, check=False).endo.adjoint() == \
            b1_formula(jet, check=False).endo
        assert b1_engine(jet, check=False).endo.adjoint() == \
            b1_engine(jet, check=False).endo

    # canonical-form round trip
    rng = random.Random(77)
    for _ in range(200):
        s = ctx.vacuum()
        for _ in range(4):
            j = rng.randrange(2)
            s = rng.choice([
                lambda t: t.apply_b(j), lambda t: t.mul_xi(j),
                lambda t: t.mul_xibar(j),
                lambda t: mul_primed(t, j, rng.random() < 0.5)])(s)
        assert TwoPointState.from_poly(s.to_poly()) == s

    # composition associativity on one mode
    c1 = OscillatorContext(1, 0, degree_cap=18)
    rng = random.Random(5)
    for _ in range(8):
        def rand_state():
            s = c1.vacuum()
            for _ in range(3):
                s = rng.choice([
                    lambda t: t.apply_b(0), lambda t: t.mul_xi(0),
                    lambda t: t.mul_xibar(0),
                    lambda t: mul_primed(t, 0, rng.random() < 0.5)])(s)
            return s
        x, y, z = rand_state(), rand_state(), rand_state()
        assert x.compose(y).compose(z) == x.compose(y.compose(z))
    announce("criterion-8 property suites")


def test_criterion_9_numeric_witness():
    start = time.time()
    for p in (5, 17, 30):
        rep = cp1_sections_kernel(p)
        assert len(rep["samples"]) == 20
        assert rep["max_deviation"] < 1e-9, (p, rep["max_deviation"])
    elapsed = time.time() - start
    assert elapsed < 10
    announce("criterion-9 numeric witness", f"{elapsed:.2f}s")
