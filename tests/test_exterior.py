import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bergman.exterior import ExteriorAlgebra
from bergman.scalars import ExactScalar, rat

from oracles import (
    action_two_form_bruteforce,
    anticommutator,
    clifford_of_form_walk,
    compress_two_form,
)


def column(endo, c):
    """The image of basis vector c: column c of the matrix, keyed by row."""
    return {r: v for (r, k), v in endo.entries.items() if k == c}


def random_scalar(rng):
    return ExactScalar.rational(rng.randint(-4, 4), rng.randint(-2, 2),
                                rng.randint(0, 1))


def random_two_form(rng, dim):
    """Antisymmetric component table over complex frame labels."""
    comp = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            c = random_scalar(rng)
            comp[(a, b)] = c
            comp[(b, a)] = -c
    return lambda a, b: comp.get((a, b), ExactScalar.zero())


def real_frame_vectors(alg):
    """The orthonormal real frame as complex-label coefficient dicts."""
    n = alg.n
    out = []
    for j in range(n):
        # (v_j + vb_j)/sqrt2 and i(v_j - vb_j)/sqrt2; the sqrt2 is carried by
        # the Clifford factor machinery, so coefficients are halves of 2.
        out.append({j: rat("1/2").scale(2), n + j: rat(1)})
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_relations_exhaustive(n):
    """c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij on the real frame."""
    alg = ExteriorAlgebra(n)
    i_ = ExactScalar.i()
    frame = []
    for j in range(n):
        frame.append({j: rat(1), n + j: rat(1)})           # (v + vb)/sqrt2 pattern
        frame.append({j: i_, n + j: -i_})                   # i(v - vb)/sqrt2 pattern
    # each entry stands for sqrt2 * e_k, so the anticommutator normalization
    # carries an extra factor of 2 handled by the factor bookkeeping
    for i, ci in enumerate(frame):
        for j, cj in enumerate(frame):
            fi = alg.clifford_vector({k: v * rat("1/2") for k, v in ci.items()})
            fj = alg.clifford_vector({k: v * rat("1/2") for k, v in cj.items()})
            anti = anticommutator(fi, fj)
            expected = alg.scalar_endo(rat(-1 if i == j else 0))
            assert anti == expected, (i, j)


def test_single_factor_action():
    alg = ExteriorAlgebra(2)
    vac = alg.basis_index(())
    # c(v_1) wedges the first generator with a pending sqrt(2)
    f = alg.clifford_factor(0)
    assert column(f.matrix, vac) == {alg.basis_index((1,)): rat(1)}
    assert f.half_powers == 1
    # c(vb_1) contracts; on the vacuum that is zero
    g = alg.clifford_factor(2)
    assert column(g.matrix, vac) == {}
    assert column(g.matrix @ f.matrix, vac) == {vac: rat(-1)}
    with pytest.raises(ValueError):
        f.as_endo()


@pytest.mark.parametrize("n,q", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_degree_operator_spectrum(n, q):
    alg = ExteriorAlgebra(n)
    omega = alg.omega_d(q)
    assert omega.adjoint() == omega
    for w in alg.words:
        idx = alg.basis_index(w)
        ev = omega.entries.get((idx, idx), ExactScalar.zero())
        missing = sum(1 for j in range(1, q + 1) if j not in w)
        extra = sum(1 for j in w if j > q)
        assert ev == ExactScalar.pi(1, -2 * (missing + extra))
    # kernel is exactly the distinguished word
    det = alg.det_word(q)
    assert omega.entries.get((alg.basis_index(det), alg.basis_index(det))) is None


def test_degree_operator_small_cases():
    alg = ExteriorAlgebra(1)
    omega = alg.omega_d(0)
    assert omega.entries.get((0, 0)) is None                       # empty word
    assert omega.entries[(1, 1)] == ExactScalar.pi(1, -2)           # the generator


@pytest.mark.parametrize("n,q,rk", [(2, 1, 1), (3, 2, 1), (2, 1, 2)])
def test_det_projector(n, q, rk):
    alg = ExteriorAlgebra(n, rk)
    proj = alg.project_det(q)
    assert proj @ proj == proj
    assert proj.trace() == rat(rk)
    det = alg.det_word(q)
    for w in alg.words:
        for e in range(rk):
            idx = alg.basis_index(w, e)
            val = column(proj, idx)
            if w == det:
                assert val == {idx: rat(1)}
            else:
                assert val == {}


def test_curvature_action_oracle():
    """The model curvature acts as minus twice the degree operator minus 2 n pi."""
    for n in (1, 2, 3):
        for q in range(n + 1):
            alg = ExteriorAlgebra(n)

            def comp(t, q=q, n=n):
                a, b = t
                if a < n and b == a + n:
                    return ExactScalar.pi(1, -2 if a < q else 2)
                if b < n and a == b + n:
                    return ExactScalar.pi(1, 2 if b < q else -2)
                return ExactScalar.zero()

            lhs = alg.clifford_of_form(2, comp)
            rhs = alg.omega_d(q).scale(rat(-2)) \
                - alg.scalar_endo(ExactScalar.pi(1, 2 * n))
            assert lhs == rhs, (n, q)


def test_zero_form_acts_as_zero():
    alg = ExteriorAlgebra(2)
    assert alg.clifford_of_form(2, lambda t: ExactScalar.zero()).is_zero()


def test_single_basis_form_gives_factor_product():
    """The contraction of one real basis 2-form is the bare factor product."""
    alg = ExteriorAlgebra(2)
    n = 2

    # components of e^1 wedge e^2 on the complex frame, where
    # e_1 = (v_1 + vb_1)/sqrt2 and e_2 = i (v_1 - vb_1)/sqrt2
    pair1 = {0: rat("1/2"), n + 0: rat("1/2")}                     # e_1 / sqrt2
    pair2 = {0: ExactScalar.i().scale("1/2"),
             n + 0: ExactScalar.i().scale("-1/2")}                 # e_2 / sqrt2

    def pairing(coeffs_a, coeffs_b):
        acc = ExactScalar.zero()
        for a, ca in coeffs_a.items():
            cb = coeffs_b.get(alg.partner(a))
            if cb is not None:
                acc = acc + ca * cb
        return acc

    def comp(t):
        a, b = t
        da = {a: rat(1)}
        db = {b: rat(1)}
        # each dual pairing carries one stray sqrt2; the product carries 2
        return (pairing(da, pair1) * pairing(db, pair2)
                - pairing(da, pair2) * pairing(db, pair1)).scale(2)

    product = (alg.clifford_vector(pair1) * alg.clifford_vector(pair2)) \
        .as_endo().scale(rat(2))
    assert alg.clifford_of_form(2, comp) == product


def test_two_form_action_matches_bruteforce():
    rng = random.Random(101)
    for n in (1, 2, 3):
        alg = ExteriorAlgebra(n)
        for _ in range(6):
            comp = random_two_form(rng, 2 * n)
            assert alg.action_two_form(comp) == action_two_form_bruteforce(alg, comp)


def test_quarter_action_is_half_of_full_contraction():
    rng = random.Random(55)
    alg = ExteriorAlgebra(2)
    comp = random_two_form(rng, 4)
    full = alg.clifford_of_form(2, lambda t: comp(*t))
    assert full == alg.action_two_form(comp).scale(rat(2))


@st.composite
def antisymmetric_forms(draw):
    """(n, rk_e, degree, comp) for a random totally antisymmetric form: values
    drawn on a few increasing label words, extended by the sign of the order."""
    n = draw(st.integers(1, 4))
    rk_e = draw(st.sampled_from([1, 2]))
    degree = draw(st.sampled_from([2, 4]))
    words = list(combinations(range(2 * n), degree))
    scalars = st.builds(ExactScalar.rational, st.integers(-3, 3), st.integers(-3, 3),
                        st.integers(-1, 1))
    values = draw(st.dictionaries(st.sampled_from(words), scalars, max_size=6)) if words else {}

    def comp(labels):
        if len(set(labels)) < len(labels):
            return ExactScalar.zero()
        v = values.get(tuple(sorted(labels)), ExactScalar.zero())
        inversions = sum(a > b for a, b in combinations(labels, 2))
        return -v if inversions % 2 else v

    return n, rk_e, degree, comp


@settings(max_examples=50, deadline=None)
@given(antisymmetric_forms())
def test_clifford_of_form_matches_the_ordered_word_walk(form):
    """The sum over increasing words equals the sum over every ordered word."""
    n, rk_e, degree, comp = form
    alg = ExteriorAlgebra(n, rk_e)
    assert alg.clifford_of_form(degree, comp) == clifford_of_form_walk(alg, degree, comp)


def test_compression_lemma():
    """The det-sector compression blocks equal the raw Clifford contraction."""
    rng = random.Random(7)
    for n, q in [(2, 1), (3, 1), (3, 2)]:
        alg = ExteriorAlgebra(n)
        proj = alg.project_det(q)
        for _ in range(50 // 3 + 1):
            comp_xi = random_two_form(rng, 2 * n)

            def comp_v(t, comp_xi=comp_xi, n=n, q=q):
                def to_xi(l):
                    if l < n:
                        return n + l if l < q else l
                    j = l - n
                    return j if j < q else n + j
                return comp_xi(to_xi(t[0]), to_xi(t[1])).scale(2)

            via_clifford = alg.clifford_of_form(2, comp_v) @ proj
            assert compress_two_form(alg, q, comp_xi) == via_clifford


def test_compression_of_model_curvature_is_scalar():
    """Compatible forms lose their double-wedge and double-contraction blocks."""
    n, q = 2, 1
    alg = ExteriorAlgebra(n)

    def comp_xi(a, b):
        # the model form: value i on (j, j+n) slots in the adapted frame
        if a < n and b == a + n:
            return ExactScalar.pi(1)
        if b < n and a == b + n:
            return ExactScalar.pi(1, -1)
        return ExactScalar.zero()

    got = compress_two_form(alg, q, comp_xi)
    assert got == alg.project_det(q).scale(ExactScalar.pi(1, -2 * n))


def test_identity_acts_trivially():
    alg = ExteriorAlgebra(3, 2)
    assert alg.identity().entries == {(i, i): rat(1) for i in range(alg.dim)}


def test_endo_algebra():
    rng = random.Random(11)
    alg = ExteriorAlgebra(2, 2)

    def rand_endo():
        return alg.zero_endo() + alg.identity().scale(random_scalar(rng)) \
            + (alg.wedge(1) @ alg.contract(2)).scale(random_scalar(rng))

    a, b, c = rand_endo(), rand_endo(), rand_endo()
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.adjoint().adjoint() == a


def test_endos_of_different_algebras_do_not_mix():
    # n=2 with rank 2 and n=3 with rank 1 both have dimension 8
    a = ExteriorAlgebra(2, 2).identity()
    b = ExteriorAlgebra(3, 1).identity()
    assert a.alg.dim == b.alg.dim == 8
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    # separately built algebras of the same shape still combine
    c = ExteriorAlgebra(2, 2).identity()
    assert a + c == a.scale(rat(2))
    assert a @ c == a
