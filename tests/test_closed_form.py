import pytest

from bergman.closed_form import b1_formula, b1_trace
from bergman.errors import InvalidJetError
from bergman.exterior import ExteriorAlgebra
from bergman.geometry import GeometryJet
from bergman.scalars import ExactScalar, rat

from oracles import NotKahlerError, NotPositiveError, b1_kahler, b1_positive


def test_flat_jet_vanishes(jet_cache):
    res = b1_formula(jet_cache("flat", 2, 1))
    assert res.endo.is_zero()
    assert res.trace.is_zero()
    assert res.route == "closed-form"


def test_projective_line_value(jet_cache):
    jet = jet_cache("fs", 1, 0)
    res = b1_formula(jet)
    assert res.endo == ExteriorAlgebra(1).project_det(0)
    assert res.trace == rat(1)
    # consistent with an eighth of the scalar curvature over pi
    assert jet.rX == ExactScalar.pi(1, 8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_models(jet_cache, n):
    for q in range(n + 1):
        jet = jet_cache("fs", n, q)
        res = b1_formula(jet, check=False)
        expected = ExteriorAlgebra(n).project_det(q).scale(rat(n - 2 * q))
        assert res.endo == expected, (n, q)
        assert res.trace == rat(n - 2 * q)


def test_trace_route_matches_matrix_trace(jet_cache, batch_jets):
    twist = ("1/2", "-1/3", "1/4")
    jets = [jet_cache("fs", 2, 1), jet_cache("random", 2, 0, 23)] + batch_jets[:6] + [
        jet_cache("random", 3, 1, 7, rk_e=2, twist=twist),
        jet_cache("random", 3, 2, 7, rk_e=2, twist=twist, offdiag=("1/5", "1/7"))]
    for jet in jets:
        res = b1_formula(jet, check=False)
        assert b1_trace(jet, check=False) == res.trace


def test_specialization_coherence(jet_cache):
    # torsion-free jets: the general and torsion-free forms agree
    for n, q, seed in [(1, 0, 21), (2, 0, 23), (2, 2, 25), (1, 1, 22)]:
        jet = jet_cache("random", n, q, seed)
        assert b1_kahler(jet, check=False).endo == b1_formula(jet, check=False).endo
    # definite-signature jets: all three routes agree
    for n, seed in [(1, 21), (2, 23)]:
        jet = jet_cache("random", n, 0, seed)
        a = b1_formula(jet, check=False).endo
        assert b1_kahler(jet, check=False).endo == a
        assert b1_positive(jet, check=False).endo == a


def test_positive_route_value(jet_cache):
    jet = jet_cache("fs", 2, 0)
    res = b1_positive(jet, check=False)
    assert res.trace == rat(2)
    # rX/(8 pi) with zero auxiliary curvature
    assert res.endo == ExteriorAlgebra(2).project_det(0).scale(
        jet.rX.scale("1/8") * ExactScalar.pi(-1))


def test_specialization_guards(jet_cache):
    torsion = jet_cache("random", 2, 1, 7)
    with pytest.raises(NotKahlerError):
        b1_kahler(torsion, check=False)
    with pytest.raises(NotPositiveError):
        b1_positive(jet_cache("fs", 2, 1), check=False)


def test_invalid_jet_rejected(jet_cache):
    import json
    jet = jet_cache("random", 2, 1, 7)
    body = json.loads(jet.to_text(file=True))
    body["RTX"][0][1] = body["RTX"][1][0]
    bad = GeometryJet.from_json(body)
    with pytest.raises(InvalidJetError):
        b1_formula(bad)


def test_self_adjointness(jet_cache, batch_jets):
    # (4,2) seed 5 comes from the shared jet cache, which criterion 3 fills too
    jets = [jet_cache("fs", 2, 1), jet_cache("fs", 3, 1), jet_cache("random", 4, 2, 5)]
    jets += batch_jets[:8]
    for jet in jets:
        res = b1_formula(jet, check=False)
        assert res.endo.adjoint() == res.endo


def test_degree_sector_support(batch_jets):
    """The coefficient maps the degree-q sector to itself."""
    alg = ExteriorAlgebra(2)
    ie = alg.project_degree(1)
    for jet in batch_jets[:5]:
        endo = b1_formula(jet, check=False).endo
        assert ie @ endo @ ie == endo


def test_twisted_positive_case(jet_cache):
    # flat metric with a pure auxiliary twist: only the twist block survives,
    # (1/2) R^E(u_1, ubar_1) / pi = (1/2)(2 * 2 pi)/pi = 2
    jet = jet_cache("flat", 1, 0, twist=("2",))
    res = b1_formula(jet, check=False)
    assert res.trace == rat(2)
    assert b1_positive(jet, check=False).endo == res.endo


def test_result_serialization(jet_cache):
    res = b1_formula(jet_cache("fs", 2, 1), check=False)
    payload = res.to_json()
    assert payload["route"] == "closed-form"
    assert isinstance(payload["endo"]["matrix"], list)
