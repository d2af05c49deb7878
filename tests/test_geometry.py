import json
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import getitem

import pytest
from hypothesis import given, strategies as st

from bergman import cli, geometry
from bergman.closed_form import b1_formula
from bergman.errors import DegenerateCurvatureError, TruncationInsufficientError
from bergman.geometry import (
    _TENSOR_FIELDS,
    GeometryJet,
    flat_potential,
    fs_product_potential,
    jet_from_potential,
    parse_potential,
    random_potential,
)
from bergman.jet_checks import identity_suite, lambda_scalars, validate_jet
from bergman.perturbation import b1_engine
from bergman.scalars import ExactScalar, rat
from bergman.series import Series, mat_identity, mat_inverse, mat_mul, mat_scale
from conftest import dense_potential
from oracles import (
    bismut_christoffels,
    bismut_fields_by_series,
    cov0_per_term,
    jet_body,
    jet_digest,
    metric_by_full_frame,
    normal_derivatives_by_pullback,
    potential_to_dict,
)


def allzero(t):
    if isinstance(t, ExactScalar):
        return t.is_zero()
    return all(allzero(x) for x in t)


def test_potential_parsing_roundtrip():
    data = {
        "z1 zb1": [{"pi_pow": 1, "re": "1", "im": "0"}],
        "z1^2 zb2": [{"pi_pow": 2, "re": "1/3", "im": "-1/2"}],
        "z2 zb1^2": [{"pi_pow": 2, "re": "1/3", "im": "1/2"}],
    }
    phi = parse_potential(data, 2)
    assert phi.coeff((1, 0, 1, 0)) == ExactScalar.pi(1)
    assert phi.coeff((2, 0, 0, 1)) == ExactScalar.rational("1/3", "-1/2", 2)
    again = parse_potential(potential_to_dict(phi), 2)
    assert again == phi
    with pytest.raises(ValueError):
        parse_potential({"w1": "1"}, 2)
    with pytest.raises(ValueError):
        parse_potential({"z3": "1"}, 2)


_factor = st.from_regex(r"zb?[0-9]{1,2}(\^[0-9]{1,2})?", fullmatch=True)
_key = st.lists(_factor | st.text(max_size=4), max_size=3).map(" ".join) | st.text()


@given(st.dictionaries(_key, st.just("1/3") | st.just([]) | st.none(), max_size=4))
def test_parse_potential_roundtrips_or_raises_value_error(data):
    try:
        phi = parse_potential(data, 2)
    except ValueError:
        return
    assert parse_potential(potential_to_dict(phi), 2) == phi


def test_hessian_normalization_enforced(monkeypatch):
    phi = parse_potential({"z1 zb1": [{"pi_pow": 1, "re": "2", "im": "0"}]}, 1)
    with pytest.raises(DegenerateCurvatureError):
        jet_from_potential(phi, n=1, q=0)
    # wrong sign pattern for the declared signature
    with pytest.raises(DegenerateCurvatureError):
        jet_from_potential(fs_product_potential(2, 1), n=2, q=2)
    # non-real potential
    bad = parse_potential({"z1 zb1": [{"pi_pow": 1, "re": "1", "im": "0"}],
                           "z1^2 zb1": [{"pi_pow": 2, "re": "1", "im": "0"}]}, 1)
    with pytest.raises(DegenerateCurvatureError):
        jet_from_potential(bad, n=1, q=0)
    # a non-real twist is refused before any stage of the pipeline runs
    monkeypatch.setattr(geometry, "mat_sqrt", None)
    with pytest.raises(DegenerateCurvatureError, match="auxiliary potential is not real"):
        jet_from_potential(flat_potential(1, 0), bad, n=1, q=0)


def test_truncation_guard():
    phi = flat_potential(1, 0).truncate(3)
    with pytest.raises(TruncationInsufficientError):
        jet_from_potential(phi, n=1, q=0)


def test_signature_index_bounds():
    with pytest.raises(ValueError):
        jet_from_potential(flat_potential(1, 1), n=1, q=2)
    with pytest.raises(ValueError):
        jet_from_potential(flat_potential(1, 0), n=1, q=-1)


def test_flat_jet_is_flat(jet_cache):
    jet = jet_cache("flat", 2, 1)
    for name in ("dRL1", "dRL2", "RTX", "RB", "Tas", "covTas", "dTas",
                 "nablaXJ", "nablaBJ", "nablaB2J", "SB", "trRT10"):
        assert allzero(getattr(jet, name)), name
    assert jet.rX.is_zero()
    assert validate_jet(jet).ok
    assert identity_suite(jet).ok


def test_fs_scalar_curvature(jet_cache):
    jet = jet_cache("fs", 1, 0)
    assert jet.rX == ExactScalar.pi(1, 8)
    # the sign-flipped factor carries the same induced metric
    assert jet_cache("fs", 1, 1).rX == ExactScalar.pi(1, 8)
    assert jet_cache("fs", 2, 1).rX == ExactScalar.pi(1, 16)


@pytest.mark.parametrize("kind,n,q,seed", [
    ("fs", 1, 0, 0), ("fs", 2, 1, 0), ("fs", 3, 2, 0),
    ("random", 1, 0, 21), ("random", 1, 1, 22),
    ("random", 2, 0, 23), ("random", 2, 1, 24), ("random", 2, 2, 25),
])
def test_pipeline_jets_validate(jet_cache, kind, n, q, seed):
    jet = jet_cache(kind, n, q, seed)
    rep = validate_jet(jet)
    assert rep.ok, rep.failures()
    rep = identity_suite(jet)
    assert rep.ok, rep.failures()


def test_definite_signature_is_torsion_free(jet_cache):
    for n, q, seed in [(1, 0, 31), (2, 0, 32), (2, 2, 33), (1, 1, 34)]:
        jet = jet_cache("random", n, q, seed)
        assert jet.is_torsion_free()
    # a mixed-signature random jet generically is not
    assert not jet_cache("random", 2, 1, 7).is_torsion_free()


def test_mixed_signature_jets_have_live_tensors(jet_cache):
    """The cross-check batch must actually exercise every formula block."""
    jet = jet_cache("random", 2, 1, 7)
    assert not allzero(jet.Tas)
    assert not allzero(jet.dTas)
    assert not allzero(jet.dRL1)
    assert not allzero(jet.dRL2)
    assert not allzero(jet.nablaBJ)
    assert jet.nablaBJ != jet.nablaXJ


def test_corrupted_jet_is_rejected(jet_cache):
    jet = jet_cache("random", 2, 1, 7)
    broken = json.loads(jet.to_text(file=True))
    # symmetrize one curvature slot pair: breaks the antisymmetry checks
    broken["RTX"][0][1] = broken["RTX"][1][0]
    bad = GeometryJet.from_json(broken)
    rep = validate_jet(bad)
    assert not rep.ok
    details = dict(rep.failures())
    assert any("riemann" in name for name in details)
    # the first failing slot lies in the symmetrized pair RTX[0][1]
    assert details["riemann-antisym-front"] == "slot (0, 1, 0, 1)"
    assert details["riemann-pair-symmetry"].startswith("slot (0, 1, ")


@pytest.mark.parametrize("front,check", [
    ((2, 0), "kahler-mixed-second-derivative-vanishes"),
    ((0, 2), "kahler-second-derivative-vs-curvature"),
])
def test_kahler_checks_name_their_first_failing_slot(jet_cache, front, check):
    """Break nablaB2J[front][c][c] at c = 2 and 3, which enter the Kahler
    sums at slots (0, 0) and (1, 1): the detail names (0, 0), the first."""
    jet = jet_cache("random", 2, 0, 3)
    assert jet.is_torsion_free()
    broken = json.loads(jet.to_text(file=True))
    for c in (2, 3):
        broken["nablaB2J"][front[0]][front[1]][c][c] = ExactScalar.one().to_json()
    details = dict(identity_suite(GeometryJet.from_json(broken)).failures())
    assert details[check].startswith("slot (0, 0): 1")


# Every signed slot transposition and partner conjugation that pipeline jets
# satisfy, with the validate_jet check that enforces it.  RE is zero on
# untwisted jets, where every relation holds vacuously, so it is left out.
_ENFORCED_RELATIONS = {
    ("RB", "reality"): "reality[RB]",
    ("RB", "skew 01"): "bismut-curvature-antisym-front",
    ("RB", "skew 23"): "clifford-forms-skew",
    ("RTX", "reality"): "reality[RTX]",
    ("RTX", "skew 01"): "riemann-antisym-front",
    ("RTX", "skew 23"): "riemann-antisym-back",
    ("SB", "reality"): "s-tensor-from-torsion",
    ("SB", "skew 01"): "s-tensor-from-torsion",
    ("SB", "skew 02"): "s-tensor-from-torsion",
    ("SB", "skew 12"): "s-tensor-from-torsion",
    ("Tas", "reality"): "reality[Tas]",
    ("Tas", "skew 01"): "torsion-totally-antisymmetric",
    ("Tas", "skew 02"): "torsion-totally-antisymmetric",
    ("Tas", "skew 12"): "torsion-totally-antisymmetric",
    ("dRL1", "anti-reality"): "anti-reality[dRL1]",
    ("dRL1", "skew 12"): "curvature-derivative-antisym",
    ("dRL2", "skew 23"): "curvature-second-derivative-symmetries",
    ("dRL2", "symmetric 01"): "curvature-second-derivative-symmetries",
    ("dTas", "reality"): "reality[dTas]",
    **{("dTas", f"skew {i}{j}"): "four-form-totally-antisymmetric"
       for i, j in combinations(range(4), 2)},
    ("nablaB2J", "reality"): "reality[nablaB2J]",
    ("nablaB2J", "skew 23"): "clifford-forms-skew",
    ("nablaBJ", "reality"): "reality[nablaBJ]",
    ("nablaBJ", "skew 12"): "clifford-forms-skew",
    ("nablaXJ", "reality"): "reality[nablaXJ]",
    ("trRT10", "anti-reality"): "anti-reality[trRT10]",
    ("trRT10", "skew 01"): "clifford-forms-skew",
}
# ... and those no check enforces, with the reason none is needed
_UNENFORCED_RELATIONS = {
    ("nablaXJ", "skew 12"): "follows from dRL1's skew and "
                            "curvature-derivative-matches-structure-derivative",
    **{("covTas", rel): "read only through contracted-divergence-relation"
       for rel in ("reality", "skew 12", "skew 13", "skew 23")},
    ("dRL2", "anti-reality"): "read only by the engine, and a break of it alone leaves "
                              "the routes agreeing",
}


def _slot_relations(jet):
    """(field, relation) for each signed slot transposition ("symmetric ij",
    "skew ij") and partner conjugation ("reality", "anti-reality") that holds
    at every slot of the field."""
    n, dim = jet.n, 2 * jet.n
    found = set()
    for name, rank in _TENSOR_FIELDS.items():
        if name == "RE":
            continue
        t = getattr(jet, name)
        at = lambda idx: reduce(getitem, idx, t)
        slots = list(product(range(dim), repeat=rank))
        for i, j in combinations(range(rank), 2):
            swapped = [at([s[j] if k == i else s[i] if k == j else x
                           for k, x in enumerate(s)]) for s in slots]
            if all(w == at(s) for s, w in zip(slots, swapped)):
                found.add((name, f"symmetric {i}{j}"))
            if all(w.negates(at(s)) for s, w in zip(slots, swapped)):
                found.add((name, f"skew {i}{j}"))
        for kind, sign in (("reality", 1), ("anti-reality", -1)):
            if all(at(s).conjugates(at([(a + n) % dim for a in s]), sign) for s in slots):
                found.add((name, kind))
    return found


def test_pipeline_slot_relations_are_pinned(jet_cache):
    """The slot relations that hold on a dense (3,2) jet and a random (2,1)
    jet are exactly the pinned ones, and each enforcing check exists."""
    jets = [jet_cache("dense", 3, 2, 1), jet_cache("random", 2, 1, 5)]
    held = _slot_relations(jets[0]) & _slot_relations(jets[1])
    assert held == _ENFORCED_RELATIONS.keys() | _UNENFORCED_RELATIONS.keys()
    checks = {name for name, _, _ in validate_jet(jets[0]).checks}
    assert set(_ENFORCED_RELATIONS.values()) <= checks


def test_jet_json_roundtrip(jet_cache):
    jet = jet_cache("random", 2, 1, 13)
    clone = GeometryJet.from_json(json.loads(jet.to_text(file=True)))
    assert clone.jet_id == jet.jet_id
    assert clone.RTX == jet.RTX
    assert clone.dRL2 == jet.dRL2
    assert clone.RE == jet.RE
    assert clone.rX == jet.rX


def test_jet_id_is_hashed_when_first_read(jet_cache, monkeypatch):
    """Building, validating and evaluating a jet on either route writes no
    text; the first read of `jet_id` walks the jet once for the compact text.
    Loading a jet file writes no text either: the loaded jet's id is hashed
    when first read, after the file's JSON tree can be dropped."""
    text = jet_cache("random", 2, 1, 5).to_text(file=True)
    walks = []
    emit = geometry._emit

    def spy(walked, *layouts):
        walks.append([level for level, _ in layouts])
        return emit(walked, *layouts)

    monkeypatch.setattr(geometry, "_emit", spy)
    jet = jet_from_potential(random_potential(2, 1, 5), n=2, q=1)
    assert validate_jet(jet).ok and walks == []
    b1_formula(jet, check=False)
    b1_engine(jet, check=False)
    assert walks == []
    assert [jet.jet_id, jet.jet_id] == ["92d5bb2e9ad3c406"] * 2 and walks == [[None]]
    loaded = GeometryJet.from_json(json.loads(text))
    assert walks == [[None]] and loaded == jet
    assert [loaded.jet_id, loaded.jet_id] == [jet.jet_id] * 2 and walks == [[None]] * 2


_EMITTER_JETS = {
    "flat-1-0": ("flat", 1, 0),
    "random-2-1": ("random", 2, 1, 5),
    "random-3-2": ("random", 3, 2, 5),
    "random-4-2": ("random", 4, 2, 5),
    "twist-3-1-rank-2": ("random", 3, 1, 0, 2, ("1/2", "-7/3", "5")),
}


def _map_payloads(t, fn):
    """`t` with `fn` applied to every scalar payload (a list of items, or [])."""
    if not t or isinstance(t[0], dict):
        return fn(t)
    return [_map_payloads(x, fn) for x in t]


def _items(body):
    out = []
    for name in ("rX", *_TENSOR_FIELDS):
        _map_payloads(body[name], out.extend)
    return out


@pytest.mark.parametrize("case", _EMITTER_JETS)
def test_jet_text_matches_the_dict_oracle(jet_cache, case):
    """The emitter's two layouts are byte for byte `json.dumps` of the body
    built as a dict, its compact text hashes to the id, and a file reads back
    to the same text."""
    jet = jet_cache(*_EMITTER_JETS[case])
    body = jet_body(jet)
    text = jet.to_text(file=True)
    assert text == json.dumps(body, sort_keys=True, indent=1)
    del body["jet_id"]
    assert jet.to_text() == json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert jet.jet_id == jet_digest(body)
    assert json.loads(text) == {**body, "jet_id": jet.jet_id}
    assert GeometryJet.from_json(json.loads(text)).to_text(file=True) == text
    if case.startswith("twist"):
        items = _items(body)
        assert len({it["pi_pow"] for it in items}) > 1
        assert any(it["re"].startswith("-") for it in items)
        assert any("/" in it["re"] + it["im"] for it in items)
        assert any(m[0][0] and m[1][1] for row in body["RE"] for m in row)


def _double(x: str) -> str:
    p, _, q = x.partition("/")
    return f"{2 * int(p)}/{2 * int(q or 1)}"


_REWRITES = {
    "unreduced": lambda p: [{**it, "re": _double(it["re"]), "im": _double(it["im"])} for it in p],
    "integers": lambda p: [{**it, **{k: int(it[k]) for k in ("re", "im") if "/" not in it[k]}}
                           for it in p],
    "reordered": lambda p: p[::-1],
    "split": lambda p: [x for it in p for x in ({**it, "re": str(Fraction(it["re"]) - 1)},
                                                {"pi_pow": it["pi_pow"], "re": "1", "im": 0})],
    "zero-items": lambda p: p or [{"pi_pow": 0, "re": "0", "im": 0}],
}


@pytest.mark.parametrize("rewrite", _REWRITES)
def test_noncanonical_jet_file_gets_the_canonical_id(jet_cache, rewrite):
    """A file whose payloads are equal but not canonical (unreduced "2/4",
    integer payloads, items out of order, one pi-power split over two items,
    zero written out) and whose `jet_id` is stale loads to the canonical jet."""
    jet = jet_cache("random", 2, 1, 5)
    text = jet.to_text(file=True)
    body = json.loads(text)
    for name in ("rX", *_TENSOR_FIELDS):
        body[name] = _map_payloads(body[name], _REWRITES[rewrite])
    assert body != json.loads(text)
    body["jet_id"] = "0" * 16
    again = GeometryJet.from_json(json.loads(json.dumps(body, sort_keys=True, indent=1)))
    assert again.jet_id == jet.jet_id
    assert again.to_text(file=True) == text


def test_lambda_scalars_vanish_without_torsion(jet_cache):
    lam = lambda_scalars(jet_cache("fs", 2, 1))
    assert lam.contracted_divergence.is_zero()
    assert lam.double_contraction.is_zero()
    # the 2-form aggregate still carries curvature
    assert not all(v.is_zero() for row in lam.p_form for v in row)


def test_lambda_scalars_nontrivial_on_torsion(jet_cache):
    lam = lambda_scalars(jet_cache("random", 2, 1, 7))
    assert not lam.contracted_divergence.is_zero()
    assert not lam.double_contraction.is_zero()
    for v in (lam.contracted_divergence, lam.double_contraction):
        assert v.conjugate() == v


def test_structure_derivative_consistency(jet_cache):
    """First curvature derivatives are the structure-map derivatives in disguise."""
    jet = jet_cache("random", 2, 1, 7)
    dim = 2 * jet.n
    m2pi = ExactScalar.rational(0, -2, 1)
    for k in range(dim):
        for a in range(dim):
            for b in range(dim):
                assert jet.dRL1[k][a][b] == m2pi * jet.nablaXJ[k][a][b]


def _pipeline_series(monkeypatch, n, q, seed):
    """Build the seed's jet and keep the series the pipeline passes between
    its stages: RL, g, g^-1, the Levi-Civita Gamma and the torsion 3-form,
    all in the coordinate frame, with the xi frame's slot order.  The
    pipeline differentiates omega and forms no J, so J[a][c] = J^c_a =
    omega_ab g^bc, omega = (i / 2 pi) RL, is formed here with the cap-2 g^-1
    of the full-frame construction."""
    seen = {}

    def spy(name, keep):
        real = getattr(geometry, name)

        def wrapper(*args):
            out = real(*args)
            seen.update(keep(args, out))
            return out

        monkeypatch.setattr(geometry, name, wrapper)

    spy("_metric", lambda args, out: {"RL": args[0]})
    spy("_christoffels", lambda args, out: {"g": args[0], "ginv": args[1], "gamma": out})
    spy("_antisym_torsion", lambda args, out: {"tas": out})
    phi = random_potential(n, q, seed)
    seen["jet"] = jet_from_potential(phi, n=n, q=q)
    omega = [[s.scale(ExactScalar.rational(0, "1/2", -1)) for s in row] for row in seen["RL"]]
    seen["J"] = mat_mul(omega, metric_by_full_frame(phi, n)[1])
    seen["xi"] = [*range(n, n + q), *range(q, n), *range(q), *range(n + q, 2 * n)]
    return seen


_BASELINE_JETS = [(1, 0, 3), (2, 1, 5), (2, 2, 4), (3, 1, 0), (3, 2, 5), (4, 2, 5)]


@pytest.mark.parametrize("n, q", [(3, 2), (4, 2)])
def test_cov0_leaves_the_metric_parallel(monkeypatch, n, q):
    """Both connections are metric (Tas is totally antisymmetric), so the
    base-point covariant derivative of g, two slots lowered, and of g^-1, two
    slots raised, vanishes for the Levi-Civita and for the Bismut Gamma(0)."""
    seen = _pipeline_series(monkeypatch, n, q, 5)
    g, ginv, gamma = seen["g"], seen["ginv"], seen["gamma"]
    gam0s = [geometry._at0(gamma), geometry._at0(bismut_christoffels(gamma, seen["tas"], ginv))]
    assert gam0s[0] != gam0s[1]
    for gam0 in gam0s:
        assert allzero(geometry._cov0(g, [(gam0, False)] * 2, range(2 * n)))
        assert allzero(geometry._cov0(ginv, [(gam0, True)] * 2, range(2 * n)))


@pytest.mark.parametrize("n, q", [(3, 2), (4, 2)])
def test_cov0_matches_the_per_term_corrections(monkeypatch, n, q):
    """Every `_cov0` call of the pipeline (the curvature, covTas and the
    derivative of nabla J) gives the subtensors that adding each Christoffel
    correction one term at a time gives; the calls move slots with the
    Levi-Civita Gamma(0) only, raised and lowered."""
    calls = []
    real = geometry._cov0

    def spy(t, slots, firsts):
        calls.append((t, slots, firsts, real(t, slots, firsts)))
        return calls[-1][3]

    monkeypatch.setattr(geometry, "_cov0", spy)
    jet_from_potential(random_potential(n, q, 5), n=n, q=q)
    moves = {(id(slot[0]), slot[1]) for _, slots, _, _ in calls for slot in slots if slot}
    assert len(moves) == 2 and len(calls) == 3
    for t, slots, firsts, got in calls:
        want = cov0_per_term(t, slots)
        assert got == [want[m] for m in firsts]


@pytest.mark.parametrize("n, q, seed", _BASELINE_JETS)
def test_bismut_fields_match_the_series_route(monkeypatch, n, q, seed):
    """RB, nablaBJ, nablaB2J and dTas, read off the Levi-Civita fields, are
    what the series route through the Bismut connection gives."""
    seen = _pipeline_series(monkeypatch, n, q, seed)
    want = bismut_fields_by_series(seen["g"], seen["ginv"], seen["gamma"], seen["tas"], seen["J"])
    jet = seen["jet"]
    for name, t in want.items():
        assert getattr(jet, name) == geometry._relabel(t, seen["xi"], _TENSOR_FIELDS[name]), name
    # q = 0 and q = n are Kaehler: no torsion, and J is parallel
    assert not allzero(jet.RB) and (q in (0, n) or not allzero(jet.nablaB2J))


@pytest.mark.parametrize("n, q, seed", _BASELINE_JETS)
def test_covariant_torsion_and_second_bismut_fields_keep_their_symmetries(jet_cache, n, q, seed):
    """covTas is real and skew in its last three slots, and RB and nablaB2J
    vanish when their last two slots have the same type, (1,0) or (0,1) in the
    coordinates z.  `validate_jet` checks none of these relations."""
    jet = jet_cache("random", n, q, seed)
    dim = 2 * n
    part = [(a + n) % dim for a in range(dim)]
    holomorphic = [(a < n) == (a % n >= q) for a in range(dim)]  # xi_j = zbar_j for j < q
    cov = jet.covTas
    for k, a, b, c in product(range(dim), repeat=4):
        v = cov[k][a][b][c]
        assert cov[part[k]][part[a]][part[b]][part[c]] == v.conjugate(), (k, a, b, c)
        assert v.negates(cov[k][b][a][c]) and v.negates(cov[k][a][c][b]), (k, a, b, c)
    for name in ("RB", "nablaB2J"):
        t = getattr(jet, name)
        for a, b, c, d in product(range(dim), repeat=4):
            assert holomorphic[c] != holomorphic[d] or t[a][b][c][d].is_zero(), (name, a, b, c, d)


@pytest.mark.parametrize("n, q, twist", [
    (2, 1, None), (3, 2, None), (4, 2, None), (3, 1, ("1/2", "-1/3", "1/4")), (1, 0, None),
])
def test_metric_inverse_holds_the_hermitian_inverse(monkeypatch, n, q, twist):
    """The pipeline inverts g once, through the block S of g_endo, and keeps
    g^-1 at cap 1, the degrees its readers (the Christoffels, h^-1 and
    g^-1(0)) read; g g^-1 = I exactly at cap 1.
    g pairs unbarred with barred slots only, so the inverse of its block
    h[j][k] = g[j][n+k], truncated to cap 1, is the block ginv[n+j][k] of
    g^-1, in value and cap: the Chern connection reads h^-1 there instead of
    inverting h again.  The pipeline forms the metric on its holomorphic
    block; g and g^-1 are those of the full-frame construction on all 2n
    slots, entry and cap, g^-1 truncated to cap 1."""
    seen, inverted = [], []
    real, real_inverse = geometry._christoffels, geometry.mat_inverse

    def spy(g, ginv):
        seen.append((g, ginv))
        return real(g, ginv)

    def spy_inverse(a):
        inverted.append(a)
        return real_inverse(a)

    monkeypatch.setattr(geometry, "_christoffels", spy)
    monkeypatch.setattr(geometry, "mat_inverse", spy_inverse)
    phi_e = None if twist is None else parse_potential(
        {f"z{j + 1} zb{j + 1}": [{"pi_pow": 1, "re": c, "im": "0"}] for j, c in enumerate(twist)}, n)
    phi = random_potential(n, q, 5)
    jet_from_potential(phi, phi_e, n=n, q=q, rk_e=1 if twist is None else 2)
    [(g, ginv)] = seen
    assert len(inverted) == 1
    dim = 2 * n
    want_g, want_ginv = metric_by_full_frame(phi, n)
    want_ginv = [[s.truncate(1) for s in row] for row in want_ginv]
    for got, want in ((g, want_g), (ginv, want_ginv)):
        for a, b in product(range(dim), repeat=2):
            assert got[a][b] == want[a][b] and got[a][b].cap == want[a][b].cap, (a, b)
    assert all(g[a][b].is_zero() for a, b in product(range(dim), repeat=2) if (a < n) == (b < n))
    # h(0) = I / 2, so 2h has a binomial inverse
    two = rat(2)
    hinv = mat_scale(mat_inverse(mat_scale([[g[j][n + k] for k in range(n)] for j in range(n)],
                                           two)), two)
    for j, k in product(range(n), repeat=2):
        h1 = hinv[j][k].truncate(1)
        assert h1 == ginv[n + j][k] and h1.cap == ginv[n + j][k].cap == 1, (j, k)
    product_ = mat_mul(g, ginv)
    assert product_ == mat_identity(dim, dim, 1)
    assert all(s.cap == 1 for row in product_ for s in row)


@pytest.mark.parametrize("n, q, seed", [(1, 0, 3), (2, 1, 5), (3, 2, 5), (3, 1, 0)])
def test_normal_derivatives_match_the_exp_map_pullback(monkeypatch, n, q, seed):
    """dRL1 and dRL2, read off the Levi-Civita derivatives of J with the
    curvature terms of d Gamma(0) in normal coordinates, are the derivatives
    at 0 of the curvature form's pullback by the cubic exponential map."""
    seen = _pipeline_series(monkeypatch, n, q, seed)
    gamma, xi, jet = seen["gamma"], seen["xi"], seen["jet"]
    want1, want2 = normal_derivatives_by_pullback(seen["RL"], gamma, geometry._at0(gamma))
    assert jet.dRL1 == geometry._relabel(want1, xi, 3)
    assert jet.dRL2 == geometry._relabel(want2, xi, 4)
    assert not allzero(jet.dRL2)


@pytest.mark.parametrize("n, q, seed", [
    (1, 0, 3), (2, 1, 5), (2, 2, 4), (3, 2, 5), (3, 1, 0), (4, 2, 5),
])
def test_the_second_curvature_derivative_is_closed(jet_cache, n, q, seed):
    """The curvature form is closed, and so is each of its derivatives: the
    cyclic sum of dRL2[k] over its last three slots vanishes.  `validate_jet`
    does not check this relation."""
    drl2 = jet_cache("random", n, q, seed).dRL2
    assert not allzero(drl2)
    for k, l, a, b in product(range(2 * n), repeat=4):
        assert (drl2[k][l][a][b] + drl2[k][a][b][l] + drl2[k][b][l][a]).is_zero(), (k, l, a, b)


@pytest.mark.parametrize("nvars", range(2, 7))
def test_monomials_run_in_increasing_order_within_each_degree(nvars):
    """`random_potential` draws one coefficient per monomial in this order, so
    it decides every potential of every signature and seed."""
    assert geometry._monomials(nvars, (3, 4)) == [
        e for d in (3, 4) for e in product(range(d + 1), repeat=nvars) if sum(e) == d]


def test_random_potential_is_seed_stable():
    a = random_potential(2, 1, 99)
    b = random_potential(2, 1, 99)
    c = random_potential(2, 1, 100)
    assert a == b
    assert a != c
    conj = a.conj()
    assert conj == a  # reality of the generated potential


def test_aux_twist_enters_curvature(jet_cache):
    jet = jet_cache("random", 2, 1, 7, rk_e=2, twist=("1/2", "-1/3"))
    assert jet.rk_e == 2
    # the first adapted direction is conjugated (q = 1), flipping the 2-form sign
    m = jet.RE[0][2]
    assert m[0][0] == ExactScalar.pi(1, "-1/2")
    assert m[1][1] == ExactScalar.pi(1, "-1/2")
    assert m[0][1].is_zero()
    m = jet.RE[1][3]
    assert m[0][0] == ExactScalar.pi(1, "-1/3")
    assert validate_jet(jet).ok


@pytest.mark.parametrize("n,q,seed,rk_e,twist", [
    (2, 1, 5, 1, None), (3, 2, 5, 1, None), (4, 2, 5, 1, None),
    (3, 1, 5, 2, ("1/2", "-1/3", "1/4")),
])
def test_clifford_inputs_are_skew(jet_cache, n, q, seed, rk_e, twist):
    """The 2-forms the engine hands to the Clifford map are skew: nablaBJ[a] in
    its last two slots, RB[a][b] and nablaB2J[a][b] in (c, d), trRT10, and
    each aux-matrix entry of RE.  The map reads each form on increasing
    label words only, so a form that is not skew would lose its symmetric part."""
    jet = jet_cache("random", n, q, seed, rk_e=rk_e, twist=twist)
    dim = 2 * n
    forms = {
        "nablaBJ": jet.nablaBJ,
        "RB": [m for row in jet.RB for m in row],
        "nablaB2J": [m for row in jet.nablaB2J for m in row],
        "trRT10": [jet.trRT10],
        "RE": [[[jet.RE[c][d][r][s] for d in range(dim)] for c in range(dim)]
               for r, s in product(range(rk_e), repeat=2)],
    }
    for name, mats in forms.items():
        live = any(not x.is_zero() for m in mats for row in m for x in row)
        assert live or (name == "RE" and twist is None), name
        for i, m in enumerate(mats):
            for c in range(dim):
                for d in range(c, dim):
                    assert m[c][d].negates(m[d][c]), (name, i, c, d)


def test_series_basics():
    s = Series(2, 3, {(1, 0): rat(2), (0, 2): rat(1)})
    t = Series.var(2, 3, 0)
    assert (s * t).coeff((2, 0)) == rat(2)
    assert s.diff(1).coeff((0, 1)) == rat(2)
    u = s.compose([Series.var(2, 3, 1), Series.var(2, 3, 0)])
    assert u.coeff((0, 1)) == rat(2)
    assert u.coeff((2, 0)) == rat(1)


def test_pluriharmonic_change_keeps_the_jet(jet_cache):
    """Adding 2 Re(h), h holomorphic, leaves d dbar phi and so the jet unchanged."""
    jet = jet_cache("random", 2, 1, 5)
    assert jet.jet_id == "92d5bb2e9ad3c406"
    phi = random_potential(2, 1, 5)
    h = Series(4, phi.cap, {(3, 0, 0, 0): ExactScalar.rational("1/2", 2, 2),
                            (1, 2, 0, 0): ExactScalar.rational(-1, 1, 1),
                            (2, 2, 0, 0): ExactScalar.rational(0, 3, 2)})
    assert jet_from_potential(phi + h + h.conj(), n=2, q=1).jet_id == jet.jet_id


_PINNED_JETS = [
    ("random", 3, 1, 0, None, "1abe9a63ed6793ac"), ("random", 3, 2, 5, None, "1c006ba8baac7139"),
    ("random", 3, 1, 7, None, "732d22cae15521b4"), ("random", 3, 0, 3, None, "3459c8461deafa13"),
    ("random", 3, 3, 2, None, "c64b699e172ed2ae"), ("random", 4, 2, 5, None, "1c00aa87501e34cd"),
    ("random", 4, 2, 5, ("1/2", "-1/3", "1/4", "-1/5"), "353c2a76679eeb2b"),
    ("dense", 3, 1, 1, None, "63d40174cf9e3fde"), ("dense", 3, 2, 1, None, "f0514f756460fe12"),
]


@pytest.mark.parametrize("kind,n,q,seed,twist,jet_id", _PINNED_JETS, ids=[
    f"{'dense-' if kind == 'dense' else ''}{n}-{q}-{seed}-{'twisted-' if twist else ''}{jet_id}"
    for kind, n, q, seed, twist, jet_id in _PINNED_JETS])
def test_pipeline_jet_ids_are_pinned(jet_cache, kind, n, q, seed, twist, jet_id):
    """Digests of the full pipeline at n = 3 and 4, one with a rank-2 twist
    and two dense ones, every cubic and quartic coefficient nonzero: any change
    to a series truncation, the metric square root or the normal-coordinate
    derivatives shows here."""
    rk_e = 1 if twist is None else 2
    assert jet_cache(kind, n, q, seed, rk_e=rk_e, twist=twist).jet_id == jet_id


def test_the_build_holds_little_beyond_the_jet():
    """The pipeline freezes each field of the jet as soon as it is final and
    drops each intermediate after its last reader, so a dense (3,2) build,
    caches warm, peaks at under twice the traced size of the jet it returns."""
    phi = dense_potential(3, 2, 1)
    jet_from_potential(phi, n=3, q=2)
    tracemalloc.start()
    try:
        jet = jet_from_potential(phi, n=3, q=2)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * size, (peak, size)
    assert jet.jet_id == "f0514f756460fe12"


def test_writing_a_jet_file_holds_little_beyond_its_text(jet_cache, tmp_path, capsys):
    """The write path builds the file's pieces, one per key or field, and
    hashes the compact text field by field in the same walk, so writing a
    dense (3,2) jet, validation included, peaks at under twice the file's
    length (about 1.4 times; 3 while the whole text was joined, copied and
    preceded by the compact text)."""
    path = tmp_path / "jet.json"
    cli._write_jet(jet_cache("dense", 3, 2, 1), str(path))  # warms the caches
    jet = jet_from_potential(dense_potential(3, 2, 1), n=3, q=2)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        assert cli._write_jet(jet, str(path)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    length = path.stat().st_size
    assert peak - base < 2 * length, (peak - base, length)
    assert capsys.readouterr().out.endswith(f"wrote jet f0514f756460fe12 to {path}\n")


def test_a_loaded_jet_shares_its_equal_scalars(jet_cache):
    """A load parses each distinct payload once and equal entries share one
    scalar, so a dense (3,2) jet loaded from its file holds under 0.6 of the
    traced size of the same jet built (about 0.39; 1.0 with a scalar per
    entry)."""
    jet = jet_cache("dense", 3, 2, 1)
    data = json.loads(jet.to_text(file=True))
    GeometryJet.from_json(data)  # warms the caches
    tracemalloc.start()
    try:
        built = jet_from_potential(dense_potential(3, 2, 1), n=3, q=2)
        built_size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        loaded = GeometryJet.from_json(data)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 0.6 * built_size, (size, built_size)
    assert loaded == built and loaded.jet_id == "f0514f756460fe12"


@pytest.mark.parametrize("n,q,twist", [
    (1, 0, None), (2, 1, None), (2, 2, None), (3, 2, None), (3, 1, ("1/2", "-1/3", "1/4")),
])
def test_mirrored_stages_match_the_direct_build(jet_cache, monkeypatch, n, q, twist):
    """Each real stage of the pipeline builds the entries whose first index is
    < n and fills the rest as their (signed) conjugates through `_real`; building
    every entry directly gives the same seed-5 jet, field by field."""
    rk_e = 1 if twist is None else 2
    mirrored = jet_cache("random", n, q, 5, rk_e=rk_e, twist=twist)
    built = []

    def direct(build, dim, sign=1):
        built.append(sign)
        return build(range(dim))

    monkeypatch.setattr(geometry, "_real", direct)
    phi_e = None if twist is None else parse_potential(
        {f"z{j + 1} zb{j + 1}": [{"pi_pow": 1, "re": c, "im": "0"}] for j, c in enumerate(twist)}, n)
    jet = jet_from_potential(random_potential(n, q, 5), phi_e, n=n, q=q, rk_e=rk_e)
    assert built.count(-1) == 2 and len(built) == 13
    assert jet.jet_id == mirrored.jet_id and jet.rX == mirrored.rX
    for name in _TENSOR_FIELDS:
        assert getattr(jet, name) == getattr(mirrored, name), name


@pytest.mark.parametrize("n,q,twist", [
    (1, 0, None), (2, 1, None), (2, 2, None), (3, 2, None), (3, 1, ("1/2", "-1/3", "1/4")),
])
def test_forms_match_the_direct_build(jet_cache, monkeypatch, n, q, twist):
    """Tas, SB and dTas are built on increasing index words and filled by
    antisymmetry through `_form`; building every entry directly gives the
    same seed-5 jet, field by field, and each form the same entries and caps."""
    rk_e = 1 if twist is None else 2
    formed = jet_cache("random", n, q, 5, rk_e=rk_e, twist=twist)
    built = []
    real = geometry._form

    def direct(dim, rank, fn, zero):
        got, want = real(dim, rank, fn, zero), geometry._table(dim, rank, fn)
        for idx in product(range(dim), repeat=rank):
            x, y = _entry(got, idx), _entry(want, idx)
            assert x == y and getattr(x, "cap", None) == getattr(y, "cap", None), (rank, idx)
        built.append(rank)
        return want

    monkeypatch.setattr(geometry, "_form", direct)
    phi_e = None if twist is None else parse_potential(
        {f"z{j + 1} zb{j + 1}": [{"pi_pow": 1, "re": c, "im": "0"}] for j, c in enumerate(twist)}, n)
    jet = jet_from_potential(random_potential(n, q, 5), phi_e, n=n, q=q, rk_e=rk_e)
    assert sorted(built) == [3, 3, 4]
    assert jet.jet_id == formed.jet_id and jet.rX == formed.rX
    for name in _TENSOR_FIELDS:
        assert getattr(jet, name) == getattr(formed, name), name


@pytest.mark.parametrize("n, q, seed", _BASELINE_JETS)
def test_skew_tables_match_the_direct_build(jet_cache, monkeypatch, n, q, seed):
    """nabla omega, RB, nablaB2J and dRL2 fill each table of their last two
    slots through `_skew` from the pairs c < d, RB and nablaB2J from the
    mixed-type pairs only, and dRL2 once per unordered front pair (k, l).
    Evaluating every (c, d) gives each table the same entries and caps, and
    the same jet, field by field."""
    real, sizes = geometry._skew, []
    dim = 2 * n

    def direct(dim_, pairs, fn, zero=geometry._ZERO):
        pairs = list(pairs)
        got, want = real(dim_, pairs, fn, zero), geometry._table(dim_, 2, fn)
        for c, d in product(range(dim_), repeat=2):
            x, y = got[c][d], want[c][d]
            assert x == y and getattr(x, "cap", None) == getattr(y, "cap", None), (c, d)
        sizes.append(len(pairs))
        return want

    monkeypatch.setattr(geometry, "_skew", direct)
    jet = jet_from_potential(random_potential(n, q, seed), n=n, q=q)
    # nabla omega per direction k < n, RB and nablaB2J per (a, b) with a < n,
    # and dRL2 per (k, l) with k < n, less the (k, l) with l < k < n
    assert len(sizes) == n + 4 * n * n + 2 * n * n - n * (n - 1) // 2
    assert set(sizes) == {dim * (dim - 1) // 2, n * n}
    want = jet_cache("random", n, q, seed)
    assert jet.jet_id == want.jet_id and jet.rX == want.rX
    for name in _TENSOR_FIELDS:
        assert getattr(jet, name) == getattr(want, name), name


def _entry(t, idx):
    for i in idx:
        t = t[i]
    return t


@pytest.mark.parametrize("n,q,seed,perm", [
    (2, 0, 9, (1, 0)), (2, 2, 9, (1, 0)), (3, 1, 0, (0, 2, 1)),
])
def test_coordinate_swap_permutes_the_jet(jet_cache, n, q, seed, perm):
    """Swapping two coordinates of one signature block in the potential
    permutes every tensor slot of the jet the same way."""
    jet = jet_cache("random", n, q, seed)
    other = jet_cache("random", n, q, seed, swap=perm)
    sigma = tuple(perm[a % n] + (n if a >= n else 0) for a in range(2 * n))
    assert other.rX == jet.rX
    for name, rank in _TENSOR_FIELDS.items():
        t, u = getattr(jet, name), getattr(other, name)
        for idx in product(range(2 * n), repeat=rank):
            assert _entry(u, idx) == _entry(t, tuple(sigma[i] for i in idx)), (name, idx)
