import copy
import hashlib
import json
from functools import reduce
from itertools import combinations, permutations
from operator import getitem

import pytest

from bergman import cli, oscillator
from bergman.cli import main
from bergman.closed_form import b1_formula
from bergman.exterior import B1Result, ExteriorAlgebra
from bergman.geometry import GeometryJet, fs_product_potential, random_potential
from bergman.jet_checks import CheckReport
from bergman.perturbation import b1_engine
from bergman.scalars import ExactScalar
from oracles import jet_digest, potential_to_dict


@pytest.fixture()
def jet_file(tmp_path):
    path = tmp_path / "jet.json"
    assert main(["jet", "random", "--n", "2", "--q", "1", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def small_jet_body(tmp_path_factory):
    path = tmp_path_factory.mktemp("jet") / "jet.json"
    assert main(["jet", "random", "--n", "1", "--q", "0", "--seed", "3",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


def run_captured(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["b1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    # JSON is the only output format; there is no --json switch
    for route in ("closed-form", "engine"):
        with pytest.raises(SystemExit) as err:
            main(["b1", route, "--jet", "jet.json", "--json"])
        assert err.value.code == 2


def test_jet_build_and_closed_form(tmp_path, capsys):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(potential_to_dict(fs_product_potential(2, 1))))
    out_path = tmp_path / "jet.json"
    code = main(["jet", "build", "--potential", str(pot), "--n", "2", "--q", "1",
                 "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    code, out = run_captured(capsys, ["b1", "closed-form", "--jet", str(out_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "closed-form"
    assert payload["trace_pretty"] == "0"


def test_crosscheck_match_and_exit(jet_file, capsys):
    code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(jet_file)])
    assert code == 0
    assert json.loads(out)["match"] is True


def test_crosscheck_mismatch_exit(tmp_path, capsys):
    """A hand-corrupted coefficient inside an otherwise valid jet trips exit 4."""
    path = tmp_path / "jet.json"
    assert main(["jet", "random", "--n", "1", "--q", "0", "--seed", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    body = json.loads(path.read_text())
    # second curvature derivatives feed only the engine route; a symmetric,
    # antisymmetric-in-the-form-slots corruption passes validation but makes
    # the routes disagree
    bump = [{"pi_pow": 2, "re": "7", "im": "0"}]
    bump_neg = [{"pi_pow": 2, "re": "-7", "im": "0"}]
    for k, l in ((0, 1), (1, 0)):
        body["dRL2"][k][l][0][1] = bump
        body["dRL2"][k][l][1][0] = bump_neg
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(path)])
    assert code == 4
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["difference"]


def test_validation_failure_exit(tmp_path, capsys):
    path = tmp_path / "jet.json"
    assert main(["jet", "random", "--n", "1", "--q", "0", "--seed", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    body = json.loads(path.read_text())
    body["RTX"][0][0][0][0] = [{"pi_pow": 0, "re": "1", "im": "0"}]
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "closed-form", "--jet", str(path)])
    assert code == 3


_I_PI2 = ExactScalar.rational(0, 1, 2)


def _add(body, field, index, v):
    """Add v to the entry of a jet file's field at `index`."""
    row = reduce(getitem, index[:-1], body[field])
    row[index[-1]] = (ExactScalar.from_json(row[index[-1]]) + v).to_json()


def _break_rb_front_skew(body):
    v = ExactScalar.rational("1/3", 1, 0)
    for (a, b), w in (((0, 3), v), ((3, 0), v.conjugate())):
        body["RB"][a][b][a][b] = w.to_json()
        body["RB"][a][b][b][a] = (-w).to_json()


def _break_trrt10_anti_reality(body):
    _add(body, "trRT10", (0, 2), _I_PI2)
    _add(body, "trRT10", (2, 0), -_I_PI2)


def _break_dtas_reality(body):
    for sigma in permutations(range(4)):
        odd = sum(x > y for x, y in combinations(sigma, 2)) % 2
        _add(body, "dTas", sigma, -_I_PI2 if odd else _I_PI2)


def _break_covtas_divergence(body):
    v = ExactScalar.rational(1, 1, 2)
    for sigma in permutations((1, 3, 4)):
        odd = sum(x > y for x, y in combinations(sigma, 2)) % 2
        w = -v if odd else v
        _add(body, "covTas", (0, *sigma), w)
        _add(body, "covTas", (3, *[(a + 3) % 6 for a in sigma]), w.conjugate())


def _break_nablab2j_reality(body):
    for front in ((0, 3), (3, 0)):
        _add(body, "nablaB2J", (*front, 3, 5), _I_PI2)
        _add(body, "nablaB2J", (*front, 5, 3), -_I_PI2)


# Each break keeps every other slot relation of its field, so before its
# check the jet validated: RB its reality and last-pair skew (the
# antisymmetrization check cannot see the front pair where jsum[c][d] is
# zero), trRT10 its skew, dTas its total antisymmetry, covTas its reality and
# its skew in the last three slots, nablaB2J its last-pair skew and the
# antisymmetrization of its front pair.
ROUTE_SPLITTING_BREAKS = {
    "RB-front-skew": (_break_rb_front_skew, "bismut-curvature-antisym-front"),
    "trRT10-anti-reality": (_break_trrt10_anti_reality, "anti-reality[trRT10]"),
    "dTas-reality": (_break_dtas_reality, "reality[dTas]"),
    "covTas-divergence": (_break_covtas_divergence, "contracted-divergence-relation"),
    "nablaB2J-reality": (_break_nablab2j_reality, "reality[nablaB2J]"),
}


@pytest.mark.parametrize("case", ROUTE_SPLITTING_BREAKS)
def test_a_break_that_splits_the_routes_is_a_validation_error(jet_cache, tmp_path, capsys,
                                                               case):
    """A jet field broken in one slot relation makes the routes disagree, so
    that relation's check must refuse the file: crosscheck exits 3, and the
    report fails that check alone."""
    body = json.loads(jet_cache("random", 3, 2, 5).to_text(file=True))
    mutate, check = ROUTE_SPLITTING_BREAKS[case]
    mutate(body)
    jet = GeometryJet.from_json(body)
    assert b1_formula(jet, check=False).endo != b1_engine(jet, check=False).endo
    path = tmp_path / "jet.json"
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(path)])
    assert code == 3
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [check]


@pytest.mark.parametrize("command", ["random", "build"])
def test_jet_is_validated_before_it_is_written(tmp_path, capsys, monkeypatch, command):
    """`jet random` and `jet build` share one write path: a jet that fails
    validation prints the report, exits 3 and leaves no file."""
    report = CheckReport()
    report.add("forced-failure", False)
    monkeypatch.setattr(cli, "validate_jet", lambda jet: report)
    path = tmp_path / "jet.json"
    argv = ["jet", command, "--n", "1", "--q", "0", "--out", str(path)]
    if command == "build":
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps(potential_to_dict(fs_product_potential(1, 0))))
        argv += ["--potential", str(pot)]
    code, out = run_captured(capsys, argv)
    assert code == 3
    assert json.loads(out) == report.to_json()
    assert not path.exists()


def test_a_form_that_is_not_skew_fails_validation(tmp_path, capsys):
    """The Clifford map reads trRT10 on increasing label words only, so a jet
    whose trRT10 has a symmetric part is refused before either route runs.
    The copied entry is also not minus the conjugate of its partner."""
    path = tmp_path / "jet.json"
    assert main(["jet", "random", "--n", "3", "--q", "2", "--seed", "5",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    body = json.loads(path.read_text())
    assert body["trRT10"][0][3] != []
    body["trRT10"][0][3] = body["trRT10"][3][0]
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(path)])
    assert code == 3
    assert [(c["name"], c["detail"]) for c in json.loads(out)["checks"] if not c["ok"]] == \
        [("clifford-forms-skew", "slot (0, 3): trRT10"), ("anti-reality[trRT10]", "slot (0, 3)")]


def test_an_aux_curvature_that_is_not_skew_is_named(tmp_path, capsys):
    """An RE with a symmetric part fails the same check at the same slot as
    trRT10 above, and only that check; its detail names RE."""
    pot, twist, path = tmp_path / "pot.json", tmp_path / "twist.json", tmp_path / "jet.json"
    pot.write_text(json.dumps(potential_to_dict(random_potential(3, 2, 5))))
    twist.write_text(json.dumps({f"z{j} zb{j}": [{"pi_pow": 1, "re": c, "im": "0"}]
                                 for j, c in ((1, "1/2"), (2, "-1/3"), (3, "1/4"))}))
    assert main(["jet", "build", "--potential", str(pot), "--potential-e", str(twist),
                 "--n", "3", "--q", "2", "--rk-e", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    body = json.loads(path.read_text())
    body["RE"][0][3] = body["RE"][3][0]
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(path)])
    assert code == 3
    assert [(c["name"], c["detail"]) for c in json.loads(out)["checks"] if not c["ok"]] == \
        [("clifford-forms-skew", "slot (0, 3): RE")]


def test_engine_terms_output(jet_file, capsys):
    code, out = run_captured(capsys, ["b1", "engine", "--jet", str(jet_file), "--terms"])
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "engine"
    assert "kernel-sandwich" in payload["terms"]


def test_identities_exit_codes(jet_file, capsys):
    code, out = run_captured(capsys, ["identities", "--jet", str(jet_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"] and payload["identities"]["ok"]


def test_model_fit_output(capsys):
    code, out = run_captured(capsys, ["model", "cp1-product", "--n", "2", "--q", "1",
                                      "--pmin", "2", "--pmax", "5", "--fit"])
    assert code == 0
    assert json.loads(out)["fit"] == ["1", "0", "-1"]


def test_model_csv_output(capsys):
    code, out = run_captured(capsys, ["model", "cp1-product", "--n", "1", "--q", "1",
                                      "--pmin", "2", "--pmax", "4", "--fit", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,trace"
    assert lines[1] == "2,1"
    assert lines[-1] == "fit,1;-1"


def test_model_usage_guard(capsys):
    assert main(["model", "cp1-product", "--n", "1", "--q", "0",
                 "--pmin", "1", "--pmax", "0"]) == 2


BAD_DIMENSIONS = {
    "random-q-above-n": ["jet", "random", "--n", "2", "--q", "3"],
    "build-negative-q": ["jet", "build", "--n", "2", "--q", "-1"],
    "random-n-zero": ["jet", "random", "--n", "0", "--q", "0"],
    "rrh-q-above-n": ["rrh", "--n", "3", "--q", "5"],
    "cp1-product-q-above-n": ["model", "cp1-product", "--n", "2", "--q", "3",
                              "--pmin", "2", "--pmax", "4"],
    "cp1-sections-negative-p": ["model", "cp1-sections", "--p", "-3"],
    "random-rk-e-zero": ["jet", "random", "--n", "2", "--q", "1", "--rk-e", "0"],
    "build-rk-e-zero": ["jet", "build", "--n", "2", "--q", "1", "--rk-e", "0"],
    "cp1-product-fit-too-few-samples": ["model", "cp1-product", "--n", "3", "--q", "1",
                                        "--pmin", "2", "--pmax", "3", "--fit"],
    "cp1-sections-zero-points": ["model", "cp1-sections", "--p", "3", "--points", "0"],
    "cp1-sections-negative-points": ["model", "cp1-sections", "--p", "3", "--points", "-2"],
    "random-flat-and-fs": ["jet", "random", "--n", "2", "--q", "1", "--flat", "--fs"],
}


@pytest.mark.parametrize("case", BAD_DIMENSIONS)
def test_bad_dimensions_are_usage_errors(tmp_path, capsys, case):
    argv = list(BAD_DIMENSIONS[case])
    out_path = tmp_path / "jet.json"
    if argv[0] == "jet":
        argv += ["--out", str(out_path)]
    if argv[:2] == ["jet", "build"]:
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps(potential_to_dict(fs_product_potential(2, 1))))
        argv += ["--potential", str(pot)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out_path.exists()


def test_rrh_output(capsys):
    code, out = run_captured(capsys, ["rrh", "--n", "3", "--q", "1", "--rk-e", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pn"] == "2"
    assert payload["pn1"] == "2"


def test_sections_witness(capsys):
    code, out = run_captured(capsys, ["model", "cp1-sections", "--p", "12"])
    assert code == 0
    assert json.loads(out)["max_deviation"] < 1e-9


def test_selftest(capsys):
    code, out = run_captured(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


def test_output_determinism(jet_file, capsys):
    argv = ["b1", "engine", "--jet", str(jet_file), "--terms"]
    _, first = run_captured(capsys, argv)
    _, second = run_captured(capsys, argv)
    assert first == second


# sha256 of each command's stdout, JET being the `jet random --n 2 --q 1 --seed 7` file
PINNED_STDOUT = {
    "b1 engine --jet JET":
        "38953ab8dc949bc1bd09db90f8796e6dbaf96fafe35b2f27c0e82e77e557191d",
    "b1 engine --jet JET --table":
        "75eadd9297c9a3a9a1405a14f92fd66af7a3a1575ca9802b510b2f142ffc5f0f",
    "b1 engine --jet JET --terms":
        "249b6ed6606a4186194ec9e54cfb3c61e17b43d4dcf0221132392028a50bedce",
    "b1 closed-form --jet JET":
        "2658118251d62727601e7bde47e4ab2a5eff4822cfeb66bfecf805b1802ec170",
    "b1 closed-form --jet JET --table":
        "e79f91c132d4e7f075f247f0716893bd88b9f8f269ad763e9370daaf66cb13af",
    "b1 crosscheck --jet JET":
        "963e9af8eedca730d992df19478fc5437f64ba11e97e073f41a66dcbc27508b8",
    "identities --jet JET":
        "7b38b2b57dda44b1ec1e6b07fb8ef932318c41895452994cde91bed7188acedd",
    "selftest":
        "e8a79f207f511d1ba5a25fda2f5c2c290dd6866cab6a22c9cbc36b57f0829756",
}


def test_output_bytes_are_pinned(jet_file, capsys):
    """Byte-for-byte output across versions, not just across two runs."""
    assert hashlib.sha256(jet_file.read_bytes()).hexdigest() == \
        "9ad56264e65827613753ef7a362bf885f88bbbc5c67fd5a20dbaaa744b5d2425"
    capsys.readouterr()
    for command, expected in PINNED_STDOUT.items():
        argv = [str(jet_file) if arg == "JET" else arg for arg in command.split()]
        code, out = run_captured(capsys, argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == expected, command


def test_table_rendering(jet_file, capsys):
    code, out = run_captured(capsys, ["b1", "closed-form", "--jet", str(jet_file),
                                      "--table"])
    assert code == 0
    assert "trace_pretty:" in out


def test_flat_and_fs_generators(tmp_path, capsys):
    for flag in ("--flat", "--fs"):
        path = tmp_path / f"jet{flag}.json"
        assert main(["jet", "random", "--n", "1", "--q", "0", flag,
                     "--out", str(path)]) == 0
    capsys.readouterr()
    # the flat model evaluates to the zero matrix with trace "0"
    path = tmp_path / "jet--flat.json"
    code, out = run_captured(capsys, ["b1", "closed-form", "--jet", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["trace_pretty"] == "0"
    assert all(all(cell == [] for cell in row)
               for row in payload["endo"]["matrix"])


def test_missing_file_is_usage_error(capsys):
    assert main(["b1", "closed-form", "--jet", "/nonexistent/path.json"]) == 2


MALFORMED = {
    "missing-RB": lambda body: body.pop("RB"),
    "truncated-RTX": lambda body: body["RTX"].pop(),
    "bad-n": lambda body: body.update(n="x"),
}


@pytest.mark.parametrize("case", [*MALFORMED, "not-json"])
def test_malformed_jet_is_validation_error(small_jet_body, tmp_path, capsys, case):
    path = tmp_path / "jet.json"
    if case == "not-json":
        path.write_text("{not json")
    else:
        body = copy.deepcopy(small_jet_body)
        MALFORMED[case](body)
        path.write_text(json.dumps(body))
    for route in ("closed-form", "engine", "crosscheck"):
        assert main(["b1", route, "--jet", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_tampered_jet_gets_a_fresh_id(small_jet_body, tmp_path, capsys):
    path = tmp_path / "jet.json"
    path.write_text(json.dumps(small_jet_body))
    code, out = run_captured(capsys, ["b1", "engine", "--jet", str(path)])
    assert code == 0 and json.loads(out)["jet_id"] == small_jet_body["jet_id"]
    body = copy.deepcopy(small_jet_body)
    # the validated corruption of test_crosscheck_mismatch_exit
    for k, l in ((0, 1), (1, 0)):
        body["dRL2"][k][l][0][1] = [{"pi_pow": 2, "re": "7", "im": "0"}]
        body["dRL2"][k][l][1][0] = [{"pi_pow": 2, "re": "-7", "im": "0"}]
    path.write_text(json.dumps(body))
    code, out = run_captured(capsys, ["b1", "engine", "--jet", str(path)])
    assert code == 0
    assert json.loads(out)["jet_id"] == jet_digest(body) != small_jet_body["jet_id"]


def test_degree_cap_below_the_engine_is_exit_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "jet.json"
    assert main(["jet", "random", "--n", "2", "--q", "1", "--seed", "5",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(oscillator, "DEFAULT_DEGREE_CAP", 3)
    assert main(["b1", "engine", "--jet", str(path)]) == 3
    assert capsys.readouterr().err == "error: term degree 4 exceeds cap 3\n"
    monkeypatch.setattr(oscillator, "DEFAULT_DEGREE_CAP", 4)
    assert main(["b1", "engine", "--jet", str(path)]) == 0


POTENTIAL_CASES = {
    "not-an-object": "[1, 2]",
    "bad-key": json.dumps({"z1 zb1": "1", "w2": "3"}),
    "index-out-of-range": json.dumps({"z1 zb1": "1", "z3": "1"}),
    "bad-coefficient": json.dumps({"z1 zb1": [{"pi_pow": 1.7, "re": "1", "im": "0"}]}),
    "exponent-coefficient": json.dumps({"z1 zb1": "1", "z1^2 zb1^2": "1e1000000"}),
    "not-json": "{not json",
    "not-real": json.dumps({"z1 zb1": "1", "z1^2 zb1": "1"}),
}


@pytest.mark.parametrize("case", POTENTIAL_CASES)
def test_malformed_potential_is_validation_error(tmp_path, capsys, case):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(potential_to_dict(fs_product_potential(2, 1))))
    bad = tmp_path / "bad.json"
    bad.write_text(POTENTIAL_CASES[case])
    for phi_l, phi_e in ((bad, None), (good, bad)):
        argv = ["jet", "build", "--potential", str(phi_l), "--n", "2", "--q", "1",
                "--out", str(tmp_path / "jet.json")]
        if phi_e is not None:
            argv += ["--potential-e", str(phi_e)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "jet.json").exists()


def test_crosscheck_requires_self_adjoint(small_jet_body, tmp_path, capsys, monkeypatch):
    path = tmp_path / "jet.json"
    path.write_text(json.dumps(small_jet_body))
    alg = ExteriorAlgebra(1)
    skew = alg.wedge(1)      # not self-adjoint
    sym = skew + skew.adjoint()

    for closed, engine, skewed in ((skew, skew, ["closed-form", "engine"]),
                                   (sym, skew, ["engine"])):
        monkeypatch.setattr(cli, "b1_formula", lambda jet, check, e=closed:
                            B1Result(e, "closed-form"))
        monkeypatch.setattr(cli, "b1_engine", lambda jet, check, e=engine:
                            B1Result(e, "engine"))
        code, out = run_captured(capsys, ["b1", "crosscheck", "--jet", str(path)])
        payload = json.loads(out)
        assert code == 4
        assert payload["match"] is (closed == engine)
        assert payload["not_self_adjoint"] == skewed
