import copy
import json

import pytest

from bergman.cli import main
from bergman.geometry import fs_product_potential, jet_digest, potential_to_dict


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


def test_bad_degree_cap_is_usage_error(jet_file, monkeypatch, capsys):
    for bad in ("junk", "-3"):
        monkeypatch.setenv("BERGMAN_DEGREE_CAP", bad)
        assert main(["b1", "engine", "--jet", str(jet_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BERGMAN_DEGREE_CAP") and err.count("\n") == 1, err
