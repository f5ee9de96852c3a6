import json
import os

import pytest

from polarity_mc import validate_model
from polarity_mc.cli import main
from polarity_mc.modelio import load_model

from conftest import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "parse", "--formula", "box(p|q)&dia r")
    assert code == 0
    assert out.strip() == "box(p | q) & dia r"


def test_parse_json(capsys):
    code, out, _ = run_cli(capsys, "parse", "--formula", "box p", "--json")
    assert code == 0
    assert json.loads(out) == {"box": {"var": "p"}}


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "parse", "--formula", "p &")
    assert code == 2
    assert "error:" in err and "1:4" in err


def test_sat_paper_example(capsys):
    code, out, _ = run_cli(capsys, "sat", "--model", fixture_path("fig1_m2.json"),
                           "--point", "x2", "--formula", "q", "--side", "x")
    assert code == 0
    assert out.strip() == "true"


def test_sat_false_exit_1(capsys):
    code, out, _ = run_cli(capsys, "sat", "--model", fixture_path("fig1_m2.json"),
                           "--point", "a2", "--formula", "bot", "--side", "a")
    assert code == 1
    assert out.strip() == "false"


def test_sat_unknown_point_exit_2(capsys):
    code, _, err = run_cli(capsys, "sat", "--model", fixture_path("fig1_m2.json"),
                           "--point", "zz", "--formula", "q", "--side", "x")
    assert code == 2
    assert "error:" in err


def test_check_sequent(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", fixture_path("fig1_m1.json"),
                           "--sequent", "p |- q")
    assert code == 1
    assert out.strip() == "false"
    code, out, _ = run_cli(capsys, "check", "--model", fixture_path("fig1_m1.json"),
                           "--sequent", "q |- p")
    assert code == 0
    assert out.strip() == "true"


def test_translate(capsys):
    code, out, _ = run_cli(capsys, "translate", "--formula", "dia p", "--sort", "m")
    assert code == 0
    assert out.strip() == "forall g0:G. (PA_p(g0) -> Rdia(m,g0))"
    code, out, _ = run_cli(capsys, "translate", "--formula", "box p", "--sort", "g")
    assert out.strip() == "forall m0:M. (PX_p(m0) -> Rbox(g,m0))"


def test_lattice_text_and_dot(capsys, tmp_path):
    dot = str(tmp_path / "hasse.dot")
    code, out, _ = run_cli(capsys, "lattice", "--model",
                           fixture_path("fig1_m1.json"), "--dot", dot)
    assert code == 0
    assert out.startswith("3 concepts")
    assert "C0 = ({}, {x1,y1})" in out
    assert "C0 < C1" in out and "C1 < C2" in out
    text = open(dot).read()
    assert text.startswith("digraph lattice {")
    assert "C0 -> C1;" in text


def test_sim_and_bisim_json(capsys):
    code, out, _ = run_cli(capsys, "sim", "--left", fixture_path("fig1_m1.json"),
                           "--right", fixture_path("fig1_m2.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert ["a1", "a2"] in data["S"]
    code, out, _ = run_cli(capsys, "bisim", "--left", fixture_path("fig1_m1.json"),
                           "--right", fixture_path("fig1_m2.json"), "--json")
    data = json.loads(out)
    assert ["a1", "a2"] not in data["S"]


def test_bisimilar_text(capsys):
    code, out, _ = run_cli(capsys, "bisimilar",
                           "--left", fixture_path("fig1_m1.json"),
                           "--right", fixture_path("fig1_m2.json"))
    assert code == 0
    assert "a1 <-> a2" in out


def test_hm_verify_exit_0(capsys):
    code, out, _ = run_cli(capsys, "hm-verify",
                           "--left", fixture_path("fig1_m1.json"),
                           "--right", fixture_path("fig1_m2.json"))
    assert code == 0
    assert out.startswith("ok")


def test_fi_extend_round_trip(capsys, tmp_path):
    out_path = str(tmp_path / "fig1_m2_fi.json")
    code, out, _ = run_cli(capsys, "fi-extend", "--model",
                           fixture_path("fig1_m2.json"), "--out", out_path)
    assert code == 0
    assert "2 filters, 2 ideals" in out
    # the written extension is a valid model usable by other subcommands
    model = load_model(out_path)
    assert validate_model(model) == []
    legend = json.loads(open(out_path + ".legend.json").read())
    assert set(legend["filters"]) == {"F0", "F1"}
    assert legend["object_image"]["a2"] in {"F0", "F1"}
    code, out, _ = run_cli(capsys, "validate", "--model", out_path)
    assert code == 0


def test_lift_writes_valid_model(capsys, tmp_path):
    out_path = str(tmp_path / "lifted.json")
    code, out, _ = run_cli(capsys, "lift", "--kripke",
                           fixture_path("kripke_loop.json"), "--out", out_path)
    assert code == 0
    lifted = load_model(out_path)
    assert validate_model(lifted) == []
    assert set(lifted.objects) == {"w0_A", "w1_A"}


def test_ultrapower_output(capsys):
    code, out, _ = run_cli(capsys, "ultrapower", "--model",
                           fixture_path("fig1_m2.json"), "--k", "2", "--k0", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["iso"] == {"[a2]": "a2", "[x2]": "x2"}
    assert doc["model"]["A"] == ["[a2]"]


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "A": ["a1", "b1"], "X": ["x1", "y1"], "I": [["b1", "x1"]],
        "R_box": [], "R_dia": [],
        "V": {"p": {"extent": ["a1"], "intent": []}}}))
    code, out, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "valuation[p]" in out


def test_invalid_model_rejected_by_other_commands(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "A": ["a1", "b1"], "X": ["x1", "y1"], "I": [["b1", "x1"]],
        "V": {"p": {"extent": ["a1"], "intent": []}}}))
    code, _, err = run_cli(capsys, "sat", "--model", str(path),
                           "--point", "a1", "--formula", "p", "--side", "a")
    assert code == 2
    assert "not a valid LE-model" in err


def test_missing_intent_warns_on_stderr(capsys, tmp_path):
    path = tmp_path / "warn.json"
    path.write_text(json.dumps({
        "A": ["a1", "b1"], "X": ["x1", "y1"], "I": [["b1", "x1"]],
        "V": {"p": {"extent": ["a1"]}}}))
    code, out, err = run_cli(capsys, "validate", "--model", str(path))
    assert code == 0
    assert "warning:" in err and "not Galois-closed" in err


def test_caps_env_override(capsys, monkeypatch):
    monkeypatch.setenv("POLARITY_MC_CAPS", "lattice=2")
    code, _, err = run_cli(capsys, "lattice", "--model", fixture_path("fig1_m1.json"))
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("POLARITY_MC_CAPS", "bogus=3")
    code, _, err = run_cli(capsys, "lattice", "--model", fixture_path("fig1_m1.json"))
    assert code == 2
    assert "unknown cap" in err


def test_outputs_byte_identical_across_runs(capsys):
    first = run_cli(capsys, "lattice", "--model", fixture_path("chain3.json"))
    second = run_cli(capsys, "lattice", "--model", fixture_path("chain3.json"))
    assert first == second
    first = run_cli(capsys, "sim", "--left", fixture_path("fig1_m1.json"),
                    "--right", fixture_path("fig1_m2.json"), "--json")
    second = run_cli(capsys, "sim", "--left", fixture_path("fig1_m1.json"),
                     "--right", fixture_path("fig1_m2.json"), "--json")
    assert first == second


def test_validate_rejects_malformed_schema(capsys, tmp_path):
    from test_model import MALFORMED_MODELS
    for name, data in sorted(MALFORMED_MODELS.items()):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--model", str(path))
        assert code == 2, name
        assert out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1, name
