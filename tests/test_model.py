import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarity_mc import (Concept, KripkeModel, LEModel, Polarity, SortError,
                         enumerate_formulas, galois_down, galois_up,
                         lift_kripke, rel_preimage, validate_model)
from polarity_mc.modelio import (ModelFormatError, kripke_from_dict,
                                 load_model, model_from_dict, model_to_dict)
from polarity_mc.randgen import random_kripke, random_le_model
from polarity_mc.semantics import sat_sets

from oracles import (kripke_truth, lift_kripke_reference, set_down, set_up,
                     validate_reference)


# --- Galois maps -----------------------------------------------------------

def test_galois_up_fig1(fig1_m1):
    pol = fig1_m1.polarity
    assert galois_up(pol, {"b1"}) == {"x1"}
    assert galois_up(pol, set()) == {"x1", "y1"}
    assert galois_up(pol, {"a1", "b1"}) == set()


def test_galois_down_fig1(fig1_m1):
    pol = fig1_m1.polarity
    assert galois_down(pol, {"x1"}) == {"b1"}
    assert galois_down(pol, set()) == {"a1", "b1"}


def test_galois_unknown_identifier(fig1_m1):
    with pytest.raises(SortError):
        galois_up(fig1_m1.polarity, {"nope"})
    with pytest.raises(SortError):
        galois_down(fig1_m1.polarity, {"a1"})  # object used at attribute sort


@st.composite
def polarities(draw):
    n_a = draw(st.integers(0, 4))
    n_x = draw(st.integers(0, 4))
    objs = tuple(f"a{i}" for i in range(n_a))
    attrs = tuple(f"x{i}" for i in range(n_x))
    pairs = [(a, x) for a in objs for x in attrs]
    inc = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Polarity.make(objs, attrs, inc)


@given(polarities(), st.data())
def test_galois_connection_laws(pol, data):
    objs = data.draw(st.sets(st.sampled_from(pol.objects))) if pol.objects else set()
    attrs = data.draw(st.sets(st.sampled_from(pol.attributes))) if pol.attributes else set()
    up = pol.up(objs)
    # adjunction: Y <= B^up iff B <= Y^down
    assert (attrs <= up) == (objs <= pol.down(attrs))
    # closure laws
    assert objs <= pol.down(up)
    assert pol.up(pol.down(up)) == up


@given(polarities(), st.data())
def test_galois_maps_match_incidence_pairs(pol, data):
    objs = data.draw(st.sets(st.sampled_from(pol.objects))) if pol.objects else set()
    attrs = data.draw(st.sets(st.sampled_from(pol.attributes))) if pol.attributes else set()
    assert pol.up(objs) == galois_up(pol, objs) == set_up(pol, objs)
    assert pol.down(attrs) == galois_down(pol, attrs) == set_down(pol, attrs)


def test_namespace_disjointness():
    with pytest.raises(SortError):
        Polarity.make(["a"], ["a"], [])
    with pytest.raises(ValueError):
        Polarity.make(["a", "a"], ["x"], [])


# --- rel_preimage -----------------------------------------------------------

def test_rel_preimage_empty_relation(fig1_m2):
    assert rel_preimage(fig1_m2, "box", {"x2"}, 0) == set()


def test_rel_preimage_empty_targets(fig1_m1):
    assert rel_preimage(fig1_m1, "box", set(), 0) == {"a1", "b1"}
    assert rel_preimage(fig1_m1, "box", set(), 1) == {"x1", "y1"}
    assert rel_preimage(fig1_m1, "dia", set(), 0) == {"x1", "y1"}


def test_rel_preimage_of_incidence_is_galois(fig1_m1):
    pol = fig1_m1.polarity
    for targets in [set(), {"x1"}, {"x1", "y1"}]:
        assert rel_preimage(fig1_m1, "I", targets, 0) == galois_down(pol, targets)
    for targets in [set(), {"b1"}, {"a1", "b1"}]:
        assert rel_preimage(fig1_m1, "I", targets, 1) == galois_up(pol, targets)


def test_rel_preimage_sort_mismatch(fig1_m1):
    with pytest.raises(SortError):
        rel_preimage(fig1_m1, "box", {"b1"}, 0)  # objects in the codomain slot
    with pytest.raises(SortError):
        rel_preimage(fig1_m1, "dia", {"a1"}, 1)  # dia's domain sort is attributes


# --- validate_model ---------------------------------------------------------

def test_validate_fig1_literal_clean(fig1_m1_literal):
    # Empty relations are I-compatible on this polarity, valuations are concepts.
    assert validate_model(fig1_m1_literal) == []


def test_validate_fixtures_clean(all_fixture_models):
    for name, model in all_fixture_models.items():
        assert validate_model(model) == [], name


def test_validate_non_concept_valuation(fig1_m1):
    bad = LEModel.make(fig1_m1.polarity, [], [], {
        "p": Concept(frozenset({"a1"}), frozenset()),
    })
    report = validate_model(bad)
    assert len(report) == 1
    v = report[0]
    assert v.kind == "valuation" and v.subject == "p"
    # {a1}^up^down = {a1,b1} != {a1}
    assert "a1" in str(v)


def test_validate_incompatible_relation():
    # Full incidence: the empty set is not Galois-stable, so a relation with
    # an empty row plus a nonempty one cannot be I-compatible.
    pol = Polarity.make(["a", "b"], ["x"], [("a", "x"), ("b", "x")])
    model = LEModel.make(pol, [("a", "x")], [], {})
    report = validate_model(model)
    assert any(v.kind == "r_box_col" for v in report) or \
        any(v.kind == "r_box_row" for v in report)


def _unrepaired_model(rng):
    """Random relations and valuation pairs, neither repaired nor closed, on
    carriers declared out of name order."""
    objs = [f"a{i}" for i in range(rng.randint(0, 6))]
    attrs = [f"x{i}" for i in range(rng.randint(0, 6))]
    rng.shuffle(objs)
    rng.shuffle(attrs)
    density = rng.random()
    pairs = [(a, x) for a in objs for x in attrs]
    pol = Polarity.make(objs, attrs, [q for q in pairs if rng.random() < density])
    r_box = [q for q in pairs if rng.random() < density]
    r_dia = [(x, a) for a, x in pairs if rng.random() < density]
    valuation = {p: Concept(frozenset(a for a in objs if rng.random() < 0.5),
                            frozenset(x for x in attrs if rng.random() < 0.5))
                 for p in ("p", "q", "r")}
    return LEModel.make(pol, r_box, r_dia, valuation)


def test_validate_matches_set_reference():
    # The whole report, in order, against the pair-set transcription.
    rng = random.Random(20251018)
    reported = 0
    for _ in range(400):
        model = _unrepaired_model(rng)
        report = [(v.kind, v.subject, v.found, v.expected) for v in validate_model(model)]
        assert report == validate_reference(model)
        reported += len(report)
    assert reported > 1000  # the battery exercises the violation paths


# --- Kripke lifting ---------------------------------------------------------

def test_lift_single_reflexive_world():
    k = KripkeModel.make(["w"], [("w", "w")], {"p": ["w"]})
    lifted = lift_kripke(k)
    assert lifted.objects == ("w_A",)
    assert lifted.attributes == ("w_X",)
    assert lifted.polarity.incidence == frozenset()
    assert lifted.r_box == frozenset()
    assert lifted.valuation["p"] == Concept(frozenset({"w_A"}), frozenset())
    assert validate_model(lifted) == []


def test_lift_empty_relation_gives_full_rbox():
    k = KripkeModel.make(["u", "v"], [], {"p": []})
    lifted = lift_kripke(k)
    assert lifted.r_box == frozenset(
        (w + "_A", w2 + "_X") for w in ("u", "v") for w2 in ("u", "v"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 12),
       st.sampled_from([0.0, 0.1, 0.4, 0.9, 1.0]))
def test_lift_matches_reference(seed, n_worlds, density):
    k = random_kripke(random.Random(seed), max_worlds=n_worlds, density=density)
    lifted, want = lift_kripke(k), lift_kripke_reference(k)
    assert lifted == want
    assert lifted.r_dia == want.r_dia
    # Concept equality reads extents only; compare the intents as well.
    assert {p: (c.extent, c.intent) for p, c in lifted.valuation.items()} == \
        {p: (c.extent, c.intent) for p, c in want.valuation.items()}
    assert list(lifted.valuation) == sorted(k.valuation)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 4))
def test_lift_agrees_with_classical_semantics(seed, n_worlds):
    rng = random.Random(seed)
    k = random_kripke(rng, max_worlds=n_worlds)
    lifted = lift_kripke(k)
    assert validate_model(lifted) == []
    memo = {}
    for phi in enumerate_formulas(["p", "q"], 2):
        truth = kripke_truth(k, phi)
        support, described = sat_sets(lifted, phi, memo)
        assert support == frozenset(w + "_A" for w in truth)
        # the attribute side is the classical complement
        assert described == frozenset(w + "_X" for w in k.worlds if w not in truth)


def test_lift_agrees_with_classical_semantics_depth3(kripke_loop, kripke_fork):
    # full depth-3 enumeration against the classical evaluator, on the
    # shipped Kripke fixtures
    from oracles import ClauseEvaluator
    for k in (kripke_loop, kripke_fork):
        lifted = lift_kripke(k)
        ev = ClauseEvaluator(lifted)
        memo = {}
        for phi in enumerate_formulas(["p", "q"], 3):
            truth = kripke_truth(k, phi, memo)
            support = ev.object_names(ev.sets(phi)[0])
            assert support == frozenset(w + "_A" for w in truth)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_lift_of_random_kripke_validates(seed):
    rng = random.Random(seed)
    assert validate_model(lift_kripke(random_kripke(rng))) == []


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_random_le_models_validate(seed):
    rng = random.Random(seed)
    assert validate_model(random_le_model(rng)) == []


# --- file format -----------------------------------------------------------

def test_model_round_trip(fig1_m1, tmp_path):
    data = model_to_dict(fig1_m1)
    again = model_from_dict(data)
    assert again == fig1_m1


def test_model_missing_intent_closed_with_warning():
    warnings = []
    data = {"A": ["a", "b"], "X": ["x"], "I": [["a", "x"], ["b", "x"]],
            "R_box": [], "R_dia": [],
            "V": {"p": {"extent": ["a"]}}}
    model = model_from_dict(data, warn=warnings.append)
    assert model.valuation["p"] == Concept(frozenset({"a", "b"}), frozenset({"x"}))
    assert len(warnings) == 1 and "not Galois-closed" in warnings[0]


def test_model_missing_intent_no_warning_when_closed():
    warnings = []
    data = {"A": ["a", "b"], "X": ["x"], "I": [["a", "x"]],
            "V": {"p": {"extent": ["a"]}}}
    model = model_from_dict(data, warn=warnings.append)
    assert warnings == []
    assert model.valuation["p"].intent == frozenset({"x"})


def test_model_format_errors(tmp_path):
    with pytest.raises(ModelFormatError):
        model_from_dict({"A": ["a"], "X": ["x"]})  # no I
    with pytest.raises(ModelFormatError):
        model_from_dict({"A": ["a"], "X": ["x"], "I": [["a"]], "V": {}})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(str(path))


def _model_dict(**changes):
    data = {"A": ["a", "b"], "X": ["x"], "I": [["a", "x"]], "R_box": [], "R_dia": [],
            "V": {"p": {"extent": ["a"], "intent": ["x"]}}}
    data.update(changes)
    return data


MALFORMED_MODELS = {
    "extent string": _model_dict(V={"p": {"extent": "ab"}}),
    "intent string": _model_dict(V={"p": {"extent": ["a"], "intent": "x"}}),
    "integer object": _model_dict(A=["a", "b", 1]),
    "null attribute": _model_dict(X=["x", None]),
    "array attribute": _model_dict(X=["x", ["y"]]),
    "integer in I": _model_dict(I=[["a", "x"], ["b", 1]]),
    "null in R_box": _model_dict(R_box=[[None, "x"]]),
    "array in R_dia": _model_dict(R_dia=[[["x"], "a"]]),
    "R_box string": _model_dict(R_box="ax"),
    "integer in extent": _model_dict(V={"p": {"extent": [1]}}),
    "null in intent": _model_dict(V={"p": {"extent": ["a"], "intent": [None]}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_model_schema_is_strict(name):
    with pytest.raises(ModelFormatError):
        model_from_dict(MALFORMED_MODELS[name])


@pytest.mark.parametrize("data", [
    {"W": ["w", 1], "R": [], "V": {}},
    {"W": ["w"], "R": [["w", None]], "V": {}},
    {"W": ["w"], "R": "ww", "V": {}},
    {"W": ["w"], "R": [], "V": {"p": [0]}},
])
def test_kripke_schema_is_strict(data):
    with pytest.raises(ModelFormatError):
        kripke_from_dict(data)


def test_kripke_from_dict_rejects_bad_valuation():
    with pytest.raises(ModelFormatError):
        kripke_from_dict({"W": ["w"], "R": [], "V": {"p": "w"}})
