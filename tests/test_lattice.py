import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarity_mc import (CapExceeded, Concept, Filter, Ideal, LEModel,
                         Polarity, all_filters, all_ideals, box_op,
                         concept_lattice, dia_op, enumerate_formulas,
                         filter_ideal_extension, lift_kripke,
                         modal_equiv_oracle, principal_filter,
                         principal_ideal, validate_model)
from polarity_mc.lattice import operator_maps
from polarity_mc.randgen import random_kripke, random_le_model
from polarity_mc.semantics import sat_sets

from oracles import (box_map_reference, brute_concepts, brute_filters,
                     dia_map_reference, set_down)
from test_model import polarities


# --- concept lattice construction -------------------------------------------

def test_two_concepts_no_incidence():
    lat = concept_lattice(Polarity.make(["a"], ["x"], []))
    assert len(lat) == 2
    assert lat.bottom == Concept(frozenset(), frozenset({"x"}))
    assert lat.top == Concept(frozenset({"a"}), frozenset())


def test_fig1_lattice_is_three_chain(fig1_m1):
    lat = concept_lattice(fig1_m1.polarity)
    extents = [tuple(sorted(c.extent)) for c in lat.concepts]
    assert extents == [(), ("b1",), ("a1", "b1")]
    assert [tuple(sorted(c.intent)) for c in lat.concepts] == \
        [("x1", "y1"), ("x1",), ()]


def test_full_incidence_collapses():
    pol = Polarity.make(["a", "b"], ["x", "y"],
                        [(a, x) for a in ("a", "b") for x in ("x", "y")])
    lat = concept_lattice(pol)
    assert len(lat) == 1
    assert lat.top == Concept(frozenset({"a", "b"}), frozenset({"x", "y"}))


@given(polarities())
def test_lattice_matches_brute_force(pol):
    lat = concept_lattice(pol)
    assert {(c.extent, c.intent) for c in lat.concepts} == brute_concepts(pol)


def test_lattice_cap():
    pol = Polarity.make([f"a{i}" for i in range(5)], [f"x{i}" for i in range(5)], [])
    with pytest.raises(CapExceeded):
        concept_lattice(pol, cap=9)


@given(polarities())
def test_meet_join_tables_agree_with_formulas(pol):
    lat = concept_lattice(pol)
    for c, d in itertools.product(lat.concepts, repeat=2):
        meet = lat.meet(c, d)
        join = lat.join(c, d)
        assert meet.extent == c.extent & d.extent
        assert join.intent == c.intent & d.intent


def test_meet_join_on_lifted_kripke():
    # Lifted models have every subset as an extent (2^n concepts): check the
    # order, and meet and join cell by cell, the join against down(c & d intents).
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(2):
            pol = lift_kripke(random_kripke(rng, max_worlds=n)).polarity
            lat = concept_lattice(pol)
            assert len(lat) == 2 ** len(pol.objects)
            assert [c.extent for c in lat.concepts] == sorted(
                (c.extent for c in lat.concepts), key=lambda e: (len(e), tuple(sorted(e))))
            for c in lat.concepts:
                for d in lat.concepts:
                    assert lat.meet(c, d).extent == c.extent & d.extent
                    assert lat.join(c, d).extent == set_down(pol, c.intent & d.intent)


@given(polarities())
def test_covers_match_extent_order(pol):
    # i is covered by j when extent i < extent j with no extent strictly between
    lat = concept_lattice(pol)
    ext = [c.extent for c in lat.concepts]
    n = len(ext)
    expected = [(i, j) for i in range(n) for j in range(n) if ext[i] < ext[j]
                and not any(ext[i] < ext[k] < ext[j] for k in range(n))]
    assert lat.covers() == expected


@given(polarities())
def test_join_meet_generators(pol):
    # every concept is the join of object generators below it and the meet
    # of attribute generators above it
    lat = concept_lattice(pol)
    for c in lat.concepts:
        gens = [lat.object_generator(a) for a in c.extent]
        join = lat.bottom
        for g in gens:
            join = lat.join(join, g)
        assert join == c
        meets = [lat.attribute_generator(x) for x in c.intent]
        meet = lat.top
        for g in meets:
            meet = lat.meet(meet, g)
        assert meet == c


# --- complex-algebra operators -----------------------------------------------

def test_box_empty_relation_bottom(fig1_m2):
    lat = concept_lattice(fig1_m2.polarity)
    assert box_op(fig1_m2, lat.bottom) == lat.bottom
    # any concept with nonempty intent boxes to bottom when R_box is empty
    for c in lat.concepts:
        if c.intent:
            assert box_op(fig1_m2, c) == lat.bottom


def test_dia_bottom_is_bottom(all_fixture_models):
    # the normality axiom dia bot |- bot, operator form
    for model in all_fixture_models.values():
        lat = concept_lattice(model.polarity)
        assert dia_op(model, lat.bottom) == lat.bottom


def test_operators_preserve_meets_and_joins(battery_models):
    for model in battery_models[:30]:
        lat = concept_lattice(model.polarity)
        if len(lat) > 16:
            continue
        for c, d in itertools.product(lat.concepts, repeat=2):
            assert box_op(model, lat.meet(c, d)) == \
                lat.meet(box_op(model, c), box_op(model, d))
            assert dia_op(model, lat.join(c, d)) == \
                lat.join(dia_op(model, c), dia_op(model, d))


def test_operator_maps_match_pair_sets(all_fixture_models, battery_models):
    # box/dia index maps against the same operators read off the R_box and
    # R_dia pair sets, cell by cell
    rng = random.Random(11)
    lifted = [lift_kripke(random_kripke(rng, max_worlds=n))
              for n in range(1, 7) for _ in range(3)]
    models = list(all_fixture_models.values()) + battery_models + lifted
    for model in models:
        lat = concept_lattice(model.polarity)
        box_map, dia_map = operator_maps(model, lat)
        assert box_map == box_map_reference(model, lat)
        assert dia_map == dia_map_reference(model, lat)


def _incompatible_model():
    # I is empty, so the stable object sets are {} and {a, b}; the R_box
    # column of x and the R_dia column of a are {a} and {x}, not stable
    pol = Polarity.make(["a", "b"], ["x", "y"], [])
    return LEModel.make(pol, [("a", "x"), ("a", "y")], [("x", "a"), ("x", "b")],
                        {"p": Concept(frozenset({"a", "b"}), frozenset())})


def test_invalid_model_operators_raise():
    model = _incompatible_model()
    assert {v.kind for v in validate_model(model)} == {"r_box_col", "r_dia_col"}
    lat = concept_lattice(model.polarity)
    with pytest.raises(ValueError, match="not Galois-stable"):
        operator_maps(model, lat)
    with pytest.raises(ValueError, match="not Galois-stable"):
        filter_ideal_extension(model)
    with pytest.raises(ValueError, match="not Galois-stable"):
        modal_equiv_oracle(model, model)
    # the diamond alone: a compatible R_box leaves only dia unstable
    only_dia = LEModel(model.polarity, frozenset(), model.r_dia, model.valuation)
    with pytest.raises(ValueError, match="dia of concept 1"):
        operator_maps(only_dia, lat)


def test_operators_land_on_concepts(battery_models):
    for model in battery_models[:30]:
        pol = model.polarity
        lat = concept_lattice(pol)
        for c in lat.concepts:
            for image in (box_op(model, c), dia_op(model, c)):
                assert pol.up(image.extent) == image.intent
                assert pol.down(image.intent) == image.extent


# --- filters and ideals -------------------------------------------------------

def test_filters_of_two_element_lattice(fig1_m2):
    lat = concept_lattice(fig1_m2.polarity)
    top, bot = lat.top, lat.bottom
    filters = all_filters(lat)
    assert [f.members for f in filters] == [frozenset({top}), frozenset({bot, top})]
    ideals = all_ideals(lat)
    assert [j.members for j in ideals] == [frozenset({bot}), frozenset({bot, top})]


def test_filters_of_one_element_lattice():
    lat = concept_lattice(Polarity.make(["a"], ["x"], [("a", "x")]))
    assert len(lat) == 1
    assert len(all_filters(lat)) == 1
    assert len(all_ideals(lat)) == 1


def test_filters_of_three_chain(fig1_m1):
    lat = concept_lattice(fig1_m1.polarity)
    assert len(lat) == 3
    assert len(all_filters(lat)) == 3
    assert len(all_ideals(lat)) == 3


def test_filters_match_brute_force(battery_models):
    checked = 0
    for model in battery_models:
        lat = concept_lattice(model.polarity)
        if len(lat) > 8:
            continue
        # ideals are the filters of the dual order, intent inclusion
        for found, by in ((all_filters(lat), [c.extent for c in lat.concepts]),
                          (all_ideals(lat), [c.intent for c in lat.concepts])):
            expected = sorted(brute_filters(by), key=lambda s: (len(s), sorted(s)))
            assert [f.members for f in found] == \
                [frozenset(lat.concepts[i] for i in s) for s in expected]
        checked += 1
    assert checked >= 10


def test_filter_cap():
    # contranominal scale: the concept lattice is the full powerset of A
    names = ["a0", "a1", "a2", "a3"], ["x0", "x1", "x2", "x3"]
    pol = Polarity.make(names[0], names[1],
                        [(a, x) for a in names[0] for x in names[1]
                         if a[1] != x[1]])
    lat = concept_lattice(pol)
    assert len(lat) == 16
    with pytest.raises(CapExceeded, match="16 concepts, more than the filter cap 12"):
        all_filters(lat, cap=12)


def test_principal_filter_examples(fig1_m1):
    lat = concept_lattice(fig1_m1.polarity)
    assert principal_filter(lat, lat.top).members == frozenset({lat.top})
    assert principal_ideal(lat, lat.bottom).members == frozenset({lat.bottom})
    gen = lat.object_generator("b1")
    members = principal_filter(lat, gen).members
    assert members == {Concept(frozenset({"b1"}), frozenset({"x1"})),
                       Concept(frozenset({"a1", "b1"}), frozenset())}


def test_principal_of_foreign_concept_rejected(fig1_m1):
    lat = concept_lattice(fig1_m1.polarity)
    with pytest.raises(ValueError):
        principal_filter(lat, Concept(frozenset({"a1"}), frozenset()))


# --- filter-ideal extension ---------------------------------------------------

def test_fi_extension_fig1_m2_incidence(fig1_m2):
    ext = filter_ideal_extension(fig1_m2)
    model = ext.model
    assert model.objects == ("F0", "F1")
    assert model.attributes == ("J0", "J1")
    # F0 = {top}, F1 = {bot, top}; J0 = {bot}, J1 = {bot, top}
    assert model.polarity.incidence == {("F0", "J1"), ("F1", "J0"), ("F1", "J1")}


def test_fi_extension_validates(fig1_m1, fig1_m2, chain3, battery_models):
    models = [fig1_m1, fig1_m2, chain3]
    for model in battery_models:
        if len(models) >= 9:
            break
        lat = concept_lattice(model.polarity)
        if len(lat) <= 8:
            models.append(model)
    for model in models:
        ext = filter_ideal_extension(model)
        assert validate_model(ext.model) == []


def test_truth_lemma_on_fixtures(fig1_m1, fig1_m2, chain3):
    formulas = enumerate_formulas(["p", "q"], 2)
    for model in (fig1_m1, fig1_m2, chain3):
        ext = filter_ideal_extension(model)
        memo_base, memo_ext = {}, {}
        for phi in formulas:
            base = sat_sets(model, phi, memo_base)
            lifted = sat_sets(ext.model, phi, memo_ext)
            for a in model.objects:
                assert (a in base[0]) == (ext.object_image[a] in lifted[0])
            for x in model.attributes:
                assert (x in base[1]) == (ext.attribute_image[x] in lifted[1])


def test_filter_satisfaction_lemma(fig1_m1, chain3):
    # satisfaction at a filter point is membership of the formula's concept
    formulas = enumerate_formulas(["p", "q"], 2)
    for model in (fig1_m1, chain3):
        ext = filter_ideal_extension(model)
        memo_base, memo_ext = {}, {}
        from polarity_mc.semantics import extension as ext_of
        for phi in formulas:
            concept = ext_of(model, phi, memo_base)
            lifted = sat_sets(ext.model, phi, memo_ext)
            for i, f in enumerate(ext.filters):
                assert (f"F{i}" in lifted[0]) == (concept in f.members)
            for i, j in enumerate(ext.ideals):
                assert (f"J{i}" in lifted[1]) == (concept in j.members)


def test_fi_extension_valuation_entries_are_concepts(fig1_m1):
    ext = filter_ideal_extension(fig1_m1)
    pol = ext.model.polarity
    for p, c in ext.model.valuation.items():
        assert pol.up(c.extent) == c.intent, p
        assert pol.down(c.intent) == c.extent, p
