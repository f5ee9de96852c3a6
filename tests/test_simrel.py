import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarity_mc import (CapExceeded, Concept, LEModel, Polarity,
                         bisimilar_points, enumerate_formulas,
                         filter_ideal_extension, greatest_bisimulation,
                         greatest_simulation, hm_check, is_bisimulation,
                         is_simulation, lift_kripke, m_saturation_witness,
                         modal_equiv_oracle, parse_formula,
                         ultrapower_principal, validate_model)
from polarity_mc.formula import BOT, TOP, Var
from polarity_mc.fol import G, M, AtomI, AtomRbox, AtomRdia, PredA, PredX, st_g
from polarity_mc.randgen import random_kripke, random_le_model, random_sim_pair
from polarity_mc.semantics import SortedValuation, fol_eval, sat_sets, satisfies_a
from polarity_mc.simrel import SimPair, greatest_simulation_rounds

from oracles import (all_bisimulations_union, all_simulations_union,
                     enumeration_relations, greatest_classical_bisim,
                     is_classical_bisim, kpower_functions,
                     simulation_violations_reference)

EMPTY = SimPair(frozenset(), frozenset())


def identity_pair(model):
    return SimPair(frozenset((a, a) for a in model.objects),
                   frozenset((x, x) for x in model.attributes))


def lifted_pair(z):
    return SimPair(frozenset((w + "_A", v + "_A") for w, v in z),
                   frozenset((w + "_X", v + "_X") for w, v in z))


# --- clause checking -----------------------------------------------------------

def test_empty_pair_is_simulation(fig1_m1, fig1_m2):
    assert is_simulation(fig1_m1, fig1_m2, EMPTY) == []
    assert is_bisimulation(fig1_m1, fig1_m2, EMPTY) == []


def test_identity_is_simulation(all_fixture_models):
    for model in all_fixture_models.values():
        z = identity_pair(model)
        assert is_simulation(model, model, z) == []
        assert is_bisimulation(model, model, z) == []


def test_fig1_forced_t_pair_breaks_clause_two(fig1_m1, fig1_m2):
    # The example's contradiction: y1 T x2 violates clause 2 on q.
    z = SimPair(frozenset({("a1", "a2")}), frozenset({("y1", "x2")}))
    violations = is_simulation(fig1_m1, fig1_m2, z)
    assert any(v.clause == 2 and v.pair == ("y1", "x2") and v.prop == "q"
               for v in violations)


def test_sort_mismatch_rejected(fig1_m1, fig1_m2):
    with pytest.raises(ValueError):
        is_simulation(fig1_m1, fig1_m2, SimPair(frozenset({("x1", "a2")}),
                                                frozenset()))


def test_vocabulary_mismatch_rejected(fig1_m1):
    pol = Polarity.make(["a"], ["x"], [])
    other = LEModel.make(pol, [], [], {"r": Concept(frozenset({"a"}), frozenset())})
    with pytest.raises(ValueError, match="variables"):
        is_simulation(fig1_m1, other, EMPTY)


def _same_verdict(check, reference):
    """The violation list of ``check()``, or its ValueError message, equals
    that of ``reference()``."""
    try:
        want = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check()
        assert str(got.value) == str(exc)
        return None
    got = check()
    assert got == want
    return got


def test_clause_checks_match_reference(battery_pairs, kripke_battery):
    rng = random.Random(20250810)
    pairs = battery_pairs + [(lift_kripke(k1), lift_kripke(k2))
                             for k1, k2 in kripke_battery]
    for _ in range(20):  # wider carriers than the battery's
        pairs.append((random_le_model(rng, 8, 8), random_le_model(rng, 8, 8)))
        pairs.append((lift_kripke(random_kripke(rng, 10)),
                      lift_kripke(random_kripke(rng, 10))))
    nonempty = strays = 0
    for m1, m2 in pairs:
        candidates = [greatest_simulation(m1, m2), greatest_bisimulation(m1, m2)]
        for density in (0.2, 0.5, 0.8):
            candidates.append(SimPair(*random_sim_pair(rng, m1, m2, density)))
        s, t = random_sim_pair(rng, m1, m2, 0.5)
        foreign = [(m1.attributes[0], m2.objects[0]), ("nowhere", m2.objects[0])]
        candidates.append(SimPair(s | {rng.choice(foreign)}, t))
        candidates.append(SimPair(s, t | {(m1.objects[0], m2.attributes[0])}))
        candidates.append(SimPair(s | set(foreign), t))
        for z in candidates:
            for bisim, check in ((False, is_simulation), (True, is_bisimulation)):
                got = _same_verdict(
                    lambda: check(m1, m2, z),
                    lambda: simulation_violations_reference(m1, m2, z, bisim))
                if got is None:
                    strays += 1
                elif got:
                    nonempty += 1
    # every stray candidate was rejected, and most candidates fail somewhere
    assert strays == 6 * len(pairs)
    assert nonempty > 4 * len(pairs)


# --- Kripke lift correspondence (Lemma 3.3) -------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_lift_bisimulation_correspondence_random(seed):
    rng = random.Random(seed)
    k1, k2 = random_kripke(rng), random_kripke(rng)
    l1, l2 = lift_kripke(k1), lift_kripke(k2)
    z = frozenset((w, v) for w in k1.worlds for v in k2.worlds
                  if rng.random() < 0.5)
    classical = is_classical_bisim(k1, k2, z)
    lifted = is_bisimulation(l1, l2, lifted_pair(z)) == []
    assert classical == lifted


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_lift_greatest_classical_bisim_accepted(seed):
    rng = random.Random(seed)
    k1, k2 = random_kripke(rng), random_kripke(rng)
    z = greatest_classical_bisim(k1, k2)
    assert is_classical_bisim(k1, k2, z)
    assert is_bisimulation(lift_kripke(k1), lift_kripke(k2), lifted_pair(z)) == []


# --- greatest simulation ---------------------------------------------------------

def test_greatest_simulation_fig1(fig1_m1, fig1_m2):
    gs12 = greatest_simulation(fig1_m1, fig1_m2)
    gs21 = greatest_simulation(fig1_m2, fig1_m1)
    assert ("a1", "a2") in gs12.s
    assert ("a2", "a1") in gs21.s


def test_greatest_simulation_contains_identity(all_fixture_models):
    for model in all_fixture_models.values():
        z = greatest_simulation(model, model)
        ident = identity_pair(model)
        assert ident.s <= z.s and ident.t <= z.t


def test_greatest_simulation_passes_checker(battery_pairs):
    for m1, m2 in battery_pairs[:40]:
        z = greatest_simulation(m1, m2)
        assert is_simulation(m1, m2, z) == []


def test_greatest_simulation_is_union_of_all(battery_pairs, fig1_m1, fig1_m2):
    pairs = [(fig1_m1, fig1_m2)] + [
        (m1, m2) for m1, m2 in battery_pairs
        if max(len(m1.objects), len(m1.attributes)) <= 3
        and max(len(m2.objects), len(m2.attributes)) <= 3]
    checked = 0
    for m1, m2 in pairs:
        brute = all_simulations_union(m1, m2, limit_bits=12)
        if brute is None:
            continue
        z = greatest_simulation(m1, m2)
        assert (z.s, z.t) == brute
        checked += 1
        if checked >= 8:
            break
    assert checked >= 4


def test_minimality_spot_check(battery_pairs):
    # putting any deleted pair back breaks some clause
    checked = 0
    for m1, m2 in battery_pairs:
        z = greatest_simulation(m1, m2)
        candidates = [(a1, a2) for a1 in m1.objects for a2 in m2.objects
                      if (a1, a2) not in z.s
                      if all(a1 not in m1.valuation[p].extent
                             or a2 in m2.valuation[p].extent for p in m1.valuation)]
        for pair in candidates[:3]:
            grown = SimPair(z.s | {pair}, z.t)
            assert is_simulation(m1, m2, grown) != []
            checked += 1
        if checked >= 12:
            break
    assert checked >= 4


def test_refinement_round_bound(battery_pairs):
    for m1, m2 in battery_pairs[:60]:
        _, rounds = greatest_simulation_rounds(m1, m2)
        bound = (len(m1.objects) * len(m2.objects)
                 + len(m1.attributes) * len(m2.attributes))
        assert rounds <= bound + 1  # final confirming round included


def test_empty_carrier_simulation():
    pol1 = Polarity.make([], ["x"], [])
    pol2 = Polarity.make(["a"], [], [])
    m1 = LEModel.make(pol1, [], [], {"p": Concept(frozenset(), frozenset({"x"}))})
    m2 = LEModel.make(pol2, [], [], {"p": Concept(frozenset({"a"}), frozenset())})
    z = greatest_simulation(m1, m2)
    assert z.s == frozenset()
    assert z.t == frozenset()
    assert is_simulation(m1, m2, z) == []


# --- greatest bisimulation -------------------------------------------------------

def test_greatest_bisimulation_fig1_excludes(fig1_m1, fig1_m2):
    z = greatest_bisimulation(fig1_m1, fig1_m2)
    assert ("a1", "a2") not in z.s


def test_greatest_bisimulation_identity(all_fixture_models):
    for model in all_fixture_models.values():
        z = greatest_bisimulation(model, model)
        ident = identity_pair(model)
        assert ident.s <= z.s and ident.t <= z.t
        assert is_bisimulation(model, model, z) == []


def test_greatest_bisimulation_is_union_of_all(battery_pairs):
    checked = 0
    for m1, m2 in battery_pairs:
        if max(len(m1.objects), len(m1.attributes),
               len(m2.objects), len(m2.attributes)) > 3:
            continue
        brute = all_bisimulations_union(m1, m2, limit_bits=12)
        if brute is None:
            continue
        z = greatest_bisimulation(m1, m2)
        assert (z.s, z.t) == brute
        checked += 1
        if checked >= 6:
            break
    assert checked >= 3


# --- the modal-equivalence oracle -------------------------------------------------

def test_oracle_fig1(fig1_m1, fig1_m2):
    rep = modal_equiv_oracle(fig1_m1, fig1_m2)
    assert ("a1", "a2") in rep.equiv_a
    assert rep.equiv_a == rep.forward_a & rep.backward_a
    assert rep.equiv_x == rep.forward_x & rep.backward_x


def test_oracle_reflexive_on_same_model(all_fixture_models):
    for model in all_fixture_models.values():
        rep = modal_equiv_oracle(model, model)
        for a in model.objects:
            assert (a, a) in rep.forward_a
        for x in model.attributes:
            assert (x, x) in rep.forward_x


def test_oracle_matches_enumeration(battery_pairs):
    formulas = enumerate_formulas(["p", "q"], 2)
    checked = 0
    for m1, m2 in battery_pairs:
        if max(len(m1.objects), len(m1.attributes),
               len(m2.objects), len(m2.attributes)) > 3:
            continue
        rep = modal_equiv_oracle(m1, m2)
        fa, fx, ba, bx = enumeration_relations(m1, m2, formulas)
        # depth-2 formulas can only refute transfers, never certify them,
        # so the oracle relations are contained in the enumeration ones
        assert rep.forward_a <= fa and rep.forward_x <= fx
        assert rep.backward_a <= ba and rep.backward_x <= bx
        checked += 1
        if checked >= 30:
            break
    assert checked >= 10


# --- Hennessy-Milner -----------------------------------------------------------

def test_hm_fig1(fig1_m1, fig1_m2):
    assert hm_check(fig1_m1, fig1_m2).ok
    assert hm_check(fig1_m2, fig1_m1).ok


def test_hm_self(all_fixture_models):
    for model in all_fixture_models.values():
        assert hm_check(model, model).ok


def test_fig1_literal_variant_is_distinguished(fig1_m1_literal, fig1_m2):
    # With all relations empty (as the counterexample's prose states),
    # dia q separates the distinguished objects: the modal equivalence the
    # example advertises fails. The shipped fixture adds R_dia={(x1,b1)},
    # the unique minimal I-compatible completion restoring it.
    phi = parse_formula("dia q")
    assert satisfies_a(fig1_m1_literal, "a1", phi)
    assert not satisfies_a(fig1_m2, "a2", phi)
    rep = modal_equiv_oracle(fig1_m1_literal, fig1_m2)
    assert ("a1", "a2") not in rep.forward_a
    assert ("a1", "a2") in rep.backward_a
    # and the oracle still matches the greatest simulations (the theorem
    # holds; it is the example's data that is off)
    assert hm_check(fig1_m1_literal, fig1_m2).ok


def test_bisimilar_fig1(fig1_m1, fig1_m2):
    objects, attributes = bisimilar_points(fig1_m1, fig1_m2)
    assert ("a1", "a2") in objects
    # bisimilarity is strictly weaker than being in a bisimulation here
    assert ("a1", "a2") not in greatest_bisimulation(fig1_m1, fig1_m2).s


def test_bisimilar_reflexive(all_fixture_models):
    for model in all_fixture_models.values():
        objects, attributes = bisimilar_points(model, model)
        assert all((a, a) in objects for a in model.objects)
        assert all((x, x) in attributes for x in model.attributes)


def test_bisimilar_equals_oracle_equivalence(battery_pairs):
    for m1, m2 in battery_pairs[:25]:
        rep = modal_equiv_oracle(m1, m2)
        objects, attributes = bisimilar_points(m1, m2)
        assert objects == rep.equiv_a
        assert attributes == rep.equiv_x


def test_oracle_on_independent_lifted_kripke(kripke_battery):
    # independent pairs reach far more closed pairs than perturbed copies
    for k1, k2 in kripke_battery:
        m1, m2 = lift_kripke(k1), lift_kripke(k2)
        assert hm_check(m1, m2).ok
        rep = modal_equiv_oracle(m1, m2)
        assert bisimilar_points(m1, m2) == (rep.equiv_a, rep.equiv_x)


def test_bisimulation_pairs_are_modally_equivalent(battery_pairs):
    # bisimulation invariance: pairs of the greatest bisimulation transfer
    # all formulas in both directions
    for m1, m2 in battery_pairs[:40]:
        z = greatest_bisimulation(m1, m2)
        rep = modal_equiv_oracle(m1, m2)
        assert z.s <= rep.equiv_a
        assert z.t <= rep.equiv_x


# --- M-saturation witnesses -------------------------------------------------------

def test_saturation_empty_sigma(fig1_m1):
    # any point of the (nonempty) clause set will do; order is deterministic
    assert m_saturation_witness(fig1_m1, [], "a1", "i-object") == "x1"


def test_saturation_bot_on_attributes(fig1_m1):
    witness = m_saturation_witness(fig1_m1, [BOT], "a1", "i-object")
    assert witness in {"x1", "y1"}


def test_saturation_unsatisfiable(fig1_m1):
    # no attribute outside b1's incidence row describes q
    witness = m_saturation_witness(fig1_m1, [Var("q")], "b1", "i-object")
    assert witness is None


def test_saturation_selector_validation(fig1_m1):
    with pytest.raises(ValueError):
        m_saturation_witness(fig1_m1, [], "a1", "nope")
    with pytest.raises(Exception):
        m_saturation_witness(fig1_m1, [], "x1", "i-object")  # wrong sort


def test_saturation_box_dia_selectors(chain3):
    # box: candidates are attributes outside the R_box row
    assert m_saturation_witness(chain3, [BOT], "a", "box") == "y"
    # dia: candidates are objects outside the R_dia row of x
    witness = m_saturation_witness(chain3, [TOP], "x", "dia")
    assert witness == "a"


def test_extension_is_saturated_at_desk_scale(fig1_m2):
    # Lemma 4.8 instance: on the filter-ideal extension, a finite formula
    # set has a witness in a clause set iff some point satisfies them all.
    ext = filter_ideal_extension(fig1_m2).model
    formulas = enumerate_formulas(["p", "q"], 2)
    memo = {}
    classes = {}
    for phi in formulas:
        classes.setdefault(sat_sets(ext, phi, memo), phi)
    reps = list(classes.values())
    for f, g in itertools.product(reps, repeat=2):
        sigma = [f, g]
        for point, selector, side in (
                ("F0", "i-object", 1), ("F1", "i-object", 1),
                ("J0", "i-attribute", 0), ("J1", "i-attribute", 0),
                ("F0", "box", 1), ("J0", "dia", 0)):
            candidates = _clause_set(ext, point, selector)
            expected = None
            for cand in candidates:
                if all(cand in sat_sets(ext, phi, memo)[side] for phi in sigma):
                    expected = cand
                    break
            assert m_saturation_witness(ext, sigma, point, selector) == expected


def _clause_set(model, point, selector):
    inc = model.polarity.incidence
    if selector == "i-object":
        return [x for x in model.attributes if (point, x) not in inc]
    if selector == "i-attribute":
        return [a for a in model.objects if (a, point) not in inc]
    if selector == "box":
        return [x for x in model.attributes if (point, x) not in model.r_box]
    return [a for a in model.objects if (point, a) not in model.r_dia]


# --- principal ultrapowers ---------------------------------------------------------

def test_ultrapower_k1_is_renamed_copy(fig1_m1):
    power = ultrapower_principal(fig1_m1, 1, 0)
    assert power.model.objects == ("[a1]", "[b1]")
    assert power.iso["[a1]"] == "a1"
    assert validate_model(power.model) == []
    assert power.model.polarity.incidence == frozenset({("[b1]", "[x1]")})


def test_ultrapower_k2_fig1_m2(fig1_m2):
    power = ultrapower_principal(fig1_m2, 2, 0)
    assert power.model.objects == ("[a2]",)
    assert power.model.attributes == ("[x2]",)
    assert power.model.polarity.incidence == frozenset()
    assert power.model.r_box == frozenset()
    assert power.class_of(("a2", "a2")) == "[a2]"


def test_ultrapower_parameter_validation(fig1_m1):
    with pytest.raises(ValueError):
        ultrapower_principal(fig1_m1, 0, 0)
    with pytest.raises(ValueError):
        ultrapower_principal(fig1_m1, 2, 2)
    with pytest.raises(CapExceeded):
        ultrapower_principal(fig1_m1, 3, 0, cap=7)


def _los_atomic_battery(model, power, k, k0):
    """Quotient truth of atomic formulas equals base truth at the chosen index."""
    objs, attrs = kpower_functions(model, k)
    quotient = power.model
    atoms = [AtomI("g", "m"), AtomRbox("g", "m"), AtomRdia("m", "g")]
    atoms += [PredA(p, "g") for p in model.valuation]
    atoms += [PredX(p, "m") for p in model.valuation]
    for s in objs:
        for t in attrs:
            vq = SortedValuation({"g": power.class_of(s)}, {"m": f"[{t[k0]}]"})
            vb = SortedValuation({"g": s[k0]}, {"m": t[k0]})
            for atom in atoms:
                assert fol_eval(quotient, atom, vq) == fol_eval(model, atom, vb)


def test_los_atomic_instances(fig1_m2, chain3):
    for model, k, k0 in ((fig1_m2, 2, 0), (fig1_m2, 3, 1), (chain3, 2, 1)):
        power = ultrapower_principal(model, k, k0)
        assert validate_model(power.model) == []
        _los_atomic_battery(model, power, k, k0)


def test_translated_formulas_preserved_by_simulation(battery_pairs):
    # the finite-model content of the characterization theorem: truth of
    # standard translations transfers along greatest-simulation pairs
    formulas = enumerate_formulas(["p", "q"], 2)
    for m1, m2 in battery_pairs[:6]:
        z = greatest_simulation(m1, m2)
        memo1, memo2 = {}, {}
        for phi in formulas:
            s1 = sat_sets(m1, phi, memo1)
            s2 = sat_sets(m2, phi, memo2)
            for a1, a2 in z.s:
                if a1 in s1[0]:
                    assert a2 in s2[0]
    # spot-check the identity through fol_eval on one pair
    m1, m2 = battery_pairs[0]
    z = greatest_simulation(m1, m2)
    for phi in formulas[:60]:
        fo = st_g(phi)
        for a1, a2 in z.s:
            if fol_eval(m1, fo, SortedValuation({"g": a1}, {})):
                assert fol_eval(m2, fo, SortedValuation({"g": a2}, {}))


def test_los_translated_formulas(chain3):
    # quantified instances: standard translations evaluated on the quotient
    power = ultrapower_principal(chain3, 2, 0)
    for text in ("box p", "dia p", "p & q", "p | q"):
        phi = parse_formula(text)
        fo = st_g(phi)
        for a in chain3.objects:
            vq = SortedValuation({"g": f"[{a}]"}, {})
            vb = SortedValuation({"g": a}, {})
            assert fol_eval(power.model, fo, vq) == fol_eval(chain3, fo, vb)
