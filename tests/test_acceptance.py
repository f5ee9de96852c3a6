"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The random batteries are
seeded in conftest.py (200 LE-model pairs with carriers <= 4+4 over two
variables, 100 Kripke pairs with <= 4 worlds); everything that quantifies
over "all depth-3 formulas" runs over the canonical enumeration of 365,424
formulas, either literally or through the satisfaction-set closure that
provably realizes the same formula semantics (and is checked against the
literal evaluation wherever both run).
"""

import itertools
import time

import pytest

from polarity_mc import (bisimilar_points, box_op, concept_lattice, dia_op,
                         enumerate_formulas, extension, filter_ideal_extension,
                         greatest_bisimulation, greatest_simulation, hm_check,
                         is_bisimulation, lift_kripke,
                         modal_equiv_oracle, parse_sequent, models_sequent,
                         ultrapower_principal, validate_model)
from polarity_mc.fol import AtomI, AtomRbox, AtomRdia, PredA, PredX, st_g, st_m
from polarity_mc.semantics import (SortedValuation, fol_eval, fol_sat_points,
                                   sat_sets)
from polarity_mc.simrel import SimPair

from oracles import (ClauseEvaluator, all_simulations_union,
                     enumeration_relations, greatest_classical_bisim,
                     is_classical_bisim, kpower_functions,
                     relations_from_quads, semantic_quadruples)

VOCAB = ("p", "q")
DEPTH = 3


@pytest.fixture(scope="module")
def depth3_formulas():
    return enumerate_formulas(list(VOCAB), DEPTH)


def small_enough(model, limit=3):
    return len(model.objects) <= limit and len(model.attributes) <= limit


def report(number, name, violations, detail=""):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert not violations, violations[:10]


# --- criterion 1: the Figure 1 fixture ----------------------------------------

def test_criterion_1_figure_one(fig1_m1, fig1_m2):
    start = time.monotonic()
    bad = []
    rep = modal_equiv_oracle(fig1_m1, fig1_m2)
    if ("a1", "a2") not in rep.equiv_a:
        bad.append("oracle does not report a1 <~> a2")
    if ("a1", "a2") not in greatest_simulation(fig1_m1, fig1_m2).s:
        bad.append("greatest simulation m1->m2 misses (a1, a2)")
    if ("a2", "a1") not in greatest_simulation(fig1_m2, fig1_m1).s:
        bad.append("greatest simulation m2->m1 misses (a2, a1)")
    if ("a1", "a2") in greatest_bisimulation(fig1_m1, fig1_m2).s:
        bad.append("greatest bisimulation wrongly contains (a1, a2)")
    objects, _ = bisimilar_points(fig1_m1, fig1_m2)
    if ("a1", "a2") not in objects:
        bad.append("bisimilar_points misses (a1, a2)")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(1, "Figure 1 fixture", bad, f"{elapsed:.2f}s")


# --- criterion 2: Hennessy-Milner on the random battery -------------------------

def test_criterion_2_hennessy_milner(battery_pairs):
    start = time.monotonic()
    bad = []
    for idx, (m1, m2) in enumerate(battery_pairs):
        hm = hm_check(m1, m2)
        if not hm.ok:
            bad.append((idx, hm.mismatches[:3]))
        rep = modal_equiv_oracle(m1, m2)
        objects, attributes = bisimilar_points(m1, m2)
        if objects != rep.equiv_a or attributes != rep.equiv_x:
            bad.append((idx, "bisimilar_points differs from oracle equivalence"))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        bad.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(2, "Hennessy-Milner battery",
           bad, f"{len(battery_pairs)} pairs, {elapsed:.1f}s")


# --- criterion 3: simulation invariance -----------------------------------------

def test_criterion_3_simulation_invariance(battery_pairs, depth3_formulas):
    bad = []
    for idx, (m1, m2) in enumerate(battery_pairs):
        z = greatest_simulation(m1, m2)
        quads = semantic_quadruples(m1, m2, VOCAB, DEPTH)
        fa, fx, ba, bx = relations_from_quads(m1, m2, quads)
        for pair in z.s - fa:
            bad.append((idx, "preservation", pair))
        for pair in z.t - bx:
            bad.append((idx, "reflection", pair))
    # literal per-formula leg on a slice, also witnessing that the closure
    # realizes exactly the enumerated formulas' satisfaction sets
    for idx, (m1, m2) in enumerate(battery_pairs[:8]):
        e1, e2 = ClauseEvaluator(m1), ClauseEvaluator(m2)
        literal = {(e1.sets(f), e2.sets(f)) for f in depth3_formulas}
        if literal != semantic_quadruples(m1, m2, VOCAB, DEPTH):
            bad.append((idx, "closure mismatch with literal enumeration"))
        z = greatest_simulation(m1, m2)
        oi2 = {a: i for i, a in enumerate(m2.objects)}
        oi1 = {a: i for i, a in enumerate(m1.objects)}
        for f in depth3_formulas:
            a1m = e1.sets(f)[0]
            a2m = e2.sets(f)[0]
            for a1, a2 in z.s:
                if a1m >> oi1[a1] & 1 and not a2m >> oi2[a2] & 1:
                    bad.append((idx, "literal preservation", (a1, a2)))
    report(3, "simulation invariance",
           bad, f"{len(battery_pairs)} pairs x {len(depth3_formulas)} formulas")


# --- criterion 4: truth lemma and filter satisfaction ----------------------------

def test_criterion_4_truth_lemma(all_fixture_models, battery_models,
                                 depth3_formulas):
    bad = []
    models = dict(all_fixture_models)
    picked = 0
    for i, model in enumerate(battery_models):
        if picked >= 25:
            break
        if len(concept_lattice(model.polarity)) <= 12:
            models[f"battery{i}"] = model
            picked += 1
    literal_on = {"fig1_m1", "fig1_m2"}
    for name, model in models.items():
        ext = filter_ideal_extension(model)
        if validate_model(ext.model):
            bad.append((name, "extension fails validate_model"))
            continue
        lat = ext.lattice
        filter_members = [f.members for f in ext.filters]
        ideal_members = [j.members for j in ext.ideals]
        base_eval = ClauseEvaluator(model)
        ext_eval = ClauseEvaluator(ext.model)
        quads = semantic_quadruples(model, ext.model, VOCAB, DEPTH)
        obj_image = {i: ext_eval.objects.index(ext.object_image[a])
                     for i, a in enumerate(base_eval.objects)}
        att_image = {i: ext_eval.attributes.index(ext.attribute_image[x])
                     for i, x in enumerate(base_eval.attributes)}
        for (bam, bxm), (eam, exm) in quads:
            for i, j in obj_image.items():
                if (bam >> i & 1) != (eam >> j & 1):
                    bad.append((name, "truth lemma", base_eval.objects[i]))
            for i, j in att_image.items():
                if (bxm >> i & 1) != (exm >> j & 1):
                    bad.append((name, "truth lemma", base_eval.attributes[i]))
            # Lemma 4.6: satisfaction at a filter/ideal point is membership
            # of the formula's concept in that filter/ideal
            concept = _concept_of(lat, base_eval, bam)
            for fi in range(len(filter_members)):
                if (eam >> fi & 1) != (concept in filter_members[fi]):
                    bad.append((name, "filter satisfaction", f"F{fi}"))
            for ji in range(len(ideal_members)):
                if (exm >> ji & 1) != (concept in ideal_members[ji]):
                    bad.append((name, "ideal satisfaction", f"J{ji}"))
        if name in literal_on:
            # literal per-formula check of the truth lemma on the fixtures
            memo_b, memo_e = {}, {}
            for phi in depth3_formulas:
                base = sat_sets(model, phi, memo_b)
                lifted = sat_sets(ext.model, phi, memo_e)
                for a in model.objects:
                    if (a in base[0]) != (ext.object_image[a] in lifted[0]):
                        bad.append((name, "literal truth lemma", (a, phi)))
                for x in model.attributes:
                    if (x in base[1]) != (ext.attribute_image[x] in lifted[1]):
                        bad.append((name, "literal truth lemma", (x, phi)))
    report(4, "truth lemma on filter-ideal extensions",
           bad, f"{len(models)} models")


def _concept_of(lat, base_eval, amask):
    from polarity_mc.model import Concept
    extent = base_eval.object_names(amask)
    return lat.concepts[lat.index_of(Concept(extent, frozenset()))]


# --- criterion 5: standard translation -------------------------------------------

def test_criterion_5_standard_translation(all_fixture_models, battery_models,
                                          depth3_formulas):
    bad = []
    depth2 = enumerate_formulas(list(VOCAB), 2)

    def check(model, formulas, pointwise):
        memo = {}
        for phi in formulas:
            support, described = sat_sets(model, phi, memo)
            fog, fom = st_g(phi), st_m(phi)
            if pointwise:
                for a in model.objects:
                    if fol_eval(model, fog, SortedValuation({"g": a}, {})) \
                            != (a in support):
                        bad.append((phi, "g", a))
                for x in model.attributes:
                    if fol_eval(model, fom, SortedValuation({}, {"m": x})) \
                            != (x in described):
                        bad.append((phi, "m", x))
            else:
                if fol_sat_points(model, fog, "g") != support:
                    bad.append((phi, "g", "set"))
                if fol_sat_points(model, fom, "m") != described:
                    bad.append((phi, "m", "set"))

    # breadth: all depth<=2 translations on every model of the battery
    for model in list(all_fixture_models.values()) + battery_models:
        check(model, depth2, pointwise=False)
    # literal pointwise fol_eval leg on a battery slice
    for model in battery_models[:60]:
        check(model, depth2[:200], pointwise=True)
    # depth: the full depth-3 enumeration on the Figure 1 fixtures
    for name in ("fig1_m2", "fig1_m1"):
        check(all_fixture_models[name], depth3_formulas, pointwise=False)
    report(5, "standard translation agreement",
           bad, f"depth<=2 everywhere, depth 3 on fig1 fixtures")


# --- criterion 6: Kripke lift correspondence --------------------------------------

def test_criterion_6_kripke_lift(kripke_battery):
    import random
    rng = random.Random(99)
    bad = []
    for idx, (k1, k2) in enumerate(kripke_battery):
        l1, l2 = lift_kripke(k1), lift_kripke(k2)
        candidates = [frozenset((w, v) for w in k1.worlds for v in k2.worlds
                                if rng.random() < 0.5)
                      for _ in range(3)]
        candidates.append(greatest_classical_bisim(k1, k2))
        for z in candidates:
            classical = is_classical_bisim(k1, k2, z)
            pair = SimPair(frozenset((w + "_A", v + "_A") for w, v in z),
                           frozenset((w + "_X", v + "_X") for w, v in z))
            lifted = is_bisimulation(l1, l2, pair) == []
            if classical != lifted:
                bad.append((idx, sorted(z), classical, lifted))
    report(6, "Kripke lift bisimulation correspondence",
           bad, f"{len(kripke_battery)} pairs x 4 candidate relations")


# --- criterion 7: algebra laws ------------------------------------------------------

def test_criterion_7_algebra_laws(all_fixture_models, battery_models):
    bad = []
    axioms = [parse_sequent(s) for s in
              ("top |- box top", "dia bot |- bot",
               "box p & box q |- box(p & q)", "dia(p | q) |- dia p | dia q")]
    models = list(all_fixture_models.items()) + \
        [(f"battery{i}", m) for i, m in enumerate(battery_models)]
    for name, model in models:
        lat = concept_lattice(model.polarity)
        boxed = {c: box_op(model, c) for c in lat.concepts}
        diaed = {c: dia_op(model, c) for c in lat.concepts}
        for c, d in itertools.combinations_with_replacement(lat.concepts, 2):
            if boxed[lat.meet(c, d)] != lat.meet(boxed[c], boxed[d]):
                bad.append((name, "box meet", c.extent, d.extent))
            if diaed[lat.join(c, d)] != lat.join(diaed[c], diaed[d]):
                bad.append((name, "dia join", c.extent, d.extent))
        for c in lat.concepts:
            join = lat.bottom
            for a in c.extent:
                join = lat.join(join, lat.object_generator(a))
            if join != c:
                bad.append((name, "join generation", c.extent))
            meet = lat.top
            for x in c.intent:
                meet = lat.meet(meet, lat.attribute_generator(x))
            if meet != c:
                bad.append((name, "meet generation", c.extent))
        for seq in axioms:
            if not models_sequent(model, seq):
                bad.append((name, "axiom", seq))
    report(7, "complex-algebra laws", bad, f"{len(models)} models")


# --- criterion 8: oracle soundness ---------------------------------------------------

def test_criterion_8_oracle_soundness(battery_pairs, fig1_m1, fig1_m2,
                                      depth3_formulas):
    bad = []
    small = [(m1, m2) for m1, m2 in battery_pairs
             if small_enough(m1) and small_enough(m2)]
    # leg 1: pair-closure oracle vs depth-3 formula-enumeration equivalence
    for idx, (m1, m2) in enumerate(small):
        rep = modal_equiv_oracle(m1, m2)
        quads = semantic_quadruples(m1, m2, VOCAB, DEPTH)
        fa, fx, ba, bx = relations_from_quads(m1, m2, quads)
        if (rep.forward_a, rep.forward_x, rep.backward_a, rep.backward_x) != \
                (fa, fx, ba, bx):
            bad.append((idx, "oracle vs enumeration"))
    for idx, (m1, m2) in enumerate(small[:6]):
        rep = modal_equiv_oracle(m1, m2)
        if enumeration_relations(m1, m2, depth3_formulas) != \
                (rep.forward_a, rep.forward_x, rep.backward_a, rep.backward_x):
            bad.append((idx, "oracle vs literal enumeration"))
    # leg 2: greatest simulation vs brute-force union of all simulations
    start = time.monotonic()
    brute_checked = 0
    for m1, m2 in [(fig1_m1, fig1_m2)] + small:
        if brute_checked >= 30 or time.monotonic() - start > 240:
            break
        brute = all_simulations_union(m1, m2, limit_bits=16)
        if brute is None:
            continue
        z = greatest_simulation(m1, m2)
        if (z.s, z.t) != brute:
            bad.append((brute_checked, "greatest vs brute-force union"))
        brute_checked += 1
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        bad.append(f"brute-force leg took {elapsed:.0f}s")
    if brute_checked < 8:
        bad.append(f"only {brute_checked} brute-force instances fit the bit limit")
    report(8, "oracle soundness",
           bad, f"{len(small)} small pairs, {brute_checked} brute-forced, "
                f"{elapsed:.0f}s brute leg")


# --- criterion 9: principal ultrapowers ------------------------------------------------

def test_criterion_9_principal_ultrapower(fig1_m1, fig1_m2, chain3):
    bad = []
    for model in (fig1_m1, fig1_m2, chain3):
        for k in (1, 2, 3):
            k0 = k - 1
            power = ultrapower_principal(model, k, k0)
            quotient = power.model
            if validate_model(quotient):
                bad.append((k, "quotient fails validation"))
            # isomorphism onto the base model
            iso = power.iso
            if sorted(iso.values()) != sorted(model.objects + model.attributes):
                bad.append((k, "iso is not a bijection"))
            expect_inc = {(f"[{a}]", f"[{x}]") for a, x in model.polarity.incidence}
            if quotient.polarity.incidence != expect_inc:
                bad.append((k, "incidence not isomorphic"))
            if quotient.r_box != {(f"[{a}]", f"[{x}]") for a, x in model.r_box}:
                bad.append((k, "r_box not isomorphic"))
            if quotient.r_dia != {(f"[{x}]", f"[{a}]") for x, a in model.r_dia}:
                bad.append((k, "r_dia not isomorphic"))
            for p, c in model.valuation.items():
                qc = quotient.valuation[p]
                if qc.extent != {f"[{a}]" for a in c.extent} or \
                        qc.intent != {f"[{x}]" for x in c.intent}:
                    bad.append((k, "valuation not isomorphic", p))
            # Los instances: quotient truth of atoms at [s],[t] equals base
            # truth at s(k0), t(k0) equals principal-ultrafilter membership
            objs, attrs = kpower_functions(model, k)
            atoms = [AtomI("g", "m"), AtomRbox("g", "m"), AtomRdia("m", "g")]
            atoms += [PredA(p, "g") for p in model.valuation]
            atoms += [PredX(p, "m") for p in model.valuation]
            for s in objs:
                for t in attrs:
                    vq = SortedValuation({"g": power.class_of(s)},
                                         {"m": f"[{t[k0]}]"})
                    for atom in atoms:
                        base_truth_set = {i for i in range(k)
                                          if fol_eval(model, atom,
                                                      SortedValuation({"g": s[i]},
                                                                      {"m": t[i]}))}
                        in_ultrafilter = k0 in base_truth_set
                        if fol_eval(quotient, atom, vq) != in_ultrafilter:
                            bad.append((k, "Los", atom, s, t))
    report(9, "principal ultrapowers", bad, "k in {1,2,3} on three fixtures")
