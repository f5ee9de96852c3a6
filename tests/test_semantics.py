import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarity_mc import (Concept, LEModel, Polarity, SortError,
                         enumerate_formulas, extension, models_sequent,
                         parse_formula, parse_sequent, satisfies_a,
                         satisfies_x)
from polarity_mc import semantics
from polarity_mc.fol import (G, M, AtomI, AtomRbox, AtomRdia, Eq, Exists,
                             FAnd, FOr, Forall, Implies, Not, PredA, PredX,
                             free_vars, st_g, st_m)
from polarity_mc.formula import BOT, TOP, And, Box, Dia, Sequent, Var
from polarity_mc.randgen import random_le_model
from polarity_mc.semantics import (SortedValuation, UnboundVariable,
                                   UnknownVariable, fol_assignments, fol_eval,
                                   fol_sat_points, sat_sets)

from test_formula import formulas


# --- extensions --------------------------------------------------------------

def test_extension_fig1_q(fig1_m1):
    assert extension(fig1_m1, Var("q")) == Concept(frozenset({"b1"}),
                                                   frozenset({"x1"}))


def test_extension_top(all_fixture_models):
    for model in all_fixture_models.values():
        top = extension(model, TOP)
        assert top.extent == frozenset(model.objects)


def test_extension_meet(fig1_m1):
    phi = parse_formula("p & q")
    assert extension(fig1_m1, phi) == Concept(frozenset({"b1"}), frozenset({"x1"}))


def test_extension_unknown_variable(fig1_m1):
    with pytest.raises(UnknownVariable):
        extension(fig1_m1, Var("nope"))


# --- pointwise satisfaction ---------------------------------------------------

def test_satisfies_bot_at_object(fig1_m2):
    # a2 has no incidences, so bot fails at it
    assert not satisfies_a(fig1_m2, "a2", BOT)


def test_satisfies_top_always(all_fixture_models):
    for model in all_fixture_models.values():
        for a in model.objects:
            assert satisfies_a(model, a, TOP)
        for x in model.attributes:
            assert satisfies_x(model, x, BOT)


def test_fig1_paper_points(fig1_m1, fig1_m2):
    assert satisfies_a(fig1_m1, "b1", Var("q"))
    assert satisfies_x(fig1_m2, "x2", Var("q"))
    assert not satisfies_x(fig1_m1, "y1", Var("q"))


def test_clause_extension_agreement_on_random_models():
    rng = random.Random(7)
    formulas = enumerate_formulas(["p", "q"], 2)
    for _ in range(12):
        model = random_le_model(rng)
        memo_sat, memo_ext = {}, {}
        for phi in formulas:
            support, described = sat_sets(model, phi, memo_sat)
            concept = extension(model, phi, memo_ext)
            assert support == concept.extent
            assert described == concept.intent


# --- sequents ----------------------------------------------------------------

def test_sequent_examples(fig1_m1):
    assert models_sequent(fig1_m1, parse_sequent("q |- p"))
    assert not models_sequent(fig1_m1, parse_sequent("p |- q"))
    assert models_sequent(fig1_m1, parse_sequent("p |- top"))


def test_sequent_duality(battery_models):
    seqs = [parse_sequent(s) for s in
            ("p |- q", "q |- p", "box p |- box q", "dia(p | q) |- dia p | dia q",
             "p & q |- dia q", "bot |- box p")]
    for model in battery_models[:40]:
        memo = {}
        for seq in seqs:
            lhs = extension(model, seq.lhs, memo)
            rhs = extension(model, seq.rhs, memo)
            extent_incl = lhs.extent <= rhs.extent
            intent_incl = rhs.intent <= lhs.intent
            assert extent_incl == intent_incl
            assert models_sequent(model, seq) == extent_incl


def test_axiom_soundness_spot_checks(battery_models, all_fixture_models):
    axioms = [parse_sequent(s) for s in
              ("top |- box top", "dia bot |- bot",
               "box p & box q |- box(p & q)", "dia(p | q) |- dia p | dia q")]
    for model in list(all_fixture_models.values()) + battery_models[:60]:
        for seq in axioms:
            assert models_sequent(model, seq), seq


# --- first-order evaluation ---------------------------------------------------

def test_fol_eval_clause_examples(fig1_m2):
    phi = Forall("m0", M, AtomI("g", "m0"))
    v = SortedValuation({"g": "a2"}, {})
    assert not fol_eval(fig1_m2, phi, v)


def test_fol_eval_equality_reflexive(fig1_m1):
    from polarity_mc.fol import Eq
    v = SortedValuation({"g": "a1"}, {})
    assert fol_eval(fig1_m1, Eq("g", "g", G), v)


def test_fol_eval_unbound(fig1_m1):
    with pytest.raises(UnboundVariable):
        fol_eval(fig1_m1, st_g(Var("p")), SortedValuation())


def test_standard_translation_instance(fig1_m1):
    # Lemma 5.2 item 1 at the paper's own point
    phi = Var("q")
    assert fol_eval(fig1_m1, st_g(phi), SortedValuation({"g": "b1"}, {}))
    assert satisfies_a(fig1_m1, "b1", phi)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_lemma_5_2_pointwise(seed):
    rng = random.Random(seed)
    model = random_le_model(rng, max_objects=3, max_attrs=3)
    for phi in enumerate_formulas(["p", "q"], 1):
        fog, fom = st_g(phi), st_m(phi)
        memo = {}
        for a in model.objects:
            assert (satisfies_a(model, a, phi, memo)
                    == fol_eval(model, fog, SortedValuation({"g": a}, {})))
        for x in model.attributes:
            assert (satisfies_x(model, x, phi, memo)
                    == fol_eval(model, fom, SortedValuation({}, {"m": x})))


def test_lemma_5_2_global_forms(battery_models):
    # M |= forall g ST_g(phi) iff phi is supported at every object (and dually).
    for model in battery_models[:20]:
        memo = {}
        for phi in enumerate_formulas(["p", "q"], 1)[:40]:
            everywhere_a = all(satisfies_a(model, a, phi, memo) for a in model.objects)
            closed = Forall("g", G, st_g(phi))
            assert fol_eval(model, closed, SortedValuation()) == everywhere_a
            everywhere_x = all(satisfies_x(model, x, phi, memo) for x in model.attributes)
            closed_m = Forall("m", M, st_m(phi))
            assert fol_eval(model, closed_m, SortedValuation()) == everywhere_x


def test_fol_assignments_matches_pointwise(battery_models):
    for model in battery_models[:10]:
        for phi in enumerate_formulas(["p", "q"], 1)[10:30]:
            fog = st_g(phi)
            table = fol_assignments(model, fog)
            for key, value in table.items():
                v = SortedValuation({"g": dict(key)["g"]}, {})
                assert fol_eval(model, fog, v) == value
            points = fol_sat_points(model, fog, "g")
            assert points == frozenset(dict(k)["g"] for k, b in table.items() if b)


def test_fol_assignments_closed_formula(fig1_m1):
    closed = Forall("g", G, st_g(TOP))
    table = fol_assignments(fig1_m1, closed)
    assert table == {(): True}


# --- variables are (name, sort) pairs -----------------------------------------

def test_name_at_both_sorts_is_two_variables(fig1_m1):
    incidence = fig1_m1.polarity.incidence
    closed_g = Forall("x", G, AtomI("x", "x"))
    assert free_vars(closed_g) == frozenset({("x", M)})
    below_all = {x: all((a, x) in incidence for a in fig1_m1.objects)
                 for x in fig1_m1.attributes}
    assert fol_assignments(fig1_m1, closed_g) == {(("x", x),): b
                                                  for x, b in below_all.items()}
    with pytest.raises(UnboundVariable, match="M-sort variable 'x' is unbound"):
        fol_eval(fig1_m1, closed_g, SortedValuation())
    for x, b in below_all.items():
        assert fol_eval(fig1_m1, closed_g, SortedValuation({}, {"x": x})) == b
    assert fol_sat_points(fig1_m1, closed_g, "x") == {x for x, b in below_all.items() if b}
    assert fol_assignments(fig1_m1, AtomI("x", "x")) == {
        (("x", a), ("x", x)): (a, x) in incidence
        for a in fig1_m1.objects for x in fig1_m1.attributes}
    both = FAnd(PredA("p", "x"), PredX("p", "x"))
    assert free_vars(both) == frozenset({("x", G), ("x", M)})
    with pytest.raises(ValueError, match="unique free variable"):
        fol_sat_points(fig1_m1, both, "x")


# --- fol_sat_points' and fol_eval's error contracts ---------------------------

@pytest.mark.parametrize("phi, var, got", [
    (Forall("g", G, st_g(Var("p"))), "g", "[]"),
    (st_g(Var("p")), "m", "[('g', 'G')]"),
    (FAnd(PredA("p", "g"), PredX("q", "m")), "g", "[('g', 'G'), ('m', 'M')]"),
    (FAnd(PredA("p", "g"), PredA("q", "g1")), "g", "[('g', 'G'), ('g1', 'G')]"),
])
def test_fol_sat_points_needs_one_free_variable(fig1_m1, phi, var, got):
    message = f"expected {var!r} as the unique free variable, got {got}"
    with pytest.raises(ValueError) as err:
        fol_sat_points(fig1_m1, phi, var)
    assert str(err.value) == message


def test_fol_sat_points_unknown_proposition(fig1_m1):
    with pytest.raises(UnknownVariable):
        fol_sat_points(fig1_m1, st_g(Box(Var("nope"))), "g")
    with pytest.raises(ValueError, match="unique free variable"):
        fol_sat_points(fig1_m1, FAnd(PredA("nope", "g"), PredX("p", "m")), "g")


@pytest.mark.parametrize("phi, v, error, match", [
    (PredA("p", "g"), ({"g": "x1"}, {}), SortError, r"unknown object identifiers: \['x1'\]"),
    (AtomRdia("m", "g"), ({"g": "a1"}, {"m": "zz"}), SortError,
     r"unknown attribute identifiers: \['zz'\]"),
    (Eq("g", "h", G), ({"g": "a1"}, {}), UnboundVariable, "G-sort variable 'h' is unbound"),
    (Forall("g", G, AtomI("g", "m")), ({}, {}), UnboundVariable,
     "M-sort variable 'm' is unbound"),
    (Exists("m", M, FAnd(PredX("q", "m"), PredA("p", "m"))), ({}, {}), UnboundVariable,
     "G-sort variable 'm' is unbound"),
])
def test_fol_eval_raises_on_reached_variables(fig1_m1, phi, v, error, match):
    with pytest.raises(error, match=match):
        fol_eval(fig1_m1, phi, SortedValuation(*v))


@pytest.mark.parametrize("phi", [
    Forall("m", "Z", PredX("q", "m")),
    Exists("g", "g", PredA("p", "g")),
    Eq("m", "m", "Z"),
    FAnd(PredA("p", "g"), Eq("g", "h", "Z")),
    Forall("g", G, FOr(AtomI("g", "m"), Exists("m", "Z", PredX("q", "m")))),
    # the first bad sort in pre-order is named, on every route
    Forall("m", "Z", Exists("g", "Y", PredA("p", "g"))),
])
def test_sort_outside_g_m_raises_on_every_route(fig1_m1, phi):
    bad = next(s for s in ("Z", "g") if f"sort={s!r}" in repr(phi))
    message = f"unknown sort {bad!r}: expected 'G' or 'M'"
    routes = [lambda: free_vars(phi), lambda: fol_assignments(fig1_m1, phi),
              lambda: fol_eval(fig1_m1, phi, SortedValuation(
                  {"g": "a1", "h": "b1"}, {"m": "x1"}))]
    routes += [lambda var=var: fol_sat_points(fig1_m1, phi, var) for var in ("g", "m")]
    for route in routes:
        with pytest.raises(SortError) as err:
            route()
        assert str(err.value) == message


@pytest.mark.parametrize("phi", [
    FAnd(PredA("nope", "g"), Forall("m", "Z", PredX("q", "m"))),
    FAnd(Eq("g", "h", G), Forall("m", "Z", PredX("q", "m"))),
    FAnd(PredA("p", "g"), FOr(PredX("q", "m"), Exists("h", "Z", Eq("h", "h", G)))),
])
def test_fol_sat_points_reports_bad_sort_first(fig1_m1, phi):
    # free_vars walks the whole formula first, so a bad sort is reported
    # before an unknown proposition, a second free variable or a wide shape
    for var in ("g", "m"):
        with pytest.raises(SortError, match="^unknown sort 'Z': expected 'G' or 'M'$"):
            fol_sat_points(fig1_m1, phi, var)


def test_fol_eval_reaches_bad_sort_lazily(fig1_m1):
    # like a variable, a bad sort raises only where evaluation reaches it
    phi = FOr(Eq("g", "g", G), Forall("m", "Z", PredX("q", "m")))
    assert fol_eval(fig1_m1, phi, SortedValuation({"g": "a1"}, {}))
    with pytest.raises(SortError, match="unknown sort 'Z'"):
        fol_eval(fig1_m1, Not(phi.right), SortedValuation())


@pytest.mark.parametrize("phi, v, expected", [
    (FOr(Eq("g", "g", G), PredA("p", "h")), {"g": "a1"}, True),
    (FAnd(Not(Eq("g", "g", G)), PredA("p", "zz")), {"g": "a1"}, False),
    (Implies(Not(Eq("g", "g", G)), AtomI("h", "m")), {"g": "b1"}, True),
    (FOr(Eq("g", "g", G), PredA("p", "zz")), {"g": "a1", "zz": "x1"}, True),
    (Exists("g", G, FOr(Eq("g", "g", G), AtomRbox("g", "m"))), {}, True),
    (Forall("g", G, FAnd(PredA("q", "g"), AtomRdia("m", "g"))), {}, False),
])
def test_fol_eval_short_circuit_raises_nothing(fig1_m1, phi, v, expected):
    # The forall stops at a1, which is outside q's extent, before reaching m.
    assert fol_eval(fig1_m1, phi, SortedValuation(v, {})) == expected


# --- the mask route against the dict join and pointwise evaluation -----------

PROPS = ("p", "q", "r_1")


@st.composite
def fo_structures(draw):
    """Arbitrary two-sorted structures with up to 3 + 3 points, either
    carrier possibly empty; relations and valuation are unconstrained."""
    def size():
        return draw(st.integers(0, 3)) if draw(st.integers(0, 4)) == 0 \
            else draw(st.integers(1, 3))

    objs = tuple(f"a{i}" for i in range(size()))
    attrs = tuple(f"y{j}" for j in range(size()))

    def subset(items):
        return frozenset(u for u in items if draw(st.booleans()))

    ax = [(a, x) for a in objs for x in attrs]
    xa = [(x, a) for x in attrs for a in objs]
    pol = Polarity(objs, attrs, subset(ax))
    return LEModel(pol, subset(ax), subset(xa),
                   {p: Concept(subset(objs), subset(attrs)) for p in PROPS})


@st.composite
def fo_formulas(draw, gnames=("g", "g1", "x"), mnames=("m", "m1", "x"), depth=4):
    """Random two-sorted formulas over the given variable names. With the
    default names, "x" at both sorts, equations between distinct variables,
    two free variables of one sort, and vacuous and shadowing quantifiers
    all occur; with one name per sort every subformula fits the mask shape."""
    kind = draw(st.integers(0, 9 if depth else 1))
    if kind <= 1:
        g, m = draw(st.sampled_from(gnames)), draw(st.sampled_from(mnames))
        atom = draw(st.integers(0, 6))
        if atom == 0:
            return Eq(g, draw(st.sampled_from(gnames)), G)
        if atom == 1:
            return Eq(m, draw(st.sampled_from(mnames)), M)
        if atom == 2:
            return PredA(draw(st.sampled_from(PROPS)), g)
        if atom == 3:
            return PredX(draw(st.sampled_from(PROPS)), m)
        return (AtomI, AtomRbox, AtomRdia)[atom - 4](*((g, m) if atom < 6 else (m, g)))
    sub = fo_formulas(gnames, mnames, depth - 1)
    if kind == 2:
        return Not(draw(sub))
    if kind <= 5:
        return (FAnd, FOr, Implies)[kind - 3](draw(sub), draw(sub))
    sort = draw(st.sampled_from((G, M)))
    var = draw(st.sampled_from(gnames if sort == G else mnames))
    return (Forall, Exists)[kind % 2](var, sort, draw(sub))


def translations():
    return st.builds(lambda phi, side: st_g(phi) if side else st_m(phi),
                     formulas(max_depth=3), st.booleans())


def _carrier(model, sort):
    return model.objects if sort == G else model.attributes


@settings(max_examples=1000, deadline=None)
@given(fo_structures(),
       st.one_of(fo_formulas(), fo_formulas(("x",), ("x",)),
                 fo_formulas(("g",), ("x",)), translations()),
       st.data())
def test_fo_routes_agree(model, phi, data):
    fv = sorted(free_vars(phi))
    table = fol_assignments(model, phi)
    size = 1
    for _, sort in fv:
        size *= len(_carrier(model, sort))
    assert len(table) == size
    for key, value in table.items():
        assert [name for name, _ in key] == [name for name, _ in fv]
        env = ({}, {})
        for (name, sort), (_, u) in zip(fv, key):
            env[sort == M][name] = u
        assert fol_eval(model, phi, SortedValuation(*env)) == value
    if not fv:
        with pytest.raises(ValueError, match="unique free variable"):
            fol_sat_points(model, phi, "g")
        return
    # Close all free variables but one, then read its points three ways.
    name, sort = data.draw(st.sampled_from(fv))
    for other, other_sort in fv:
        if (other, other_sort) != (name, sort):
            quant = data.draw(st.sampled_from((Forall, Exists)))
            phi = quant(other, other_sort, phi)
    points = fol_sat_points(model, phi, name)
    assert points == {dict(k)[name] for k, b in fol_assignments(model, phi).items() if b}
    env = ({}, {})
    pointwise = set()
    for u in _carrier(model, sort):
        env[sort == M][name] = u
        if fol_eval(model, phi, SortedValuation(*env)):
            pointwise.add(u)
    assert points == pointwise


def test_fol_sat_points_route_follows_shape(fig1_m1, monkeypatch):
    joins = []

    def counted(model, phi):
        joins.append(phi)
        return fol_assignments(model, phi)

    monkeypatch.setattr(semantics, "fol_assignments", counted)
    for phi in (st_g(Dia(Box(Var("p")))), st_m(Box(And(Var("q"), BOT))),
                Forall("g", G, Exists("g", G, FAnd(PredA("p", "g"), AtomI("g", "m"))))):
        fol_sat_points(fig1_m1, phi, "g" if ("g", G) in free_vars(phi) else "m")
    assert joins == []
    wide = [Exists("g1", G, FAnd(Eq("g", "g1", G), PredA("q", "g1"))),
            Forall("m", M, Exists("g1", G, FOr(AtomI("g", "m"), Not(AtomI("g1", "m")))))]
    assert [fol_sat_points(fig1_m1, phi, "g") for phi in wide] == [{"b1"}, {"a1", "b1"}]
    empty = LEModel(Polarity(("a1",), (), frozenset()), frozenset(), frozenset(),
                    {"p": Concept(frozenset({"a1"}), frozenset())})
    assert fol_sat_points(empty, st_g(Var("p")), "g") == {"a1"}
    assert joins == wide + [st_g(Var("p"))]
