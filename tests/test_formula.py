import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarity_mc import (And, Bot, Box, Dia, Or, ParseError, Top, Var,
                         enumerate_formulas, parse_formula, parse_sequent,
                         print_formula, print_sequent)
from polarity_mc.formula import BOT, TOP, depth_of, sort_key

from oracles import count_formulas


def test_parse_mixed_example():
    phi = parse_formula("box(p | q) & dia r")
    assert phi == And(Box(Or(Var("p"), Var("q"))), Dia(Var("r")))


def test_parse_constants():
    assert parse_formula("top") == TOP
    assert parse_formula("bot") == BOT


def test_precedence_and_binds_tighter():
    assert parse_formula("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))


def test_left_associativity():
    assert parse_formula("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
    assert parse_formula("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))


def test_modalities_bind_tightest():
    assert parse_formula("box p & q") == And(Box(Var("p")), Var("q"))
    assert parse_formula("dia box p") == Dia(Box(Var("p")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p & ")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError, match="unknown token"):
        parse_formula("p & Q")
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("(p | q")


def test_parse_sequent():
    seq = parse_sequent("p & q |- box p")
    assert seq.lhs == And(Var("p"), Var("q"))
    assert seq.rhs == Box(Var("p"))
    assert print_sequent(seq) == "p & q |- box p"
    with pytest.raises(ParseError):
        parse_sequent("p , q")


@st.composite
def formulas(draw, max_depth=4):
    if max_depth == 0:
        return draw(st.sampled_from([Var("p"), Var("q"), Var("r_1"), TOP, BOT]))
    kind = draw(st.integers(0, 6))
    if kind <= 2:
        return draw(formulas(max_depth=0))
    if kind == 3:
        return Box(draw(formulas(max_depth=max_depth - 1)))
    if kind == 4:
        return Dia(draw(formulas(max_depth=max_depth - 1)))
    left = draw(formulas(max_depth=max_depth - 1))
    right = draw(formulas(max_depth=max_depth - 1))
    return And(left, right) if kind == 5 else Or(left, right)


@settings(max_examples=300)
@given(formulas())
def test_print_parse_round_trip(phi):
    assert parse_formula(print_formula(phi)) == phi


def test_enumerate_depth_zero():
    assert enumerate_formulas(["p"], 0) == [Var("p"), TOP, BOT]


def test_enumerate_depth_one_contents():
    out = enumerate_formulas(["p"], 1)
    assert Box(Var("p")) in out
    assert Dia(Var("p")) in out
    assert And(Var("p"), TOP) in out  # canonicalized argument order
    assert all(depth_of(f) <= 1 for f in out)
    assert len(out) == count_formulas(1, 1)


def test_enumerate_no_duplicates_and_canonical():
    out = enumerate_formulas(["p", "q"], 2)
    assert len(out) == len(set(out))
    for f in out:
        if isinstance(f, (And, Or)):
            assert sort_key(f.left) < sort_key(f.right)


def test_enumerate_count_matches_recursive_counter():
    assert len(enumerate_formulas(["p", "q"], 2)) == count_formulas(2, 2) == 604


def test_enumerate_depth_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_formulas(["p"], 4)
    # explicit cap raise is allowed
    assert enumerate_formulas(["p"], 0, cap=0) == [Var("p"), TOP, BOT]


def test_print_examples():
    assert print_formula(parse_formula("box(p|q) & dia r")) == "box(p | q) & dia r"
    assert print_formula(Or(Var("p"), And(Var("q"), Var("r")))) == "p | q & r"
    assert print_formula(And(Or(Var("p"), Var("q")), Var("r"))) == "(p | q) & r"
