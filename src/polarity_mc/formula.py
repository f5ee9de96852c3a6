"""Modal formulas: AST, surface parser, printer, and bounded enumeration.

Surface grammar: variables ``[a-z][a-zA-Z0-9_]*``, constants ``top`` and
``bot``, prefix ``box``/``dia``, infix ``&`` and ``|``, parentheses.
``box``/``dia`` bind tighter than ``&``, which binds tighter than ``|``;
both binary operators are left-associative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ModalFormula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(ModalFormula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(ModalFormula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(ModalFormula):
    pass


@dataclass(frozen=True, slots=True)
class And(ModalFormula):
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True, slots=True)
class Or(ModalFormula):
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True, slots=True)
class Box(ModalFormula):
    inner: ModalFormula


@dataclass(frozen=True, slots=True)
class Dia(ModalFormula):
    inner: ModalFormula


TOP = Top()
BOT = Bot()


@dataclass(frozen=True, slots=True)
class Sequent:
    lhs: ModalFormula
    rhs: ModalFormula


def size_of(phi: ModalFormula) -> int:
    if isinstance(phi, (Var, Top, Bot)):
        return 1
    if isinstance(phi, (And, Or)):
        return 1 + size_of(phi.left) + size_of(phi.right)
    return 1 + size_of(phi.inner)


def depth_of(phi: ModalFormula) -> int:
    """Connective-nesting depth; atoms have depth 0."""
    if isinstance(phi, (Var, Top, Bot)):
        return 0
    if isinstance(phi, (And, Or)):
        return 1 + max(depth_of(phi.left), depth_of(phi.right))
    return 1 + depth_of(phi.inner)


_TOKEN = re.compile(r"[a-z][a-zA-Z0-9_]*|[&|()]|\s+|.")
_KEYWORDS = {"top", "bot", "box", "dia"}


def _tokenize(text: str) -> List[Tuple[str, int, int]]:
    tokens = []
    line, col = 1, 1
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok.isspace():
            newlines = tok.count("\n")
            if newlines:
                line += newlines
                col = len(tok) - tok.rfind("\n")
            else:
                col += len(tok)
            continue
        if not (tok in "&|()" or re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok)):
            raise ParseError(f"unknown token {tok!r}", line, col)
        tokens.append((tok, line, col))
        col += len(tok)
    tokens.append(("<end>", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> str:
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def fail(self, message: str):
        _, line, col = self.tokens[self.pos]
        raise ParseError(message, line, col)

    def expect(self, tok: str):
        if self.peek() != tok:
            self.fail(f"expected {tok!r}, found {self.peek()!r}")
        self.advance()

    def or_expr(self) -> ModalFormula:
        node = self.and_expr()
        while self.peek() == "|":
            self.advance()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> ModalFormula:
        node = self.unary()
        while self.peek() == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> ModalFormula:
        tok = self.peek()
        if tok == "box":
            self.advance()
            return Box(self.unary())
        if tok == "dia":
            self.advance()
            return Dia(self.unary())
        return self.atom()

    def atom(self) -> ModalFormula:
        tok = self.peek()
        if tok == "(":
            self.advance()
            node = self.or_expr()
            self.expect(")")
            return node
        if tok == "top":
            self.advance()
            return TOP
        if tok == "bot":
            self.advance()
            return BOT
        if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok) and tok not in _KEYWORDS:
            self.advance()
            return Var(tok)
        self.fail(f"expected a formula, found {tok!r}")


def parse_formula(text: str) -> ModalFormula:
    parser = _Parser(text)
    node = parser.or_expr()
    if parser.peek() != "<end>":
        parser.fail(f"unexpected trailing input {parser.peek()!r}")
    return node


def parse_sequent(text: str) -> Sequent:
    if "|-" not in text:
        raise ParseError("a sequent needs a |- separator", 1, 1)
    lhs, _, rhs = text.partition("|-")
    return Sequent(parse_formula(lhs), parse_formula(rhs))


def print_formula(phi: ModalFormula) -> str:
    # Precedence levels: | is 0, & is 1, box/dia arguments need level 2.
    def render(f: ModalFormula, level: int) -> str:
        if isinstance(f, Var):
            return f.name
        if isinstance(f, Top):
            return "top"
        if isinstance(f, Bot):
            return "bot"
        if isinstance(f, (Box, Dia)):
            name = "box" if isinstance(f, Box) else "dia"
            if isinstance(f.inner, (And, Or)):
                return name + "(" + render(f.inner, 0) + ")"
            return name + " " + render(f.inner, 2)
        if isinstance(f, And):
            text = render(f.left, 1) + " & " + render(f.right, 2)
            return "(" + text + ")" if level > 1 else text
        text = render(f.left, 0) + " | " + render(f.right, 1)
        return "(" + text + ")" if level > 0 else text

    return render(phi, 0)


def print_sequent(seq: Sequent) -> str:
    return f"{print_formula(seq.lhs)} |- {print_formula(seq.rhs)}"


def sort_key(phi: ModalFormula):
    """Total order on formulas used by the canonical form of enumeration."""
    if isinstance(phi, Var):
        return (0, phi.name)
    if isinstance(phi, Top):
        return (1,)
    if isinstance(phi, Bot):
        return (2,)
    if isinstance(phi, Box):
        return (3, sort_key(phi.inner))
    if isinstance(phi, Dia):
        return (4, sort_key(phi.inner))
    if isinstance(phi, And):
        return (5, sort_key(phi.left), sort_key(phi.right))
    return (6, sort_key(phi.left), sort_key(phi.right))


DEPTH_CAP = 3


def enumerate_formulas(vocab: Sequence[str], depth: int,
                       cap: int = DEPTH_CAP) -> List[ModalFormula]:
    """All canonical formulas over vocab + {top, bot} up to the given depth.

    Canonical form: arguments of & and | are sorted by :func:`sort_key` and
    distinct, which quotients out commutativity and idempotence. Every
    canonical formula of connective-nesting depth <= depth appears exactly
    once, ordered by depth and then construction order.
    """
    if depth > cap:
        raise ValueError(f"depth {depth} exceeds cap {cap}")
    atoms: List[ModalFormula] = [Var(v) for v in sorted(vocab)] + [TOP, BOT]
    levels: List[List[ModalFormula]] = [atoms]
    for d in range(1, depth + 1):
        below = [f for level in levels for f in level]
        exact = levels[-1]
        new: List[ModalFormula] = []
        new.extend(Box(f) for f in exact)
        new.extend(Dia(f) for f in exact)
        keyed = sorted(below, key=sort_key)
        deepest = set(map(id, exact))
        for i, f in enumerate(keyed):
            for g in keyed[i + 1:]:
                if id(f) in deepest or id(g) in deepest:
                    new.append(And(f, g))
        for i, f in enumerate(keyed):
            for g in keyed[i + 1:]:
                if id(f) in deepest or id(g) in deepest:
                    new.append(Or(f, g))
        levels.append(new)
    return [f for level in levels for f in level]

