"""Two-sorted first-order language over polarities, and the standard translation.

Object-sort variables (sort "G") range over A, attribute-sort variables
(sort "M") over X. Atoms are sorted equality, the per-propositional-variable
predicates PA_p / PX_p, and the relations I, Rbox, Rdia.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set, Tuple

from . import formula as fm
from .model import SortError

G = "G"  # object sort
M = "M"  # attribute sort


def bad_sort(sort: str) -> SortError:
    """The error for an ``Eq``/``Forall``/``Exists`` whose sort is neither G
    nor M. Constructors do not check sorts; the evaluators and
    :func:`free_vars` raise this when they reach such a node."""
    return SortError(f"unknown sort {sort!r}: expected {G!r} or {M!r}")


class FOFormula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Eq(FOFormula):
    left: str
    right: str
    sort: str


@dataclass(frozen=True, slots=True)
class PredA(FOFormula):
    """Membership of an object variable in the extent of a propositional variable."""
    prop: str
    var: str


@dataclass(frozen=True, slots=True)
class PredX(FOFormula):
    """Membership of an attribute variable in the intent of a propositional variable."""
    prop: str
    var: str


@dataclass(frozen=True, slots=True)
class AtomI(FOFormula):
    gvar: str
    mvar: str


@dataclass(frozen=True, slots=True)
class AtomRbox(FOFormula):
    gvar: str
    mvar: str


@dataclass(frozen=True, slots=True)
class AtomRdia(FOFormula):
    mvar: str
    gvar: str


@dataclass(frozen=True, slots=True)
class Not(FOFormula):
    body: FOFormula


@dataclass(frozen=True, slots=True)
class FAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True, slots=True)
class FOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True, slots=True)
class Implies(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True, slots=True)
class Forall(FOFormula):
    var: str
    sort: str
    body: FOFormula


@dataclass(frozen=True, slots=True)
class Exists(FOFormula):
    var: str
    sort: str
    body: FOFormula


def free_vars(phi: FOFormula) -> FrozenSet[Tuple[str, str]]:
    """The free (variable, sort) pairs of a formula.

    A quantifier binds its variable at its own sort only: the same name
    used at the other sort stays free.
    """

    def walk(f: FOFormula, bound: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
        if isinstance(f, (Eq, Forall, Exists)) and f.sort != G and f.sort != M:
            raise bad_sort(f.sort)
        if isinstance(f, Eq):
            return {(v, f.sort) for v in (f.left, f.right)} - bound
        if isinstance(f, PredA):
            return {(f.var, G)} - bound
        if isinstance(f, PredX):
            return {(f.var, M)} - bound
        if isinstance(f, (AtomI, AtomRbox, AtomRdia)):
            return {(f.gvar, G), (f.mvar, M)} - bound
        if isinstance(f, Not):
            return walk(f.body, bound)
        if isinstance(f, (FAnd, FOr, Implies)):
            return walk(f.left, bound) | walk(f.right, bound)
        if isinstance(f, (Forall, Exists)):
            return walk(f.body, bound | {(f.var, f.sort)})
        raise TypeError(f"not an FOFormula: {f!r}")

    return frozenset(walk(phi, set()))


def fo_size(phi: FOFormula) -> int:
    if isinstance(phi, (Eq, PredA, PredX, AtomI, AtomRbox, AtomRdia)):
        return 1
    if isinstance(phi, Not):
        return 1 + fo_size(phi.body)
    if isinstance(phi, (FAnd, FOr, Implies)):
        return 1 + fo_size(phi.left) + fo_size(phi.right)
    return 1 + fo_size(phi.body)


def print_fo(phi: FOFormula) -> str:
    """Render in the CLI surface form: ``forall m0:M. (...)``, ``PA_p(g)`` etc.

    Precedence: ~ binds tightest, then /\\, then \\/, then -> (right
    associative); quantifier bodies are always parenthesized.
    """

    def render(f: FOFormula, level: int) -> str:
        if isinstance(f, Eq):
            return f"{f.left} = {f.right}"
        if isinstance(f, PredA):
            return f"PA_{f.prop}({f.var})"
        if isinstance(f, PredX):
            return f"PX_{f.prop}({f.var})"
        if isinstance(f, AtomI):
            return f"I({f.gvar},{f.mvar})"
        if isinstance(f, AtomRbox):
            return f"Rbox({f.gvar},{f.mvar})"
        if isinstance(f, AtomRdia):
            return f"Rdia({f.mvar},{f.gvar})"
        if isinstance(f, Not):
            return "~" + render(f.body, 4)
        if isinstance(f, FAnd):
            text = render(f.left, 3) + " /\\ " + render(f.right, 4)
            return "(" + text + ")" if level > 3 else text
        if isinstance(f, FOr):
            text = render(f.left, 2) + " \\/ " + render(f.right, 3)
            return "(" + text + ")" if level > 2 else text
        if isinstance(f, Implies):
            text = render(f.left, 2) + " -> " + render(f.right, 1)
            return "(" + text + ")" if level > 1 else text
        if isinstance(f, (Forall, Exists)):
            word = "forall" if isinstance(f, Forall) else "exists"
            text = f"{word} {f.var}:{f.sort}. ({render(f.body, 0)})"
            return "(" + text + ")" if level > 0 else text
        raise TypeError(f"not an FOFormula: {f!r}")

    return render(phi, 0)


class _Fresh:
    """Left-to-right supply of bound variables g0, g1, ... / m0, m1, ..."""

    def __init__(self):
        self.g = 0
        self.m = 0

    def gvar(self) -> str:
        name = f"g{self.g}"
        self.g += 1
        return name

    def mvar(self) -> str:
        name = f"m{self.m}"
        self.m += 1
        return name


def st_g(phi: fm.ModalFormula, gvar: str = "g") -> FOFormula:
    """Object-sort standard translation; ``gvar`` is the single free variable."""
    return _st_g(phi, gvar, _Fresh())


def st_m(phi: fm.ModalFormula, mvar: str = "m") -> FOFormula:
    """Attribute-sort standard translation; ``mvar`` is the single free variable."""
    return _st_m(phi, mvar, _Fresh())


def _st_g(phi: fm.ModalFormula, g: str, fresh: _Fresh) -> FOFormula:
    if isinstance(phi, fm.Var):
        return PredA(phi.name, g)
    if isinstance(phi, fm.Top):
        return Eq(g, g, G)
    if isinstance(phi, fm.Bot):
        m = fresh.mvar()
        return Forall(m, M, AtomI(g, m))
    if isinstance(phi, fm.And):
        return FAnd(_st_g(phi.left, g, fresh), _st_g(phi.right, g, fresh))
    if isinstance(phi, fm.Or):
        m = fresh.mvar()
        body = FAnd(_st_m(phi.left, m, fresh), _st_m(phi.right, m, fresh))
        return Forall(m, M, Implies(body, AtomI(g, m)))
    if isinstance(phi, fm.Box):
        m = fresh.mvar()
        return Forall(m, M, Implies(_st_m(phi.inner, m, fresh), AtomRbox(g, m)))
    if isinstance(phi, fm.Dia):
        m = fresh.mvar()
        return Forall(m, M, Implies(_st_m(phi, m, fresh), AtomI(g, m)))
    raise TypeError(f"not a ModalFormula: {phi!r}")


def _st_m(phi: fm.ModalFormula, m: str, fresh: _Fresh) -> FOFormula:
    if isinstance(phi, fm.Var):
        return PredX(phi.name, m)
    if isinstance(phi, fm.Top):
        g = fresh.gvar()
        return Forall(g, G, AtomI(g, m))
    if isinstance(phi, fm.Bot):
        return Eq(m, m, M)
    if isinstance(phi, fm.And):
        g = fresh.gvar()
        body = FAnd(_st_g(phi.left, g, fresh), _st_g(phi.right, g, fresh))
        return Forall(g, G, Implies(body, AtomI(g, m)))
    if isinstance(phi, fm.Or):
        return FAnd(_st_m(phi.left, m, fresh), _st_m(phi.right, m, fresh))
    if isinstance(phi, fm.Box):
        g = fresh.gvar()
        return Forall(g, G, Implies(_st_g(phi, g, fresh), AtomI(g, m)))
    if isinstance(phi, fm.Dia):
        g = fresh.gvar()
        return Forall(g, G, Implies(_st_g(phi.inner, g, fresh), AtomRdia(m, g)))
    raise TypeError(f"not a ModalFormula: {phi!r}")
