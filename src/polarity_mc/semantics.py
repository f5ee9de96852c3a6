"""Satisfaction on LE-models: modal clauses, algebraic extensions, sequents, FOL.

Two deliberately independent routes compute modal truth. ``sat_sets``
follows the satisfaction-table clauses literally (universal quantifiers
over the carriers), while ``extension`` composes complex-algebra
operations on concepts. They must agree; the test suite checks this, and
nothing here assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from . import fol
from . import formula as fm
from .model import Concept, LEModel, bottom_concept, rel_preimage, top_concept


class UnknownVariable(KeyError):
    pass


def _val(model: LEModel, name: str) -> Concept:
    try:
        return model.valuation[name]
    except KeyError:
        raise UnknownVariable(f"variable {name!r} not in the model's valuation") from None


def sat_sets(model: LEModel, phi: fm.ModalFormula,
             memo: Optional[dict] = None) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(supporting objects, describing attributes) by the satisfaction clauses.

    This is the clause route: every case is a direct transcription of the
    satisfaction table, with the universal clauses evaluated by explicit
    iteration over the carrier. No Galois closures, no lattice operations.
    """
    if memo is None:
        memo = {}
    entry = memo.get(id(phi))
    if entry is not None and entry[0] is phi:
        return entry[1]
    pol = model.polarity
    A, X, I = pol.objects, pol.attributes, pol.incidence

    def attrs_above(objs):
        return frozenset(x for x in X if all((a, x) in I for a in objs))

    def objs_below(attrs):
        return frozenset(a for a in A if all((a, x) in I for x in attrs))

    if isinstance(phi, fm.Var):
        c = _val(model, phi.name)
        result = (c.extent, c.intent)
    elif isinstance(phi, fm.Top):
        result = (frozenset(A), attrs_above(A))
    elif isinstance(phi, fm.Bot):
        result = (objs_below(X), frozenset(X))
    elif isinstance(phi, fm.And):
        la, _ = sat_sets(model, phi.left, memo)
        ra, _ = sat_sets(model, phi.right, memo)
        support = la & ra
        result = (support, attrs_above(support))
    elif isinstance(phi, fm.Or):
        _, lx = sat_sets(model, phi.left, memo)
        _, rx = sat_sets(model, phi.right, memo)
        described = lx & rx
        result = (objs_below(described), described)
    elif isinstance(phi, fm.Box):
        _, inner_x = sat_sets(model, phi.inner, memo)
        support = frozenset(a for a in A
                            if all((a, x) in model.r_box for x in inner_x))
        result = (support, attrs_above(support))
    elif isinstance(phi, fm.Dia):
        inner_a, _ = sat_sets(model, phi.inner, memo)
        described = frozenset(x for x in X
                              if all((x, a) in model.r_dia for a in inner_a))
        result = (objs_below(described), described)
    else:
        raise TypeError(f"not a ModalFormula: {phi!r}")
    memo[id(phi)] = (phi, result)
    return result


def satisfies_a(model: LEModel, a: str, phi: fm.ModalFormula,
                memo: Optional[dict] = None) -> bool:
    """Whether object a supports phi (the relation written with a forcing turnstile)."""
    model.polarity.check_objects([a])
    return a in sat_sets(model, phi, memo)[0]


def satisfies_x(model: LEModel, x: str, phi: fm.ModalFormula,
                memo: Optional[dict] = None) -> bool:
    """Whether attribute x describes phi (the dual satisfaction relation)."""
    model.polarity.check_attributes([x])
    return x in sat_sets(model, phi, memo)[1]


def extension(model: LEModel, phi: fm.ModalFormula,
              memo: Optional[dict] = None) -> Concept:
    """The concept denoted by phi, via the complex-algebra operators.

    Variables come from the valuation; top and bot are the lattice bounds;
    meet intersects extents, join intersects intents; box and dia apply the
    R_box/R_dia preimage formulas. This is the algebraic route, independent
    of the satisfaction clauses.
    """
    if memo is None:
        memo = {}
    entry = memo.get(id(phi))
    if entry is not None and entry[0] is phi:
        return entry[1]
    pol = model.polarity
    if isinstance(phi, fm.Var):
        result = _val(model, phi.name)
    elif isinstance(phi, fm.Top):
        result = top_concept(pol)
    elif isinstance(phi, fm.Bot):
        result = bottom_concept(pol)
    elif isinstance(phi, fm.And):
        ext = extension(model, phi.left, memo).extent & extension(model, phi.right, memo).extent
        result = Concept(ext, pol.up(ext))
    elif isinstance(phi, fm.Or):
        itt = extension(model, phi.left, memo).intent & extension(model, phi.right, memo).intent
        result = Concept(pol.down(itt), itt)
    elif isinstance(phi, fm.Box):
        ext = rel_preimage(model, "box", extension(model, phi.inner, memo).intent, 0)
        result = Concept(ext, pol.up(ext))
    elif isinstance(phi, fm.Dia):
        itt = rel_preimage(model, "dia", extension(model, phi.inner, memo).extent, 0)
        result = Concept(pol.down(itt), itt)
    else:
        raise TypeError(f"not a ModalFormula: {phi!r}")
    memo[id(phi)] = (phi, result)
    return result


def models_sequent(model: LEModel, seq: fm.Sequent) -> bool:
    """Extent inclusion of the left-hand side in the right-hand side."""
    memo: dict = {}
    return extension(model, seq.lhs, memo).extent <= extension(model, seq.rhs, memo).extent


@dataclass(frozen=True)
class SortedValuation:
    """Assignments for the two sorted variable families of the FO language."""

    gvals: Mapping[str, str] = field(default_factory=dict)
    mvals: Mapping[str, str] = field(default_factory=dict)

    def with_g(self, var: str, value: str) -> "SortedValuation":
        g = dict(self.gvals)
        g[var] = value
        return SortedValuation(g, self.mvals)

    def with_m(self, var: str, value: str) -> "SortedValuation":
        m = dict(self.mvals)
        m[var] = value
        return SortedValuation(self.gvals, m)


class UnboundVariable(KeyError):
    pass


def fol_eval(model: LEModel, phi: fol.FOFormula, v: SortedValuation) -> bool:
    """Tarskian evaluation of a two-sorted formula, by direct recursion.

    Object-sort quantifiers range over A, attribute-sort quantifiers over
    X. Free variables must be assigned in ``v`` at the correct sort.
    """

    def lookup(table, var, sort):
        try:
            return table[var]
        except KeyError:
            raise UnboundVariable(f"{sort}-sort variable {var!r} is unbound") from None

    def geval(var):
        a = lookup(v.gvals, var, fol.G)
        model.polarity.check_objects([a])
        return a

    def meval(var):
        x = lookup(v.mvals, var, fol.M)
        model.polarity.check_attributes([x])
        return x

    f = phi
    if isinstance(f, fol.Eq):
        if f.sort == fol.G:
            return geval(f.left) == geval(f.right)
        return meval(f.left) == meval(f.right)
    if isinstance(f, fol.PredA):
        return geval(f.var) in _val(model, f.prop).extent
    if isinstance(f, fol.PredX):
        return meval(f.var) in _val(model, f.prop).intent
    if isinstance(f, fol.AtomI):
        return (geval(f.gvar), meval(f.mvar)) in model.polarity.incidence
    if isinstance(f, fol.AtomRbox):
        return (geval(f.gvar), meval(f.mvar)) in model.r_box
    if isinstance(f, fol.AtomRdia):
        return (meval(f.mvar), geval(f.gvar)) in model.r_dia
    if isinstance(f, fol.Not):
        return not fol_eval(model, f.body, v)
    if isinstance(f, fol.FAnd):
        return fol_eval(model, f.left, v) and fol_eval(model, f.right, v)
    if isinstance(f, fol.FOr):
        return fol_eval(model, f.left, v) or fol_eval(model, f.right, v)
    if isinstance(f, fol.Implies):
        return (not fol_eval(model, f.left, v)) or fol_eval(model, f.right, v)
    if isinstance(f, fol.Forall):
        carrier = model.objects if f.sort == fol.G else model.attributes
        extend = v.with_g if f.sort == fol.G else v.with_m
        return all(fol_eval(model, f.body, extend(f.var, u)) for u in carrier)
    if isinstance(f, fol.Exists):
        carrier = model.objects if f.sort == fol.G else model.attributes
        extend = v.with_g if f.sort == fol.G else v.with_m
        return any(fol_eval(model, f.body, extend(f.var, u)) for u in carrier)
    raise TypeError(f"not an FOFormula: {phi!r}")


def fol_assignments(model: LEModel, phi: fol.FOFormula) -> Dict[Tuple[Tuple[str, str], ...], bool]:
    """Truth of phi under every assignment of its free variables.

    Returns a table keyed by the sorted tuple of (variable, value) pairs.
    Computed bottom-up, joining sub-tables on shared variables, so bulk
    queries stay polynomial where repeated pointwise fol_eval would not.
    """

    def carrier(sort):
        return model.objects if sort == fol.G else model.attributes

    def table(f: fol.FOFormula):
        # Returns (vars, rows): vars is a sorted tuple of (name, sort),
        # rows maps value tuples (aligned with vars) to bool.
        if isinstance(f, fol.Eq):
            if f.left == f.right:
                vars_ = ((f.left, f.sort),)
                return vars_, {(u,): True for u in carrier(f.sort)}
            vars_ = tuple(sorted({(f.left, f.sort), (f.right, f.sort)}))
            return vars_, {(u, w): u == w
                           for u in carrier(f.sort) for w in carrier(f.sort)}
        if isinstance(f, fol.PredA):
            ext = _val(model, f.prop).extent
            return ((f.var, fol.G),), {(a,): a in ext for a in model.objects}
        if isinstance(f, fol.PredX):
            itt = _val(model, f.prop).intent
            return ((f.var, fol.M),), {(x,): x in itt for x in model.attributes}
        if isinstance(f, (fol.AtomI, fol.AtomRbox, fol.AtomRdia)):
            if isinstance(f, fol.AtomI):
                rel, gv, mv = model.polarity.incidence, f.gvar, f.mvar
                member = lambda a, x: (a, x) in rel
            elif isinstance(f, fol.AtomRbox):
                rel, gv, mv = model.r_box, f.gvar, f.mvar
                member = lambda a, x: (a, x) in rel
            else:
                rel, gv, mv = model.r_dia, f.gvar, f.mvar
                member = lambda a, x: (x, a) in rel
            vars_ = tuple(sorted([(gv, fol.G), (mv, fol.M)]))
            rows = {}
            for a in model.objects:
                for x in model.attributes:
                    key = tuple(a if name == gv else x for name, _ in vars_)
                    rows[key] = member(a, x)
            return vars_, rows
        if isinstance(f, fol.Not):
            vars_, rows = table(f.body)
            return vars_, {k: not b for k, b in rows.items()}
        if isinstance(f, (fol.FAnd, fol.FOr, fol.Implies)):
            lv, lr = table(f.left)
            rv, rr = table(f.right)
            vars_ = tuple(sorted(set(lv) | set(rv)))
            li = [vars_.index(v) for v in lv]
            ri = [vars_.index(v) for v in rv]
            domains = [carrier(s) for _, s in vars_]
            rows = {}

            def combine(lb, rb):
                if isinstance(f, fol.FAnd):
                    return lb and rb
                if isinstance(f, fol.FOr):
                    return lb or rb
                return (not lb) or rb

            def fill(prefix):
                if len(prefix) == len(vars_):
                    key = tuple(prefix)
                    rows[key] = combine(lr[tuple(key[i] for i in li)],
                                        rr[tuple(key[i] for i in ri)])
                    return
                for u in domains[len(prefix)]:
                    fill(prefix + [u])

            fill([])
            return vars_, rows
        if isinstance(f, (fol.Forall, fol.Exists)):
            bv, br = table(f.body)
            names = [name for name, _ in bv]
            if f.var not in names:
                # Vacuous quantifier; over an empty carrier forall is true.
                dom = carrier(f.sort)
                if isinstance(f, fol.Forall):
                    return bv, dict(br) if dom else {k: True for k in br}
                return bv, dict(br) if dom else {k: False for k in br}
            qi = names.index(f.var)
            vars_ = tuple(v for v in bv if v[0] != f.var)
            dom = carrier(f.sort)
            rows = {}
            grouped: Dict[tuple, list] = {}
            for key, b in br.items():
                rest = key[:qi] + key[qi + 1:]
                grouped.setdefault(rest, []).append(b)
            for rest in _all_keys(vars_, carrier):
                values = grouped.get(rest, [])
                if isinstance(f, fol.Forall):
                    rows[rest] = all(values) if dom else True
                else:
                    rows[rest] = any(values) if dom else False
            return vars_, rows
        raise TypeError(f"not an FOFormula: {f!r}")

    def _all_keys(vars_, carrier):
        keys = [()]
        for _, sort in vars_:
            keys = [k + (u,) for k in keys for u in carrier(sort)]
        return keys

    vars_, rows = table(phi)
    out = {}
    for key, b in rows.items():
        out[tuple(zip((name for name, _ in vars_), key))] = b
    return out


def fol_sat_points(model: LEModel, phi: fol.FOFormula, var: str) -> FrozenSet[str]:
    """The set of values of ``var`` (its formula's only free variable) making phi true."""
    fv = fol.free_vars(phi)
    if {name for name, _ in fv} != {var}:
        raise ValueError(f"expected {var!r} as the unique free variable, got {sorted(fv)}")
    rows = fol_assignments(model, phi)
    return frozenset(dict(key)[var] for key, b in rows.items() if b)
