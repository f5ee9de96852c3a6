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
from .model import (Concept, LEModel, SortError, bottom_concept, rel_preimage,
                    top_concept)


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


class UnboundVariable(KeyError):
    pass


_UNSET = object()


def fol_eval(model: LEModel, phi: fol.FOFormula, v: SortedValuation) -> bool:
    """Tarskian evaluation of a two-sorted formula, by direct recursion.

    Object-sort quantifiers range over A, attribute-sort quantifiers over
    X. Free variables must be assigned in ``v`` at the correct sort. A
    variable is looked up, and its value sort-checked, only when its atom
    is reached, so a branch that is short-circuited away raises nothing.
    """
    pol = model.polarity
    objects, attributes = pol.objects, pol.attributes
    object_set, attribute_set = pol._object_set, pol._attribute_set
    incidence, r_box, r_dia = pol.incidence, model.r_box, model.r_dia
    # One environment per sort, set and restored around each quantifier step.
    genv, menv = dict(v.gvals), dict(v.mvals)

    def gval(var):
        try:
            a = genv[var]
        except KeyError:
            raise UnboundVariable(f"{fol.G}-sort variable {var!r} is unbound") from None
        if a not in object_set:
            raise SortError(f"unknown object identifiers: {[a]}")
        return a

    def mval(var):
        try:
            x = menv[var]
        except KeyError:
            raise UnboundVariable(f"{fol.M}-sort variable {var!r} is unbound") from None
        if x not in attribute_set:
            raise SortError(f"unknown attribute identifiers: {[x]}")
        return x

    def ev(f) -> bool:
        t = type(f)
        if t is fol.Forall or t is fol.Exists:
            env, carrier = (genv, objects) if f.sort == fol.G else (menv, attributes)
            var, body = f.var, f.body
            saved = env.get(var, _UNSET)
            if t is fol.Forall:
                result = True
                for u in carrier:
                    env[var] = u
                    if not ev(body):
                        result = False
                        break
            else:
                result = False
                for u in carrier:
                    env[var] = u
                    if ev(body):
                        result = True
                        break
            if saved is _UNSET:
                env.pop(var, None)
            else:
                env[var] = saved
            return result
        if t is fol.Implies:
            return (not ev(f.left)) or ev(f.right)
        if t is fol.FAnd:
            return ev(f.left) and ev(f.right)
        if t is fol.FOr:
            return ev(f.left) or ev(f.right)
        if t is fol.Not:
            return not ev(f.body)
        if t is fol.AtomI:
            return (gval(f.gvar), mval(f.mvar)) in incidence
        if t is fol.AtomRbox:
            return (gval(f.gvar), mval(f.mvar)) in r_box
        if t is fol.AtomRdia:
            return (mval(f.mvar), gval(f.gvar)) in r_dia
        if t is fol.PredA:
            return gval(f.var) in _val(model, f.prop).extent
        if t is fol.PredX:
            return mval(f.var) in _val(model, f.prop).intent
        if t is fol.Eq:
            if f.sort == fol.G:
                return gval(f.left) == gval(f.right)
            return mval(f.left) == mval(f.right)
        raise TypeError(f"not an FOFormula: {f!r}")

    return ev(phi)


def fol_assignments(model: LEModel, phi: fol.FOFormula) -> Dict[Tuple[Tuple[str, str], ...], bool]:
    """Truth of phi under every assignment of its free variables.

    Returns a table keyed by the sorted tuple of (variable, value) pairs.
    Computed bottom-up, joining sub-tables on shared (variable, sort)
    pairs, so bulk queries stay polynomial where repeated pointwise
    fol_eval would not.
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
                    key = tuple(a if sort == fol.G else x for _, sort in vars_)
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
            bound = (f.var, f.sort)
            if bound not in bv:
                # Vacuous quantifier; over an empty carrier forall is true.
                dom = carrier(f.sort)
                if isinstance(f, fol.Forall):
                    return bv, dict(br) if dom else {k: True for k in br}
                return bv, dict(br) if dom else {k: False for k in br}
            qi = bv.index(bound)
            vars_ = bv[:qi] + bv[qi + 1:]
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


class _Wide(Exception):
    """A subformula with two free variables of one sort, or an equation
    between distinct variables: outside the shape :func:`_mask_table` reads."""


def _mask_table(model: LEModel, phi: fol.FOFormula):
    """phi as ``(g, m, value)``: its free object and attribute variable
    names (None where a sort has none) and its truth table as masks.

    ``value`` is 0/1 when phi is closed, a mask over A (or X) when only g
    (or only m) is free, and a list of X-masks, one per object, when both
    are. Raises _Wide for any other shape. Assumes non-empty carriers, so a
    vacuous quantifier leaves its body's table unchanged.
    """
    bits = model.bits
    pol = bits.pol
    objs, attrs = pol.objs, pol.attrs
    fa, fx, n = objs.full, attrs.full, len(objs.names)
    fulls = {(False, False): 1, (True, False): fa, (False, True): fx}

    def lift(g, m, value, to_g, to_m):
        # The table of a subformula with free variables g and m (or None),
        # widened to the sorts to_g/to_m free in the enclosing connective;
        # it is constant along a sort it gains.
        if not to_m:
            return fa if to_g and g is None and value else value
        if not to_g:
            return fx if m is None and value else value
        if g is None and m is None:
            return [fx if value else 0] * n
        if g is None:
            return [value] * n
        if m is None:
            return [fx if value >> i & 1 else 0 for i in range(n)]
        return value

    def ev(f):
        t = type(f)
        if t is fol.Forall or t is fol.Exists:
            g, m, value = ev(f.body)
            univ = t is fol.Forall
            if f.sort != fol.G and f.sort != fol.M:
                raise _Wide
            if f.sort == fol.G:
                if g != f.var:
                    return g, m, value
                if m is None:
                    return None, None, int(value == fa if univ else value != 0)
                out = fx if univ else 0
                for row in value:
                    out = out & row if univ else out | row
                return None, m, out
            if m != f.var:
                return g, m, value
            if g is None:
                return None, None, int(value == fx if univ else value != 0)
            out = 0
            for i, row in enumerate(value):
                if (row == fx if univ else row != 0):
                    out |= 1 << i
            return g, None, out
        if t is fol.Implies or t is fol.FAnd or t is fol.FOr:
            lg, lm, lv = ev(f.left)
            rg, rm, rv = ev(f.right)
            if lg is not None and rg is not None and lg != rg \
                    or lm is not None and rm is not None and lm != rm:
                raise _Wide
            g = rg if lg is None else lg
            m = rm if lm is None else lm
            to_g, to_m = g is not None, m is not None
            lv = lift(lg, lm, lv, to_g, to_m)
            rv = lift(rg, rm, rv, to_g, to_m)
            if to_g and to_m:
                if t is fol.FAnd:
                    return g, m, [l & r for l, r in zip(lv, rv)]
                if t is fol.FOr:
                    return g, m, [l | r for l, r in zip(lv, rv)]
                return g, m, [(l ^ fx) | r for l, r in zip(lv, rv)]
            if t is fol.FAnd:
                return g, m, lv & rv
            if t is fol.FOr:
                return g, m, lv | rv
            return g, m, (lv ^ fulls[to_g, to_m]) | rv
        if t is fol.Not:
            g, m, value = ev(f.body)
            if g is not None and m is not None:
                return g, m, [row ^ fx for row in value]
            return g, m, value ^ fulls[g is not None, m is not None]
        if t is fol.AtomI:
            return f.gvar, f.mvar, pol.i_rows
        if t is fol.AtomRbox:
            return f.gvar, f.mvar, bits.box_rows
        if t is fol.AtomRdia:
            return f.gvar, f.mvar, bits.dia_cols
        if t is fol.PredA:
            return f.var, None, objs.mask(_val(model, f.prop).extent)
        if t is fol.PredX:
            return None, f.var, attrs.mask(_val(model, f.prop).intent)
        if t is fol.Eq:
            if f.left != f.right:
                raise _Wide
            if f.sort == fol.G:
                return f.left, None, fa
            if f.sort == fol.M:
                return None, f.left, fx
            raise _Wide
        raise TypeError(f"not an FOFormula: {f!r}")

    return ev(phi)


def fol_sat_points(model: LEModel, phi: fol.FOFormula, var: str) -> FrozenSet[str]:
    """The set of values of ``var`` (its formula's only free variable) making phi true.

    A formula with at most one free variable per sort in every subformula,
    and no equation between distinct variables, is evaluated as bit masks
    over the model's index (every standard translation has that shape);
    any other formula, and any model with an empty carrier, goes through
    the general dict join of :func:`fol_assignments`.
    """
    pol = model.polarity.bits
    if pol.objs.full and pol.attrs.full:
        try:
            g, m, value = _mask_table(model, phi)
        except (_Wide, UnknownVariable, TypeError):
            pass  # the route below raises the same errors in the same order
        else:
            if g is not None and g == var and m is None:
                return pol.objs.members(value)
            if m is not None and m == var and g is None:
                return pol.attrs.members(value)
    fv = fol.free_vars(phi)
    if len(fv) != 1 or next(iter(fv))[0] != var:
        raise ValueError(f"expected {var!r} as the unique free variable, got {sorted(fv)}")
    rows = fol_assignments(model, phi)
    return frozenset(dict(key)[var] for key, b in rows.items() if b)
