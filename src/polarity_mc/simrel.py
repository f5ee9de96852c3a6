"""Simulations and bisimulations between LE-models, and everything built on them.

The six simulation clauses quantify over the complements of I, R_box and
R_dia. Direction conventions (a recurring source of sign errors):

  forward_a   a1 ~> a2   every formula supported at a1 (model 1) is supported at a2
  forward_x   x1 ~> x2   every formula described at x1 transfers to x2
  backward_a  a1 <~ a2   forward_a with the models swapped
  backward_x  x1 <~ x2   forward_x with the models swapped

  greatest simulation 1->2 = (forward_a, backward_x)
  forward_x(x1, x2)  <=>  (x2, x1) in T of the greatest simulation 2->1

so the attribute component of a simulation runs against the transfer
direction; the Hennessy-Milner check encodes exactly this pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import formula as fm
from .lattice import (LATTICE_CAP, ConceptLattice, CapExceeded, box_op,
                      concept_lattice, dia_op)
from .model import Concept, LEModel, Polarity, positions
from .semantics import sat_sets

Pair = Tuple[str, str]
Relation = FrozenSet[Pair]


@dataclass(frozen=True)
class SimPair:
    """A candidate or computed (simulation) pair of relations.

    ``s`` relates objects of the left model to objects of the right,
    ``t`` attributes to attributes.
    """

    s: Relation
    t: Relation

    @staticmethod
    def make(s: Iterable[Pair], t: Iterable[Pair]) -> "SimPair":
        return SimPair(frozenset(tuple(p) for p in s), frozenset(tuple(p) for p in t))

    def converse(self) -> "SimPair":
        return SimPair(frozenset((b, a) for a, b in self.s),
                       frozenset((y, x) for x, y in self.t))


@dataclass(frozen=True)
class SimViolation:
    """One failed simulation clause, with the witnesses that break it."""

    clause: int               # 1..6, numbering of the definition
    direction: str            # "forward" or "backward" (converse leg of a bisimulation)
    pair: Pair                # the (left, right) pair the clause was checked at
    prop: Optional[str] = None      # clauses 1-2: the propositional variable
    unmatched: Optional[str] = None  # clauses 3-6: the element with no witness

    def __str__(self):
        where = f"{self.direction} clause {self.clause} at {self.pair}"
        if self.prop is not None:
            return f"{where}: propositional variable {self.prop!r}"
        return f"{where}: no witness for {self.unmatched!r}"


def _sorted_pairs(z: Relation, m1_names: Sequence[str], m2_names: Sequence[str],
                  what: str):
    left, right = set(m1_names), set(m2_names)
    for u, v in z:
        if u not in left or v not in right:
            raise ValueError(f"{what} pair {(u, v)!r} is not left-{what} x right-{what}")


def _shared_variables(m1: LEModel, m2: LEModel) -> Tuple[str, ...]:
    v1, v2 = set(m1.valuation), set(m2.valuation)
    if v1 != v2:
        raise ValueError(f"models interpret different variables: "
                         f"{sorted(v1 ^ v2)} not shared")
    return tuple(sorted(v1))


def is_simulation(m1: LEModel, m2: LEModel, z: SimPair) -> List[SimViolation]:
    """All violated clauses of the simulation definition, empty iff z is one."""
    return _simulation_violations(m1, m2, z, "forward")


def _simulation_violations(m1: LEModel, m2: LEModel, z: SimPair,
                           direction: str) -> List[SimViolation]:
    _sorted_pairs(z.s, m1.objects, m2.objects, "object")
    _sorted_pairs(z.t, m1.attributes, m2.attributes, "attribute")
    variables = _shared_variables(m1, m2)
    out: List[SimViolation] = []
    i1, i2 = m1.polarity.incidence, m2.polarity.incidence

    for a1, a2 in sorted(z.s):
        for p in variables:
            if a1 in m1.valuation[p].extent and a2 not in m2.valuation[p].extent:
                out.append(SimViolation(1, direction, (a1, a2), prop=p))
        for x2 in m2.attributes:
            if (a2, x2) in i2:
                continue
            if not any((a1, x1) not in i1 and (x1, x2) in z.t
                       for x1 in m1.attributes):
                out.append(SimViolation(3, direction, (a1, a2), unmatched=x2))
        for x2 in m2.attributes:
            if (a2, x2) in m2.r_box:
                continue
            if not any((a1, x1) not in m1.r_box and (x1, x2) in z.t
                       for x1 in m1.attributes):
                out.append(SimViolation(5, direction, (a1, a2), unmatched=x2))

    for x1, x2 in sorted(z.t):
        for p in variables:
            if x2 in m2.valuation[p].intent and x1 not in m1.valuation[p].intent:
                out.append(SimViolation(2, direction, (x1, x2), prop=p))
        for a1 in m1.objects:
            if (a1, x1) in i1:
                continue
            if not any((a2, x2) not in i2 and (a1, a2) in z.s
                       for a2 in m2.objects):
                out.append(SimViolation(4, direction, (x1, x2), unmatched=a1))
        for a1 in m1.objects:
            if (x1, a1) in m1.r_dia:
                continue
            if not any((x2, a2) not in m2.r_dia and (a1, a2) in z.s
                       for a2 in m2.objects):
                out.append(SimViolation(6, direction, (x1, x2), unmatched=a1))

    return out


def is_bisimulation(m1: LEModel, m2: LEModel, z: SimPair) -> List[SimViolation]:
    """Violations of z as a bisimulation: z forward plus its converse backward."""
    out = _simulation_violations(m1, m2, z, "forward")
    out.extend(_simulation_violations(m2, m1, z.converse(), "backward"))
    return out


class _MaskContext:
    """Complement rows and columns of I, R_box and R_dia for a model pair.

    Everything is read off the two models' bit indexes. Elements are
    declaration positions: S is one right-object mask per left object, T
    one right-attribute mask per left attribute. Left complements are kept
    as position lists (the clauses iterate them) and, for the converse
    attribute clauses, as masks; right complements as masks.
    """

    def __init__(self, m1: LEModel, m2: LEModel):
        self.variables = _shared_variables(m1, m2)
        b1, b2 = m1.bits, m2.bits
        p1, p2 = b1.pol, b2.pol
        self.objs1, self.attrs1 = p1.objs, p1.attrs
        self.objs2, self.attrs2 = p2.objs, p2.attrs
        fa1, fx1 = p1.objs.full, p1.attrs.full
        fa2, fx2 = p2.objs.full, p2.attrs.full

        self.ic1_col_mask = [fa1 & ~col for col in p1.i_cols]
        self.dc1_row_mask = [fa1 & ~row for row in b1.dia_rows]
        self.ic1_row = [positions(fx1 & ~row) for row in p1.i_rows]
        self.bc1_row = [positions(fx1 & ~row) for row in b1.box_rows]
        self.ic1_col = [positions(m) for m in self.ic1_col_mask]
        self.dc1_row = [positions(m) for m in self.dc1_row_mask]
        self.ic2_row = [fx2 & ~row for row in p2.i_rows]
        self.ic2_col = [fa2 & ~col for col in p2.i_cols]
        self.bc2_row = [fx2 & ~row for row in b2.box_rows]
        self.dc2_row = [fa2 & ~row for row in b2.dia_rows]

        ext1 = [p1.objs.mask(m1.valuation[p].extent) for p in self.variables]
        ext2 = [p2.objs.mask(m2.valuation[p].extent) for p in self.variables]
        itt1 = [p1.attrs.mask(m1.valuation[p].intent) for p in self.variables]
        itt2 = [p2.attrs.mask(m2.valuation[p].intent) for p in self.variables]
        # Propositionally consistent initializations (clauses 1 and 2), and
        # their biconditional variants for bisimulation refinement.
        self.s0, self.s0_bi = [], []
        for i in range(len(p1.objs.names)):
            allowed = allowed_bi = fa2
            for e1, e2 in zip(ext1, ext2):
                if e1 >> i & 1:
                    allowed &= e2
                else:
                    allowed_bi &= fa2 ^ e2
            self.s0.append(allowed)
            self.s0_bi.append(allowed & allowed_bi)
        self.t0, self.t0_bi = [], []
        for j in range(len(p1.attrs.names)):
            allowed = allowed_bi = fx2
            for t1, t2 in zip(itt1, itt2):
                if t1 >> j & 1:
                    allowed_bi &= t2
                else:
                    allowed &= fx2 ^ t2
            self.t0.append(allowed)
            self.t0_bi.append(allowed & allowed_bi)

    def to_simpair(self, s, t) -> SimPair:
        a2, x2 = self.objs2.names, self.attrs2.names
        sp = frozenset((a1, a2[k]) for a1, m in zip(self.objs1.names, s)
                       for k in positions(m))
        tp = frozenset((x1, x2[k]) for x1, m in zip(self.attrs1.names, t)
                       for k in positions(m))
        return SimPair(sp, tp)


def _refine(ctx: _MaskContext, s, t, bisim: bool) -> Tuple[list, list, int]:
    """Delete clause-violating pairs until none remain; simultaneous per round."""
    rounds = 0
    while True:
        rounds += 1
        new_s = []
        for i, allowed in enumerate(s):
            if allowed:
                cov_i = _or_over(t, ctx.ic1_row[i])
                cov_b = _or_over(t, ctx.bc1_row[i])
                keep = 0
                for k in positions(allowed):
                    if ctx.ic2_row[k] & ~cov_i:
                        continue  # clause 3
                    if ctx.bc2_row[k] & ~cov_b:
                        continue  # clause 5
                    if bisim and not _backward_object_ok(ctx, t, i, k):
                        continue  # converse clauses 3 and 5
                    keep |= 1 << k
                allowed = keep
            new_s.append(allowed)
        scol = _s_columns(s, len(ctx.objs2.names)) if bisim else None
        new_t = []
        for j, allowed in enumerate(t):
            if allowed:
                keep = 0
                for k in positions(allowed):
                    if not _clause4_ok(ctx, s, j, k):
                        continue
                    if not _clause6_ok(ctx, s, j, k):
                        continue
                    if bisim and not _backward_attribute_ok(ctx, scol, j, k):
                        continue
                    keep |= 1 << k
                allowed = keep
            new_t.append(allowed)
        if new_s == s and new_t == t:
            return s, t, rounds
        s, t = new_s, new_t


def _or_over(table, keys) -> int:
    out = 0
    for key in keys:
        out |= table[key]
    return out


def _s_columns(s, n_right: int):
    """S by right object: the left-object mask S relates to each of them."""
    cols = [0] * n_right
    for i, row in enumerate(s):
        bit = 1 << i
        for k in positions(row):
            cols[k] |= bit
    return cols


def _clause4_ok(ctx, s, j, k) -> bool:
    ic2 = ctx.ic2_col[k]
    return all(s[i] & ic2 for i in ctx.ic1_col[j])


def _clause6_ok(ctx, s, j, k) -> bool:
    dc2 = ctx.dc2_row[k]
    return all(s[i] & dc2 for i in ctx.dc1_row[j])


def _backward_object_ok(ctx, t, i, k) -> bool:
    # Converse clause 3: every x1 missing from I1 at a1 needs a T-image
    # missing from I2 at a2; converse clause 5 likewise for R_box.
    ic2, bc2 = ctx.ic2_row[k], ctx.bc2_row[k]
    return (all(t[j] & ic2 for j in ctx.ic1_row[i])
            and all(t[j] & bc2 for j in ctx.bc1_row[i]))


def _backward_attribute_ok(ctx, scol, j, k) -> bool:
    # Converse clauses 4 and 6, pivoting on right-model objects: each one
    # missing from I2 (resp. R_dia2) at x2 needs an S-preimage missing from
    # I1 (resp. R_dia1) at x1.
    ic1, dc1 = ctx.ic1_col_mask[j], ctx.dc1_row_mask[j]
    return (all(ic1 & scol[a2] for a2 in positions(ctx.ic2_col[k]))
            and all(dc1 & scol[a2] for a2 in positions(ctx.dc2_row[k])))


def greatest_simulation(m1: LEModel, m2: LEModel) -> SimPair:
    """The largest simulation from m1 to m2 (unions of simulations are simulations).

    Starts from the propositionally consistent pairs and repeatedly deletes
    every pair violating clauses 3-6, all at once per round, until stable.
    """
    ctx = _MaskContext(m1, m2)
    s, t, _ = _refine(ctx, list(ctx.s0), list(ctx.t0), bisim=False)
    return ctx.to_simpair(s, t)


def greatest_simulation_rounds(m1: LEModel, m2: LEModel) -> Tuple[SimPair, int]:
    """Like :func:`greatest_simulation`, also reporting refinement rounds."""
    ctx = _MaskContext(m1, m2)
    s, t, rounds = _refine(ctx, list(ctx.s0), list(ctx.t0), bisim=False)
    return ctx.to_simpair(s, t), rounds


def greatest_bisimulation(m1: LEModel, m2: LEModel) -> SimPair:
    """The largest bisimulation between m1 and m2 (same scheme, both directions)."""
    ctx = _MaskContext(m1, m2)
    s, t, _ = _refine(ctx, list(ctx.s0_bi), list(ctx.t0_bi), bisim=True)
    return ctx.to_simpair(s, t)


@dataclass(frozen=True)
class EquivReport:
    """The exact modal-equivalence relations between two models.

    All four relations pair left-model points with right-model points;
    ``backward_*`` means transfer from the right model to the left. The
    ``equiv_*`` relations are the pairwise intersections.
    """

    forward_a: Relation
    forward_x: Relation
    backward_a: Relation
    backward_x: Relation
    equiv_a: Relation
    equiv_x: Relation


def _operator_tables(model: LEModel, lat: ConceptLattice):
    n = len(lat)
    meet = lat.meet_table
    join = lat.join_table
    box_map = tuple(lat.index_of(box_op(model, c)) for c in lat.concepts)
    dia_map = tuple(lat.index_of(dia_op(model, c)) for c in lat.concepts)
    return meet, join, box_map, dia_map


def modal_equiv_oracle(m1: LEModel, m2: LEModel,
                       cap: int = LATTICE_CAP) -> EquivReport:
    """Close formula-extension pairs to a fixpoint and read off the transfer relations.

    The set {(extension_1(phi), extension_2(phi)) | phi} is generated by
    the valuation pairs plus (top, top) and (bot, bot), and is closed under
    componentwise meet, join, box and dia; the pair lattice is finite, so
    the closure terminates. A point a1 transfers to a2 when every closed
    pair whose left extent contains a1 has a2 in its right extent, and
    dually (with intents) on the attribute side.
    """
    variables = _shared_variables(m1, m2)
    lat1 = concept_lattice(m1.polarity, cap)
    lat2 = concept_lattice(m2.polarity, cap)
    meet1, join1, box1, dia1 = _operator_tables(m1, lat1)
    meet2, join2, box2, dia2 = _operator_tables(m2, lat2)

    seeds = {(lat1.index_of(m1.valuation[p]), lat2.index_of(m2.valuation[p]))
             for p in variables}
    seeds.add((len(lat1) - 1, len(lat2) - 1))  # top pair
    seeds.add((0, 0))                          # bottom pair
    pairs = set(seeds)
    frontier = list(seeds)
    while frontier:
        fresh = []
        for i, j in frontier:
            for cand in ((box1[i], box2[j]), (dia1[i], dia2[j])):
                if cand not in pairs:
                    pairs.add(cand)
                    fresh.append(cand)
        known = list(pairs)
        for i, j in frontier:
            for i2, j2 in known:
                for cand in ((meet1[i][i2], meet2[j][j2]),
                             (join1[i][i2], join2[j][j2])):
                    if cand not in pairs:
                        pairs.add(cand)
                        fresh.append(cand)
        frontier = fresh

    ext1 = [c.extent for c in lat1.concepts]
    itt1 = [c.intent for c in lat1.concepts]
    ext2 = [c.extent for c in lat2.concepts]
    itt2 = [c.intent for c in lat2.concepts]

    def transfer(points1, points2, member1, member2):
        out = set()
        for u in points1:
            allowed = set(points2)
            for i, j in pairs:
                if u in member1[i]:
                    allowed &= member2[j]
                    if not allowed:
                        break
            out.update((u, v) for v in allowed)
        return frozenset(out)

    def transfer_rev(points1, points2, member1, member2):
        out = set()
        for v in points2:
            allowed = set(points1)
            for i, j in pairs:
                if v in member2[j]:
                    allowed &= member1[i]
                    if not allowed:
                        break
            out.update((u, v) for u in allowed)
        return frozenset(out)

    forward_a = transfer(m1.objects, m2.objects, ext1, ext2)
    forward_x = transfer(m1.attributes, m2.attributes, itt1, itt2)
    backward_a = transfer_rev(m1.objects, m2.objects, ext1, ext2)
    backward_x = transfer_rev(m1.attributes, m2.attributes, itt1, itt2)
    return EquivReport(forward_a, forward_x, backward_a, backward_x,
                       forward_a & backward_a, forward_x & backward_x)


@dataclass(frozen=True)
class HMReport:
    """Outcome of checking the Hennessy-Milner correspondence on a model pair."""

    ok: bool
    mismatches: Tuple[Tuple[str, str, Pair], ...]  # (relation, "missing"/"extra", pair)


def hm_check(m1: LEModel, m2: LEModel, cap: int = LATTICE_CAP) -> HMReport:
    """Compare the equivalence oracle with the greatest-simulation relations.

    Object transfer 1->2 must equal S of the greatest simulation 1->2; the
    attribute transfer 1->2 must equal the flipped T of the greatest
    simulation 2->1 (the direction flip of the attribute side); and
    symmetrically for the backward relations.
    """
    report = modal_equiv_oracle(m1, m2, cap)
    gs12 = greatest_simulation(m1, m2)
    gs21 = greatest_simulation(m2, m1)
    flip = lambda rel: frozenset((b, a) for a, b in rel)
    checks = (
        ("objects-forward", report.forward_a, gs12.s),
        ("attributes-forward", report.forward_x, flip(gs21.t)),
        ("objects-backward", report.backward_a, flip(gs21.s)),
        ("attributes-backward", report.backward_x, gs12.t),
    )
    mismatches = []
    for name, oracle_rel, sim_rel in checks:
        for pair in sorted(sim_rel - oracle_rel):
            mismatches.append((name, "extra", pair))
        for pair in sorted(oracle_rel - sim_rel):
            mismatches.append((name, "missing", pair))
    return HMReport(not mismatches, tuple(mismatches))


def bisimilar_points(m1: LEModel, m2: LEModel) -> Tuple[Relation, Relation]:
    """Pairs related by some simulation in each direction (independently)."""
    gs12 = greatest_simulation(m1, m2)
    gs21 = greatest_simulation(m2, m1)
    objects = frozenset(p for p in gs12.s if (p[1], p[0]) in gs21.s)
    attributes = frozenset(p for p in gs12.t if (p[1], p[0]) in gs21.t)
    return objects, attributes


SATURATION_SELECTORS = ("i-object", "i-attribute", "box", "dia")


def m_saturation_witness(model: LEModel, sigma: Sequence[fm.ModalFormula],
                         point: str, selector: str) -> Optional[str]:
    """A single point of the selected complement set satisfying all of sigma.

    The selector picks one of the four saturation clause families:
    attributes not I-related to an object, objects not I-related to an
    attribute, attributes outside the object's R_box row, objects outside
    the attribute's R_dia row. For finite sigma, finite satisfiability
    coincides with the existence of such a point; returns None if there is
    none. (On finite models, every finitely satisfiable set has a common
    witness, so no infinite case arises.)
    """
    pol = model.polarity
    if selector == "i-object":
        pol.check_objects([point])
        candidates = [x for x in model.attributes if (point, x) not in pol.incidence]
        attribute_side = True
    elif selector == "i-attribute":
        pol.check_attributes([point])
        candidates = [a for a in model.objects if (a, point) not in pol.incidence]
        attribute_side = False
    elif selector == "box":
        pol.check_objects([point])
        candidates = [x for x in model.attributes if (point, x) not in model.r_box]
        attribute_side = True
    elif selector == "dia":
        pol.check_attributes([point])
        candidates = [a for a in model.objects if (point, a) not in model.r_dia]
        attribute_side = False
    else:
        raise ValueError(f"unknown selector {selector!r}; "
                         f"expected one of {SATURATION_SELECTORS}")
    memo: dict = {}
    side = 1 if attribute_side else 0
    for candidate in candidates:
        if all(candidate in sat_sets(model, phi, memo)[side] for phi in sigma):
            return candidate
    return None


POWER_CAP = 4096


@dataclass(frozen=True)
class Ultrapower:
    """A K-power quotient by a principal ultrafilter, isomorphic to its base."""

    model: LEModel
    iso: Dict[str, str]  # quotient element name -> base element name
    k: int
    k0: int

    def class_of(self, s: Sequence[str]) -> str:
        if len(s) != self.k:
            raise ValueError(f"expected a function on {self.k} indices, got {len(s)}")
        return f"[{s[self.k0]}]"


def ultrapower_principal(model: LEModel, k: int, k0: int,
                         cap: int = POWER_CAP) -> Ultrapower:
    """Quotient the K-power by the principal ultrafilter at index k0.

    Membership of an index set in the principal ultrafilter is containment
    of k0, so each equivalence class of functions is determined by its
    value at k0 and the quotient clauses reduce to evaluation there. The
    class of s is named "[s(k0)]"; the returned iso witnesses that the
    quotient is a copy of the base model.
    """
    if k < 1:
        raise ValueError("the index set must be non-empty")
    if not 0 <= k0 < k:
        raise ValueError(f"chosen index {k0} outside range(0, {k})")
    n_a, n_x = len(model.objects), len(model.attributes)
    if n_a ** k > cap or n_x ** k > cap:
        raise CapExceeded(f"K-power carrier {max(n_a, n_x)}^{k} exceeds cap {cap}")

    name = lambda u: f"[{u}]"
    objs = tuple(name(a) for a in model.objects)
    attrs = tuple(name(x) for x in model.attributes)
    inc = frozenset((name(a), name(x)) for a, x in model.polarity.incidence)
    r_box = frozenset((name(a), name(x)) for a, x in model.r_box)
    r_dia = frozenset((name(x), name(a)) for x, a in model.r_dia)
    val = {p: Concept(frozenset(name(a) for a in c.extent),
                      frozenset(name(x) for x in c.intent))
           for p, c in model.valuation.items()}
    quotient = LEModel(Polarity(objs, attrs, inc), r_box, r_dia, val)
    iso = {name(u): u for u in model.objects + model.attributes}
    return Ultrapower(quotient, iso, k, k0)


def kpower_functions(model: LEModel, k: int,
                     cap: int = POWER_CAP) -> Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]:
    """All object- and attribute-sort functions of the K-power (for Los checks)."""
    n_a, n_x = len(model.objects), len(model.attributes)
    if n_a ** k > cap or n_x ** k > cap:
        raise CapExceeded(f"K-power carrier {max(n_a, n_x)}^{k} exceeds cap {cap}")
    return (list(itertools.product(model.objects, repeat=k)),
            list(itertools.product(model.attributes, repeat=k)))
