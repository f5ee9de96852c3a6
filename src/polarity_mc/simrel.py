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

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import formula as fm
# box_op/dia_op/concept_lattice have no caller here; the benchmark's traced
# runs swap them by these module-bound names.
from .lattice import (LATTICE_CAP, CapExceeded, _complex_algebra, _concept_extent,
                      _concept_masks, box_op, concept_lattice, dia_op)
from .model import Carrier, Concept, LEModel, Polarity, meet_masks, positions
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


def _shared_variables(m1: LEModel, m2: LEModel) -> Tuple[str, ...]:
    v1, v2 = set(m1.valuation), set(m2.valuation)
    if v1 != v2:
        raise ValueError(f"models interpret different variables: "
                         f"{sorted(v1 ^ v2)} not shared")
    return tuple(sorted(v1))


def is_simulation(m1: LEModel, m2: LEModel, z: SimPair) -> List[SimViolation]:
    """All violated clauses of the simulation definition, empty iff z is one.

    Violations come pair by pair: the S pairs in sorted order (clauses 1, 3,
    5), then the T pairs in sorted order (clauses 2, 4, 6); within a pair,
    variables in sorted order and unmatched elements in declaration order.
    A pair of z outside left x right raises ValueError.
    """
    return _violations(m1, m2, z, "forward")


def is_bisimulation(m1: LEModel, m2: LEModel, z: SimPair) -> List[SimViolation]:
    """Violations of z as a bisimulation: z forward plus its converse backward.

    A bisimulation is a simulation whose converse is a simulation, so the
    backward violations are those of the converse of z as a simulation from
    m2 to m1, naming its (right, left) pairs.
    """
    return _violations(m1, m2, z, "forward") + _violations(m2, m1, z.converse(), "backward")


def _rows(pairs: Relation, left: Carrier, right: Carrier, what: str) -> List[int]:
    """A relation as one right-carrier mask per left position."""
    rows = [0] * len(left.names)
    lbit, rbit = left.bit, right.bit
    for u, v in pairs:
        try:
            bu, bv = lbit[u], rbit[v]
        except KeyError:
            raise ValueError(f"{what} pair {(u, v)!r} is not "
                             f"left-{what} x right-{what}") from None
        rows[bu.bit_length() - 1] |= bv
    return rows


def _violations(m1: LEModel, m2: LEModel, z: SimPair, direction: str) -> List[SimViolation]:
    """The violations of z as a simulation from m1 to m2, read off the
    refinement's kernels at z's masks."""
    p1, p2 = m1.polarity.bits, m2.polarity.bits
    s = _rows(z.s, p1.objs, p2.objs, "object")
    t = _rows(z.t, p1.attrs, p2.attrs, "attribute")
    ctx = _MaskContext(m1, m2)
    a1n, x2n = p1.objs.names, p2.attrs.names
    ai1 = {a: i for i, a in enumerate(a1n)}
    xi1 = {x: j for j, x in enumerate(p1.attrs.names)}
    ai2 = {a: k for k, a in enumerate(p2.objs.names)}
    xi2 = {x: k for k, x in enumerate(x2n)}
    props = list(zip(ctx.variables, ctx.ext1, ctx.ext2, ctx.itt1, ctx.itt2))
    out: List[SimViolation] = []
    add = out.append

    cov_i, cov_b = ctx.attribute_cover(t)
    for a1, a2 in sorted(z.s):
        i, k = ai1[a1], ai2[a2]
        pair = (a1, a2)
        for p, e1, e2, _, _ in props:
            if e1 >> i & 1 and not e2 >> k & 1:
                add(SimViolation(1, direction, pair, prop=p))
        for x in positions(ctx.ic2_row[k] & ~cov_i[i]):
            add(SimViolation(3, direction, pair, unmatched=x2n[x]))
        for x in positions(ctx.bc2_row[k] & ~cov_b[i]):
            add(SimViolation(5, direction, pair, unmatched=x2n[x]))
    hit_i, hit_d = ctx.object_hits(s)
    for x1, x2 in sorted(z.t):
        j, k = xi1[x1], xi2[x2]
        pair = (x1, x2)
        for p, _, _, t1, t2 in props:
            if t2 >> k & 1 and not t1 >> j & 1:
                add(SimViolation(2, direction, pair, prop=p))
        for i in ctx.ic1_col[j]:
            if not hit_i[i] >> k & 1:
                add(SimViolation(4, direction, pair, unmatched=a1n[i]))
        for i in ctx.dc1_row[j]:
            if not hit_d[i] >> k & 1:
                add(SimViolation(6, direction, pair, unmatched=a1n[i]))
    return out


class _MaskContext:
    """Complement rows and columns of I, R_box and R_dia for a model pair,
    and the clause kernels over them.

    Everything is read off the two models' bit indexes. Elements are
    declaration positions: S is one right-object mask per left object, T
    one right-attribute mask per left attribute. Left complements are kept
    as position lists (the clauses iterate them), right complements as
    masks. Each clause is checked either per candidate, as a subset test of
    a right complement against a cover of S or T, or per row, by a Galois
    image of the right model (see the kernels).
    """

    def __init__(self, m1: LEModel, m2: LEModel):
        self.variables = _shared_variables(m1, m2)
        b1, b2 = m1.bits, m2.bits
        p1, p2 = b1.pol, b2.pol
        self.objs1, self.attrs1 = p1.objs, p1.attrs
        self.objs2, self.attrs2 = p2.objs, p2.attrs
        fa1, fx1 = p1.objs.full, p1.attrs.full
        self.fa2, self.fx2 = fa2, fx2 = p2.objs.full, p2.attrs.full
        self.pol2, self.box_cols2, self.dia_cols2 = p2, b2.box_cols, b2.dia_cols
        # Kernel results by row: most rows stay the same from one refinement
        # round to the next.
        self._object_hits: Dict[int, Tuple[int, int]] = {}
        self._attribute_hits: Dict[int, Tuple[int, int]] = {}

        self.ic1_row = [positions(fx1 & ~row) for row in p1.i_rows]
        self.bc1_row = [positions(fx1 & ~row) for row in b1.box_rows]
        self.ic1_col = [positions(fa1 & ~col) for col in p1.i_cols]
        self.dc1_row = [positions(fa1 & ~row) for row in b1.dia_rows]
        self.ic2_row = [fx2 & ~row for row in p2.i_rows]
        self.ic2_col = [fa2 & ~col for col in p2.i_cols]
        self.bc2_row = [fx2 & ~row for row in b2.box_rows]
        self.dc2_row = [fa2 & ~row for row in b2.dia_rows]

        self.ext1 = ext1 = [p1.objs.mask(m1.valuation[p].extent) for p in self.variables]
        self.ext2 = ext2 = [p2.objs.mask(m2.valuation[p].extent) for p in self.variables]
        self.itt1 = itt1 = [p1.attrs.mask(m1.valuation[p].intent) for p in self.variables]
        self.itt2 = itt2 = [p2.attrs.mask(m2.valuation[p].intent) for p in self.variables]
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

    # Clauses 3/5 at (a1, a2), and the converse clauses 4/6 at (x1, x2), are
    # subset tests of a right complement row or column against a cover.

    def attribute_cover(self, t) -> Tuple[List[int], List[int]]:
        """Per left object a1, the right attributes T relates to some x1
        outside I1 (resp. R_box1) at a1: clause 3 (resp. 5) holds at
        (a1, a2) iff the complement of I2 (resp. R_box2) at a2 lies inside."""
        cov_i, cov_b = [], []
        for cols_i, cols_b in zip(self.ic1_row, self.bc1_row):
            ci = cb = 0
            for j in cols_i:
                ci |= t[j]
            for j in cols_b:
                cb |= t[j]
            cov_i.append(ci)
            cov_b.append(cb)
        return cov_i, cov_b

    def object_cover(self, s) -> Tuple[List[int], List[int]]:
        """Per left attribute x1, the right objects S relates to some a1
        outside I1 (resp. R_dia1) at x1: converse clause 4 (resp. 6) holds at
        (x1, x2) iff the complement of I2 (resp. R_dia2) at x2 lies inside."""
        cov_i, cov_d = [], []
        for rows_i, rows_d in zip(self.ic1_col, self.dc1_row):
            ci = cd = 0
            for i in rows_i:
                ci |= s[i]
            for i in rows_d:
                cd |= s[i]
            cov_i.append(ci)
            cov_d.append(cd)
        return cov_i, cov_d

    # Clauses 4/6, and the converse clauses 3/5, need for each element of a
    # complement set some partner in a complement of the right model. The
    # right elements that S[a1] (resp. T[x1]) can serve are the complement
    # of a Galois image: one meet per row instead of one test per candidate.

    def object_hits(self, s) -> Tuple[List[int], List[int]]:
        """Per left object a1, the right attributes x2 outside I2 (resp.
        R_dia2) at some object of S[a1]: X2 minus up_I2(S[a1]), resp. minus
        the R_dia2 preimage of S[a1]. Clause 4 (resp. 6) holds at (x1, x2)
        iff x2 is in this set for every a1 outside I1 (resp. R_dia1) at x1."""
        memo, up, dia_cols, fx2 = (self._object_hits, self.pol2.up,
                                   self.dia_cols2, self.fx2)
        hit_i, hit_d = [], []
        for row in s:
            got = memo.get(row)
            if got is None:
                got = memo[row] = (fx2 & ~up(row), fx2 & ~meet_masks(row, dia_cols, fx2))
            hit_i.append(got[0])
            hit_d.append(got[1])
        return hit_i, hit_d

    def attribute_hits(self, t) -> Tuple[List[int], List[int]]:
        """Per left attribute x1, the right objects a2 outside I2 (resp.
        R_box2) at some attribute of T[x1]: A2 minus down_I2(T[x1]), resp.
        minus the R_box2 preimage of T[x1]. Converse clause 3 (resp. 5)
        holds at (a1, a2) iff a2 is in this set for every x1 outside I1
        (resp. R_box1) at a1."""
        memo, down, box_cols, fa2 = (self._attribute_hits, self.pol2.down,
                                     self.box_cols2, self.fa2)
        lo_i, lo_b = [], []
        for row in t:
            got = memo.get(row)
            if got is None:
                got = memo[row] = (fa2 & ~down(row), fa2 & ~meet_masks(row, box_cols, fa2))
            lo_i.append(got[0])
            lo_b.append(got[1])
        return lo_i, lo_b

    def to_simpair(self, s, t) -> SimPair:
        a2, x2 = self.objs2.names, self.attrs2.names
        sp = frozenset((a1, a2[k]) for a1, m in zip(self.objs1.names, s)
                       for k in positions(m))
        tp = frozenset((x1, x2[k]) for x1, m in zip(self.attrs1.names, t)
                       for k in positions(m))
        return SimPair(sp, tp)


def _refine(ctx: _MaskContext, s, t, bisim: bool) -> Tuple[list, list, int]:
    """Delete clause-violating pairs until none remain; simultaneous per round.

    Every round reads only the S and T it started from, so the result and
    the round count do not depend on the order of the work within a round.

    With ``bisim`` the converse clauses are decided here too, by the
    transpose-free kernels ``attribute_hits`` and ``object_cover`` from
    ``s0_bi``/``t0_bi``. Refining each direction in turn on transposed rows,
    as the clause checks do, reaches the same relation with less code, but
    made ``greatest_bisimulation`` at least 30% slower on the benchmark's
    ``equiv_ladder`` and ``sim_large`` pairs.
    """
    ic1_row, bc1_row = ctx.ic1_row, ctx.bc1_row
    ic1_col, dc1_row = ctx.ic1_col, ctx.dc1_row
    ic2_row, bc2_row = ctx.ic2_row, ctx.bc2_row
    ic2_col, dc2_row = ctx.ic2_col, ctx.dc2_row
    rounds = 0
    while True:
        rounds += 1
        cov_i, cov_b = ctx.attribute_cover(t)
        if bisim:
            lo_i, lo_b = ctx.attribute_hits(t)
        new_s = []
        for i, allowed in enumerate(s):
            if allowed:
                if bisim:  # converse clauses 3 and 5
                    for j in ic1_row[i]:
                        allowed &= lo_i[j]
                    for j in bc1_row[i]:
                        allowed &= lo_b[j]
                miss_i, miss_b = ~cov_i[i], ~cov_b[i]
                keep = 0
                for k in positions(allowed):
                    if not (ic2_row[k] & miss_i or bc2_row[k] & miss_b):
                        keep |= 1 << k  # clauses 3 and 5
                allowed = keep
            new_s.append(allowed)
        hit_i, hit_d = ctx.object_hits(s)
        if bisim:
            cov_4, cov_6 = ctx.object_cover(s)
        new_t = []
        for j, allowed in enumerate(t):
            if allowed:
                for i in ic1_col[j]:
                    allowed &= hit_i[i]  # clause 4
                for i in dc1_row[j]:
                    allowed &= hit_d[i]  # clause 6
                if bisim and allowed:
                    miss_4, miss_6 = ~cov_4[j], ~cov_6[j]
                    keep = 0
                    for k in positions(allowed):
                        if not (ic2_col[k] & miss_4 or dc2_row[k] & miss_6):
                            keep |= 1 << k  # converse clauses 4 and 6
                    allowed = keep
            new_t.append(allowed)
        if new_s == s and new_t == t:
            return s, t, rounds
        s, t = new_s, new_t


def greatest_simulation(m1: LEModel, m2: LEModel) -> SimPair:
    """The largest simulation from m1 to m2 (unions of simulations are simulations).

    Starts from the propositionally consistent pairs and repeatedly deletes
    every pair violating clauses 3-6, all at once per round, until stable.
    """
    ctx = _MaskContext(m1, m2)
    s, t, _ = _refine(ctx, list(ctx.s0), list(ctx.t0), bisim=False)
    return ctx.to_simpair(s, t)


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


def _flip(rel: Relation) -> Relation:
    return frozenset((b, a) for a, b in rel)


def _transfer(pairs, left: Carrier, right: Carrier) -> Relation:
    """(u, v) with v in the right mask of every (left mask, right mask) pair
    whose left mask contains u: one AND per pair and left point."""
    allowed = [right.full] * len(left.names)
    for lmask, rmask in pairs:
        for u in positions(lmask):
            allowed[u] &= rmask
    names = left.names
    return frozenset((names[u], v) for u, row in enumerate(allowed)
                     for v in right.members(row))


def modal_equiv_oracle(m1: LEModel, m2: LEModel,
                       cap: int = LATTICE_CAP) -> EquivReport:
    """Close formula-extension pairs to a fixpoint and read off the transfer relations.

    The set {(extension_1(phi), extension_2(phi)) | phi} is generated by
    the valuation pairs plus (top, top) and (bot, bot), and is closed under
    componentwise meet, join, box and dia; the pair lattice is finite, so
    the closure terminates. Pairs are kept as extent masks of each model's
    complex algebra, unordered and unnamed: a meet is an AND of extents, a
    join the extent of the AND of intents. Each pair is
    combined once with itself and every pair taken before it, so every
    unordered pair of closed pairs is combined once. A point a1 transfers
    to a2 when every closed pair whose left extent contains a1 has a2 in
    its right extent, and dually (with intents) on the attribute side.
    """
    variables = _shared_variables(m1, m2)
    concepts1 = _concept_masks(m1.polarity, cap)
    concepts2 = _concept_masks(m2.polarity, cap)
    itt1, join1, box1, dia1 = _complex_algebra(m1, concepts1)
    itt2, join2, box2, dia2 = _complex_algebra(m2, concepts2)
    p1, p2 = m1.polarity.bits, m2.polarity.bits

    seen = {(_concept_extent(itt1, p1.objs, m1.valuation[p]),
             _concept_extent(itt2, p2.objs, m2.valuation[p])) for p in variables}
    seen.add((p1.objs.full, p2.objs.full))                       # top pair
    seen.add((p1.down(p1.attrs.full), p2.down(p2.attrs.full)))  # bottom pair
    todo = list(seen)
    done = []  # (extent 1, extent 2, intent 1, intent 2) of every combined pair
    while todo:
        e, f = todo.pop()
        t, u = itt1[e], itt2[f]
        done.append((e, f, t, u))
        for cand in ((box1[e], box2[f]), (dia1[e], dia2[f])):
            if cand not in seen:
                seen.add(cand)
                todo.append(cand)
        for e2, f2, t2, u2 in done:
            cand = (e & e2, f & f2)
            if cand not in seen:
                seen.add(cand)
                todo.append(cand)
            cand = (join1[t & t2], join2[u & u2])
            if cand not in seen:
                seen.add(cand)
                todo.append(cand)

    forward_a = _transfer(((e, f) for e, f, _, _ in done), p1.objs, p2.objs)
    forward_x = _transfer(((t, u) for _, _, t, u in done), p1.attrs, p2.attrs)
    backward_a = _flip(_transfer(((f, e) for e, f, _, _ in done), p2.objs, p1.objs))
    backward_x = _flip(_transfer(((u, t) for _, _, t, u in done), p2.attrs, p1.attrs))
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
    checks = (
        ("objects-forward", report.forward_a, gs12.s),
        ("attributes-forward", report.forward_x, _flip(gs21.t)),
        ("objects-backward", report.backward_a, _flip(gs21.s)),
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
    return gs12.s & _flip(gs21.s), gs12.t & _flip(gs21.t)


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
    witness, so no infinite case arises.) The candidates are the point's
    complement row in the bit index, cut down by each formula's satisfaction
    set in turn; the witness is the first survivor in declaration order.
    """
    if selector not in SATURATION_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; "
                         f"expected one of {SATURATION_SELECTORS}")
    pol, bits = model.polarity, model.bits
    if selector in ("i-object", "box"):
        pol.check_objects([point])
        rows = bits.pol.i_rows if selector == "i-object" else bits.box_rows
        index, carrier, side = bits.pol.objs, bits.pol.attrs, 1
    else:
        pol.check_attributes([point])
        rows = bits.pol.i_cols if selector == "i-attribute" else bits.dia_rows
        index, carrier, side = bits.pol.attrs, bits.pol.objs, 0
    candidates = carrier.full & ~rows[index.bit[point].bit_length() - 1]
    memo: dict = {}
    for phi in sigma:
        if not candidates:
            break
        candidates &= carrier.mask(sat_sets(model, phi, memo)[side])
    return carrier.names[(candidates & -candidates).bit_length() - 1] if candidates else None


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


def _power_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether n ** k > cap for k >= 1, without building the power: the
    product passes the cap within about log2(cap) steps, or stays at n <= 1."""
    power = 1
    for _ in range(k):
        power *= n
        if power > cap:
            return True
        if power <= 1:
            return False
    return False


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
    if _power_exceeds(n_a, k, cap) or _power_exceeds(n_x, k, cap):
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
