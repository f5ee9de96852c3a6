"""Independent oracles for the test suite.

Everything here is written against the definitions directly (or against
classical Kripke semantics) without reusing the package's evaluation
paths, so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from polarity_mc import formula as fm
from polarity_mc.lattice import CapExceeded, ConceptLattice
from polarity_mc.model import Concept, KripkeModel, LEModel, Polarity
from polarity_mc.simrel import POWER_CAP


class ClauseEvaluator:
    """Bitmask evaluator for the satisfaction clauses, for bulk enumeration work.

    Satisfaction sets are masks: bit i of the object mask is the i-th
    object (declaration order), likewise for attributes.
    """

    def __init__(self, model: LEModel):
        self.model = model
        self.objects = list(model.objects)
        self.attributes = list(model.attributes)
        oi = {a: i for i, a in enumerate(self.objects)}
        xi = {x: i for i, x in enumerate(self.attributes)}
        self.full_a = (1 << len(self.objects)) - 1
        self.full_x = (1 << len(self.attributes)) - 1
        self.irow = [0] * len(self.objects)    # attributes incident to object i
        self.icol = [0] * len(self.attributes)
        for a, x in model.polarity.incidence:
            self.irow[oi[a]] |= 1 << xi[x]
            self.icol[xi[x]] |= 1 << oi[a]
        self.boxrow = [0] * len(self.objects)  # {x | a R_box x} per object
        for a, x in model.r_box:
            self.boxrow[oi[a]] |= 1 << xi[x]
        self.diarow = [0] * len(self.attributes)  # {a | x R_dia a} per attribute
        for x, a in model.r_dia:
            self.diarow[xi[x]] |= 1 << oi[a]
        self.vext = {p: self._omask(c.extent, oi) for p, c in model.valuation.items()}
        self.vitt = {p: self._xmask(c.intent, xi) for p, c in model.valuation.items()}
        self._up_cache: Dict[int, int] = {}
        self._down_cache: Dict[int, int] = {}
        self._memo: Dict[int, tuple] = {}

    @staticmethod
    def _omask(items, oi):
        out = 0
        for it in items:
            out |= 1 << oi[it]
        return out

    @staticmethod
    def _xmask(items, xi):
        out = 0
        for it in items:
            out |= 1 << xi[it]
        return out

    def up(self, amask: int) -> int:
        """{x | a I x for every a in the mask} as an attribute mask."""
        got = self._up_cache.get(amask)
        if got is None:
            got = self.full_x
            rest = amask
            i = 0
            while rest:
                if rest & 1:
                    got &= self.irow[i]
                rest >>= 1
                i += 1
            self._up_cache[amask] = got
        return got

    def down(self, xmask: int) -> int:
        got = self._down_cache.get(xmask)
        if got is None:
            got = self.full_a
            rest = xmask
            i = 0
            while rest:
                if rest & 1:
                    got &= self.icol[i]
                rest >>= 1
                i += 1
            self._down_cache[xmask] = got
        return got

    def op_and(self, left: Tuple[int, int], right: Tuple[int, int]) -> Tuple[int, int]:
        amask = left[0] & right[0]
        return (amask, self.up(amask))

    def op_or(self, left: Tuple[int, int], right: Tuple[int, int]) -> Tuple[int, int]:
        xmask = left[1] & right[1]
        return (self.down(xmask), xmask)

    def op_box(self, inner: Tuple[int, int]) -> Tuple[int, int]:
        inner_x = inner[1]
        amask = 0
        for i in range(len(self.objects)):
            if inner_x & ~self.boxrow[i] == 0:
                amask |= 1 << i
        return (amask, self.up(amask))

    def op_dia(self, inner: Tuple[int, int]) -> Tuple[int, int]:
        inner_a = inner[0]
        xmask = 0
        for i in range(len(self.attributes)):
            if inner_a & ~self.diarow[i] == 0:
                xmask |= 1 << i
        return (self.down(xmask), xmask)

    def atom_sets(self, vocab: Sequence[str]) -> List[Tuple[int, int]]:
        out = [(self.vext[p], self.vitt[p]) for p in sorted(vocab)]
        out.append((self.full_a, self.up(self.full_a)))
        out.append((self.down(self.full_x), self.full_x))
        return out

    def sets(self, phi: fm.ModalFormula) -> Tuple[int, int]:
        entry = self._memo.get(id(phi))
        if entry is not None and entry[0] is phi:
            return entry[1]
        if isinstance(phi, fm.Var):
            result = (self.vext[phi.name], self.vitt[phi.name])
        elif isinstance(phi, fm.Top):
            result = (self.full_a, self.up(self.full_a))
        elif isinstance(phi, fm.Bot):
            result = (self.down(self.full_x), self.full_x)
        elif isinstance(phi, fm.And):
            result = self.op_and(self.sets(phi.left), self.sets(phi.right))
        elif isinstance(phi, fm.Or):
            result = self.op_or(self.sets(phi.left), self.sets(phi.right))
        elif isinstance(phi, fm.Box):
            result = self.op_box(self.sets(phi.inner))
        elif isinstance(phi, fm.Dia):
            result = self.op_dia(self.sets(phi.inner))
        else:
            raise TypeError(phi)
        self._memo[id(phi)] = (phi, result)
        return result

    def object_names(self, amask: int) -> FrozenSet[str]:
        return frozenset(a for i, a in enumerate(self.objects) if amask >> i & 1)

    def attribute_names(self, xmask: int) -> FrozenSet[str]:
        return frozenset(x for i, x in enumerate(self.attributes) if xmask >> i & 1)


def enumeration_relations(m1: LEModel, m2: LEModel,
                          formulas: Sequence[fm.ModalFormula]):
    """Transfer relations decided by a finite formula family, clause-evaluated.

    Returns (forward_a, forward_x, backward_a, backward_x) as frozensets of
    (left, right) name pairs; forward means satisfaction transfers from the
    left model to the right one.
    """
    e1, e2 = ClauseEvaluator(m1), ClauseEvaluator(m2)
    return relations_from_quads(m1, m2, {(e1.sets(f), e2.sets(f)) for f in formulas})


def semantic_quadruples(m1: LEModel, m2: LEModel, vocab: Sequence[str],
                        depth: int) -> Set[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The satisfaction-set pairs realized by all canonical formulas up to depth.

    Closes the atoms' (sets-in-m1, sets-in-m2) pairs under the four clause
    operations, one round per connective-nesting level. A compound's
    satisfaction sets depend only on its children's satisfaction sets, and
    the canonical form drops only commutative/idempotent duplicates (which
    cannot produce new sets), so after round d this is exactly
    {(sets_1(phi), sets_2(phi)) | phi canonical, depth(phi) <= d} -- the
    test suite also witnesses this against literal per-formula evaluation.
    """
    e1, e2 = ClauseEvaluator(m1), ClauseEvaluator(m2)
    quads = set(zip(e1.atom_sets(vocab), e2.atom_sets(vocab)))
    frontier = set(quads)
    for _ in range(depth):
        fresh = set()
        for q1, q2 in frontier:
            for cand in (((e1.op_box(q1), e2.op_box(q2))),
                         ((e1.op_dia(q1), e2.op_dia(q2)))):
                if cand not in quads:
                    fresh.add(cand)
        for q1, q2 in frontier:
            for r1, r2 in quads:
                for cand in (((e1.op_and(q1, r1), e2.op_and(q2, r2))),
                             ((e1.op_or(q1, r1), e2.op_or(q2, r2)))):
                    if cand not in quads:
                        fresh.add(cand)
        quads |= fresh
        frontier = fresh
    return quads


def relations_from_quads(m1: LEModel, m2: LEModel, quads):
    """Transfer relations decided by a set of satisfaction-set quadruples."""
    e1, e2 = ClauseEvaluator(m1), ClauseEvaluator(m2)
    fwd_a = {i: e2.full_a for i in range(len(e1.objects))}
    bwd_a = {j: e1.full_a for j in range(len(e2.objects))}
    fwd_x = {i: e2.full_x for i in range(len(e1.attributes))}
    bwd_x = {j: e1.full_x for j in range(len(e2.attributes))}
    for (a1m, x1m), (a2m, x2m) in quads:
        for i in fwd_a:
            if a1m >> i & 1:
                fwd_a[i] &= a2m
        for j in bwd_a:
            if a2m >> j & 1:
                bwd_a[j] &= a1m
        for i in fwd_x:
            if x1m >> i & 1:
                fwd_x[i] &= x2m
        for j in bwd_x:
            if x2m >> j & 1:
                bwd_x[j] &= x1m
    forward_a = frozenset((e1.objects[i], a2) for i, mask in fwd_a.items()
                          for a2 in e2.object_names(mask))
    backward_a = frozenset((a1, e2.objects[j]) for j, mask in bwd_a.items()
                           for a1 in e1.object_names(mask))
    forward_x = frozenset((e1.attributes[i], x2) for i, mask in fwd_x.items()
                          for x2 in e2.attribute_names(mask))
    backward_x = frozenset((x1, e2.attributes[j]) for j, mask in bwd_x.items()
                           for x1 in e1.attribute_names(mask))
    return forward_a, forward_x, backward_a, backward_x


def count_formulas(n_vars: int, depth: int) -> int:
    """Closed-form count of what enumerate_formulas produces."""
    count = n_vars + 2
    for _ in range(depth):
        count = (n_vars + 2) + 2 * count + 2 * (count * (count - 1) // 2)
    return count


# --- classical Kripke semantics -------------------------------------------

def kripke_truth(k: KripkeModel, phi: fm.ModalFormula, memo=None) -> FrozenSet[str]:
    """Worlds where phi holds classically (box/diamond over R, bot empty)."""
    if memo is None:
        memo = {}
    entry = memo.get(id(phi))
    if entry is not None and entry[0] is phi:
        return entry[1]
    if isinstance(phi, fm.Var):
        out = k.valuation.get(phi.name, frozenset())
    elif isinstance(phi, fm.Top):
        out = frozenset(k.worlds)
    elif isinstance(phi, fm.Bot):
        out = frozenset()
    elif isinstance(phi, fm.And):
        out = kripke_truth(k, phi.left, memo) & kripke_truth(k, phi.right, memo)
    elif isinstance(phi, fm.Or):
        out = kripke_truth(k, phi.left, memo) | kripke_truth(k, phi.right, memo)
    elif isinstance(phi, fm.Box):
        inner = kripke_truth(k, phi.inner, memo)
        out = frozenset(w for w in k.worlds
                        if all(v in inner for u, v in k.rel if u == w))
    elif isinstance(phi, fm.Dia):
        inner = kripke_truth(k, phi.inner, memo)
        out = frozenset(w for w in k.worlds
                        if any(v in inner for u, v in k.rel if u == w))
    else:
        raise TypeError(phi)
    memo[id(phi)] = (phi, out)
    return out


def is_classical_bisim(k1: KripkeModel, k2: KripkeModel,
                       z: FrozenSet[Tuple[str, str]]) -> bool:
    """Standard Kripke bisimulation: atom equivalence plus forth and back."""
    variables = set(k1.valuation) | set(k2.valuation)
    for w, v in z:
        for p in variables:
            if (w in k1.valuation.get(p, frozenset())) != (v in k2.valuation.get(p, frozenset())):
                return False
        for w2 in (b for a, b in k1.rel if a == w):
            if not any((v, v2) in k2.rel and (w2, v2) in z for v2 in k2.worlds):
                return False
        for v2 in (b for a, b in k2.rel if a == v):
            if not any((w, w2) in k1.rel and (w2, v2) in z for w2 in k1.worlds):
                return False
    return True


def greatest_classical_bisim(k1: KripkeModel, k2: KripkeModel) -> FrozenSet[Tuple[str, str]]:
    variables = set(k1.valuation) | set(k2.valuation)
    pairs = {(w, v) for w in k1.worlds for v in k2.worlds
             if all((w in k1.valuation.get(p, frozenset()))
                    == (v in k2.valuation.get(p, frozenset())) for p in variables)}
    changed = True
    while changed:
        changed = False
        for w, v in sorted(pairs):
            ok = all(any((v, v2) in k2.rel and (w2, v2) in pairs for v2 in k2.worlds)
                     for u, w2 in k1.rel if u == w)
            ok = ok and all(any((w, w2) in k1.rel and (w2, v2) in pairs
                                for w2 in k1.worlds)
                            for u, v2 in k2.rel if u == v)
            if not ok:
                pairs.discard((w, v))
                changed = True
    return frozenset(pairs)


def lift_kripke_reference(k: KripkeModel) -> LEModel:
    """The lifted LE-model, built from its definition by string concatenation:
    objects w_A and attributes w_X, incidence w_A I v_X iff w != v, R_box and
    R_dia the complement of the accessibility relation, and p as the
    concept (V(p)_A, (W minus V(p))_X)."""
    ws = k.worlds
    comp = [(u, v) for u in ws for v in ws if (u, v) not in k.rel]
    pol = Polarity(tuple(w + "_A" for w in ws), tuple(w + "_X" for w in ws),
                   frozenset((u + "_A", v + "_X") for u in ws for v in ws if u != v))
    val = {p: Concept(frozenset(w + "_A" for w in vs),
                      frozenset(w + "_X" for w in ws if w not in vs))
           for p, vs in k.valuation.items()}
    return LEModel(pol, frozenset((u + "_A", v + "_X") for u, v in comp),
                   frozenset((u + "_X", v + "_A") for u, v in comp), val)


# --- brute-force lattice/FCA oracles --------------------------------------

def set_up(pol: Polarity, objs) -> FrozenSet[str]:
    """B^up over the incidence pair set: attributes every object in B bears."""
    return frozenset(x for x in pol.attributes
                     if all((b, x) in pol.incidence for b in objs))


def set_down(pol: Polarity, attrs) -> FrozenSet[str]:
    """Y^down over the incidence pair set: objects bearing every attribute in Y."""
    return frozenset(a for a in pol.objects
                     if all((a, y) in pol.incidence for y in attrs))


def brute_concepts(pol: Polarity) -> Set[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Close every subset of A; the set of (extent, intent) pairs."""
    out = set()
    objs = list(pol.objects)
    for r in range(len(objs) + 1):
        for combo in itertools.combinations(objs, r):
            intent = set_up(pol, combo)
            extent = set_down(pol, intent)
            out.add((extent, intent))
    return out


def brute_filters(concept_extents: Sequence[FrozenSet[str]]) -> List[FrozenSet[int]]:
    """All filters of the lattice given by its concept extents, by subset check."""
    n = len(concept_extents)
    leq = [[concept_extents[i] <= concept_extents[j] for j in range(n)] for i in range(n)]

    def meet(i, j):
        candidates = [k for k in range(n) if leq[k][i] and leq[k][j]]
        for k in candidates:
            if all(leq[t][k] for t in candidates):
                return k
        raise AssertionError("not a lattice")

    out = []
    for bits in itertools.product((False, True), repeat=n):
        s = frozenset(i for i in range(n) if bits[i])
        if not s:
            continue
        if any(leq[i][j] and j not in s for i in s for j in range(n)):
            continue
        if any(meet(i, j) not in s for i in s for j in s):
            continue
        out.append(s)
    return out


def box_map_reference(model: LEModel, lat: ConceptLattice) -> Tuple[int, ...]:
    """The box of every concept as an index of ``lat``, read off the R_box
    pair set: the objects R_box-related to every attribute of the intent."""
    pol = model.polarity
    out = []
    for c in lat.concepts:
        extent = frozenset(a for a in pol.objects
                           if all((a, x) in model.r_box for x in c.intent))
        assert set_down(pol, set_up(pol, extent)) == extent, "box image not stable"
        out.append(next(j for j, d in enumerate(lat.concepts) if d.extent == extent))
    return tuple(out)


def dia_map_reference(model: LEModel, lat: ConceptLattice) -> Tuple[int, ...]:
    """The diamond of every concept as an index of ``lat``, read off the R_dia
    pair set: the attributes R_dia-related to every object of the extent."""
    pol = model.polarity
    out = []
    for c in lat.concepts:
        intent = frozenset(x for x in pol.attributes
                           if all((x, a) in model.r_dia for a in c.extent))
        assert set_up(pol, set_down(pol, intent)) == intent, "dia image not stable"
        out.append(next(j for j, d in enumerate(lat.concepts) if d.intent == intent))
    return tuple(out)


def incompatible_model() -> LEModel:
    """A model whose operators are not Galois-stable. I is empty, so the
    stable object sets are {} and {a, b}; the R_box column of x and the
    R_dia column of a are {a} and {x}, not stable."""
    pol = Polarity.make(["a", "b"], ["x", "y"], [])
    return LEModel.make(pol, [("a", "x"), ("a", "y")], [("x", "a"), ("x", "b")],
                        {"p": Concept(frozenset({"a", "b"}), frozenset())})


def validate_reference(model: LEModel) -> List[Tuple[str, str, FrozenSet[str], FrozenSet[str]]]:
    """The violations of the LE-model conditions as (kind, subject, found,
    expected), in report order, read off the relation pair sets directly."""
    pol = model.polarity
    out = []

    def need_stable_attrs(kind, subject, ys):
        closure = set_up(pol, set_down(pol, ys))
        if closure != ys:
            out.append((kind, subject, ys, closure))

    def need_stable_objs(kind, subject, bs):
        closure = set_down(pol, set_up(pol, bs))
        if closure != bs:
            out.append((kind, subject, bs, closure))

    for a in pol.objects:
        need_stable_attrs("r_box_row", a,
                          frozenset(x for x in pol.attributes if (a, x) in model.r_box))
        need_stable_attrs("r_dia_col", a,
                          frozenset(x for x in pol.attributes if (x, a) in model.r_dia))
    for x in pol.attributes:
        need_stable_objs("r_box_col", x,
                         frozenset(a for a in pol.objects if (a, x) in model.r_box))
        need_stable_objs("r_dia_row", x,
                         frozenset(a for a in pol.objects if (x, a) in model.r_dia))
    for p in sorted(model.valuation):
        c = model.valuation[p]
        up = set_up(pol, c.extent)
        if up != c.intent:
            out.append(("valuation", p, c.intent, up))
        elif set_down(pol, c.intent) != c.extent:
            out.append(("valuation", p, c.extent, set_down(pol, c.intent)))
    return out


# --- brute-force simulation oracles ----------------------------------------

def _sim_clause_violations(m1: LEModel, m2: LEModel, z, direction: str) -> list:
    """The six clauses checked pair by pair over the relation pair sets."""
    from polarity_mc.simrel import SimViolation
    for what, pairs, left, right in (("object", z.s, m1.objects, m2.objects),
                                     ("attribute", z.t, m1.attributes, m2.attributes)):
        left, right = set(left), set(right)
        for u, v in pairs:
            if u not in left or v not in right:
                raise ValueError(f"{what} pair {(u, v)!r} is not left-{what} x right-{what}")
    v1, v2 = set(m1.valuation), set(m2.valuation)
    if v1 != v2:
        raise ValueError(f"models interpret different variables: "
                         f"{sorted(v1 ^ v2)} not shared")
    variables = sorted(v1)
    out = []
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


def simulation_violations_reference(m1: LEModel, m2: LEModel, z,
                                    bisim: bool = False) -> list:
    """The SimViolation list of z as a simulation (or, with ``bisim``, as a
    bisimulation: z forward, then its converse from m2 to m1 backward), read
    off the models' relation pair sets with no bit index."""
    out = _sim_clause_violations(m1, m2, z, "forward")
    if bisim:
        out.extend(_sim_clause_violations(m2, m1, z.converse(), "backward"))
    return out


def kpower_functions(model: LEModel, k: int,
                     cap: int = POWER_CAP) -> Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]:
    """All object- and attribute-sort functions of the K-power (for Los checks)."""
    n_a, n_x = len(model.objects), len(model.attributes)
    if n_a ** k > cap or n_x ** k > cap:
        raise CapExceeded(f"K-power carrier {max(n_a, n_x)}^{k} exceeds cap {cap}")
    return (list(itertools.product(model.objects, repeat=k)),
            list(itertools.product(model.attributes, repeat=k)))


def _prop_consistent_pairs(m1: LEModel, m2: LEModel):
    variables = sorted(m1.valuation)
    s0 = [(a1, a2) for a1 in m1.objects for a2 in m2.objects
          if all(a1 not in m1.valuation[p].extent or a2 in m2.valuation[p].extent
                 for p in variables)]
    t0 = [(x1, x2) for x1 in m1.attributes for x2 in m2.attributes
          if all(x2 not in m2.valuation[p].intent or x1 in m1.valuation[p].intent
                 for p in variables)]
    return s0, t0


def _union_of_passing(m1: LEModel, m2: LEModel, s0, t0, bisim: bool):
    union_s: Set[Tuple[str, str]] = set()
    union_t: Set[Tuple[str, str]] = set()
    from polarity_mc.simrel import SimPair
    for sbits in range(1 << len(s0)):
        s = frozenset(s0[i] for i in range(len(s0)) if sbits >> i & 1)
        for tbits in range(1 << len(t0)):
            t = frozenset(t0[i] for i in range(len(t0)) if tbits >> i & 1)
            if not simulation_violations_reference(m1, m2, SimPair(s, t), bisim):
                union_s |= s
                union_t |= t
    return frozenset(union_s), frozenset(union_t)


def all_simulations_union(m1: LEModel, m2: LEModel, limit_bits: int = 16):
    """Union of every (S, T) passing the definitional checker, by subset enumeration.

    Only candidate pairs passing the propositional clauses can appear in a
    simulation, so the enumeration ranges over subsets of those. Returns
    None when the candidate space exceeds 2**limit_bits.
    """
    s0, t0 = _prop_consistent_pairs(m1, m2)
    if len(s0) + len(t0) > limit_bits:
        return None
    return _union_of_passing(m1, m2, s0, t0, bisim=False)


def all_bisimulations_union(m1: LEModel, m2: LEModel, limit_bits: int = 16):
    """Union of every (S, T) passing the definitional bisimulation checker."""
    s0, t0 = _prop_consistent_pairs(m1, m2)
    s0 = [(a1, a2) for a1, a2 in s0
          if all(a2 not in m2.valuation[p].extent or a1 in m1.valuation[p].extent
                 for p in m1.valuation)]
    t0 = [(x1, x2) for x1, x2 in t0
          if all(x1 not in m1.valuation[p].intent or x2 in m2.valuation[p].intent
                 for p in m1.valuation)]
    if len(s0) + len(t0) > limit_bits:
        return None
    return _union_of_passing(m1, m2, s0, t0, bisim=True)
