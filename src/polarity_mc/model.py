"""Core semantic structures: polarities, formal concepts, LE-models, Kripke lifting.

A polarity (A, X, I) induces the Galois connection up/down between object
sets and attribute sets; LE-models add I-compatible relations R_box, R_dia
and a concept-valued valuation. Everything here is immutable after
construction and all operations are pure.

Each polarity and LE-model carries a bit index, built on first use: bit i
of a mask is the i-th declared element of its sort, and I, R_box and R_dia
are stored as row and column masks. The Galois maps, the preimages, the
concept lattice, validation and simulation refinement compute on masks;
names appear only where results are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Pair = Tuple[str, str]


class SortError(ValueError):
    """An identifier was used at the wrong sort (object vs attribute)."""


def _as_frozen(items: Iterable[str]) -> FrozenSet[str]:
    return items if isinstance(items, frozenset) else frozenset(items)


def positions(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Carrier:
    """One sort in declaration order, as bit positions: bit i is ``names[i]``."""

    __slots__ = ("names", "bit", "full", "unknown")

    def __init__(self, names: Tuple[str, ...], sort: str):
        self.names = names
        self.bit = {name: 1 << i for i, name in enumerate(names)}
        self.full = (1 << len(names)) - 1
        self.unknown = f"unknown {sort} identifiers: {{}}"

    def mask(self, items: FrozenSet[str], unknown: Optional[str] = None) -> int:
        """The mask of ``items``. An item outside the carrier raises a
        SortError, ``unknown`` (or the carrier's own message) formatted with
        the sorted strays."""
        bit = self.bit
        out = 0
        try:
            for item in items:
                out |= bit[item]
        except KeyError:
            strays = sorted(items - bit.keys())
            raise SortError((unknown or self.unknown).format(strays)) from None
        return out

    def members(self, mask: int) -> FrozenSet[str]:
        names = self.names
        return frozenset([names[k] for k in positions(mask)])


def meet_masks(mask: int, table: Sequence[int], full: int) -> int:
    """AND of ``table[i]`` over the set bits i of ``mask``; ``full`` if none."""
    out = full
    for k in positions(mask):
        out &= table[k]
    return out


def _rows_cols(pairs: Iterable[Pair], left: Carrier,
               right: Carrier) -> Tuple[List[int], List[int]]:
    """A relation between two carriers as row masks (over ``right``, one per
    left position) and column masks (over ``left``, one per right position)."""
    rows, cols = [0] * len(left.names), [0] * len(right.names)
    lbit, rbit = left.bit, right.bit
    for u, v in pairs:
        bu, bv = lbit[u], rbit[v]
        rows[bu.bit_length() - 1] |= bv
        cols[bv.bit_length() - 1] |= bu
    return rows, cols


class PolarityBits:
    """A polarity's carriers as bit positions and I as masks.

    ``i_rows[i]`` is the attribute mask of I at the i-th object and
    ``i_cols[j]`` the object mask at the j-th attribute. It holds no
    reference to its polarity, so storing it there makes no cycle.
    """

    __slots__ = ("objs", "attrs", "i_rows", "i_cols")

    def __init__(self, objects: Tuple[str, ...], attributes: Tuple[str, ...],
                 incidence: FrozenSet[Pair]):
        self.objs, self.attrs = Carrier(objects, "object"), Carrier(attributes, "attribute")
        self.i_rows, self.i_cols = _rows_cols(incidence, self.objs, self.attrs)

    def up(self, objs: int) -> int:
        return meet_masks(objs, self.i_rows, self.attrs.full)

    def down(self, attrs: int) -> int:
        return meet_masks(attrs, self.i_cols, self.objs.full)


class ModelBits:
    """R_box and R_dia of an LE-model as masks over its polarity's index.

    ``box_rows[i]``: attributes x with a_i R_box x; ``box_cols[j]``: objects
    a with a R_box x_j; ``dia_rows[j]``: objects a with x_j R_dia a;
    ``dia_cols[i]``: attributes x with x R_dia a_i.
    """

    __slots__ = ("pol", "box_rows", "box_cols", "dia_rows", "dia_cols")

    def __init__(self, pol: PolarityBits, r_box: FrozenSet[Pair], r_dia: FrozenSet[Pair]):
        self.pol = pol
        self.box_rows, self.box_cols = _rows_cols(r_box, pol.objs, pol.attrs)
        self.dia_rows, self.dia_cols = _rows_cols(r_dia, pol.attrs, pol.objs)


@dataclass(frozen=True)
class Polarity:
    """A formal context: objects, attributes, and an incidence relation.

    Declaration order of ``objects`` and ``attributes`` is preserved and
    fixes the iteration order of every derived computation, so outputs are
    deterministic. Object and attribute namespaces must be disjoint.
    """

    objects: Tuple[str, ...]
    attributes: Tuple[str, ...]
    incidence: FrozenSet[Pair]

    def __post_init__(self):
        objs, attrs = frozenset(self.objects), frozenset(self.attributes)
        # Kept for the sort checks, like ``_bits``; not dataclass fields.
        object.__setattr__(self, "_object_set", objs)
        object.__setattr__(self, "_attribute_set", attrs)
        if len(objs) != len(self.objects):
            raise ValueError("duplicate object identifiers")
        if len(attrs) != len(self.attributes):
            raise ValueError("duplicate attribute identifiers")
        overlap = objs & attrs
        if overlap:
            raise SortError(f"identifiers in both sorts: {sorted(overlap)}")
        for a, x in self.incidence:
            if a not in objs:
                raise SortError(f"incidence references unknown object {a!r}")
            if x not in attrs:
                raise SortError(f"incidence references unknown attribute {x!r}")

    @staticmethod
    def make(objects: Iterable[str], attributes: Iterable[str],
             incidence: Iterable[Pair]) -> "Polarity":
        return Polarity(tuple(objects), tuple(attributes),
                        frozenset((a, x) for a, x in incidence))

    def check_objects(self, items: Iterable[str]) -> FrozenSet[str]:
        items = _as_frozen(items)
        bad = items - self._object_set
        if bad:
            raise SortError(f"unknown object identifiers: {sorted(bad)}")
        return items

    def check_attributes(self, items: Iterable[str]) -> FrozenSet[str]:
        items = _as_frozen(items)
        bad = items - self._attribute_set
        if bad:
            raise SortError(f"unknown attribute identifiers: {sorted(bad)}")
        return items

    @property
    def bits(self) -> PolarityBits:
        """The carrier bit index and I masks, built on first use."""
        bits = self.__dict__.get("_bits")
        if bits is None:
            bits = PolarityBits(self.objects, self.attributes, self.incidence)
            object.__setattr__(self, "_bits", bits)
        return bits

    def up(self, objs: Iterable[str]) -> FrozenSet[str]:
        """B^up = { x | every b in B has b I x }."""
        bits = self.bits
        return bits.attrs.members(bits.up(bits.objs.mask(_as_frozen(objs))))

    def down(self, attrs: Iterable[str]) -> FrozenSet[str]:
        """Y^down = { a | every y in Y has a I y }."""
        bits = self.bits
        return bits.objs.members(bits.down(bits.attrs.mask(_as_frozen(attrs))))


def galois_up(polarity: Polarity, objs: Iterable[str]) -> FrozenSet[str]:
    """Attributes shared by every object in ``objs`` (the up map of I)."""
    return polarity.up(objs)


def galois_down(polarity: Polarity, attrs: Iterable[str]) -> FrozenSet[str]:
    """Objects bearing every attribute in ``attrs`` (the down map of I)."""
    return polarity.down(attrs)


@dataclass(frozen=True)
class Concept:
    """A Galois-stable (extent, intent) pair.

    Identity and hashing are by extent alone: the intent of a concept is
    determined by its extent.
    """

    extent: FrozenSet[str]
    intent: FrozenSet[str]

    def __eq__(self, other):
        if not isinstance(other, Concept):
            return NotImplemented
        return self.extent == other.extent

    def __hash__(self):
        return hash(self.extent)


def make_concept(polarity: Polarity, objs: Iterable[str]) -> Concept:
    """The smallest concept whose extent contains ``objs``."""
    intent = polarity.up(objs)
    return Concept(polarity.down(intent), intent)


def top_concept(polarity: Polarity) -> Concept:
    # A is always stable (A^up^down is contained in A and contains it).
    full = frozenset(polarity.objects)
    c = Concept(full, polarity.up(full))
    assert polarity.down(c.intent) == full
    return c


def bottom_concept(polarity: Polarity) -> Concept:
    full = frozenset(polarity.attributes)
    return Concept(polarity.down(full), full)


@dataclass(frozen=True)
class LEModel:
    """A polarity with I-compatible relations R_box, R_dia and a valuation.

    ``r_box`` is a set of (object, attribute) pairs, ``r_dia`` a set of
    (attribute, object) pairs. Construction checks sorts only;
    I-compatibility and concept-hood of the valuation are checked by
    :func:`validate_model`.
    """

    polarity: Polarity
    r_box: FrozenSet[Pair]
    r_dia: FrozenSet[Pair]
    valuation: Mapping[str, Concept]

    def __post_init__(self):
        objs, attrs = self.polarity._object_set, self.polarity._attribute_set
        for a, x in self.r_box:
            if a not in objs or x not in attrs:
                raise SortError(f"r_box pair {(a, x)!r} is not object x attribute")
        for x, a in self.r_dia:
            if x not in attrs or a not in objs:
                raise SortError(f"r_dia pair {(x, a)!r} is not attribute x object")
        for p, c in self.valuation.items():
            self.polarity.check_objects(c.extent)
            self.polarity.check_attributes(c.intent)

    @staticmethod
    def make(polarity: Polarity, r_box: Iterable[Pair], r_dia: Iterable[Pair],
             valuation: Mapping[str, Concept]) -> "LEModel":
        return LEModel(polarity, frozenset(tuple(p) for p in r_box),
                       frozenset(tuple(p) for p in r_dia), dict(valuation))

    @property
    def objects(self) -> Tuple[str, ...]:
        return self.polarity.objects

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self.polarity.attributes

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.valuation))

    @property
    def bits(self) -> ModelBits:
        """R_box/R_dia masks over the polarity's index, built on first use."""
        bits = self.__dict__.get("_bits")
        if bits is None:
            bits = ModelBits(self.polarity.bits, self.r_box, self.r_dia)
            object.__setattr__(self, "_bits", bits)
        return bits


def rel_preimage(model: LEModel, rel: str, targets: Iterable[str],
                 index: int) -> FrozenSet[str]:
    """Universal (pre)image R^(0)/R^(1) of one of the model's relations.

    ``rel`` is one of ``"I"``, ``"box"``, ``"dia"``. For a relation
    R between sorts (S0, S1), index 0 maps a subset of S1 to
    { u in S0 | u R v for all v in targets } and index 1 maps a subset of
    S0 to { v in S1 | u R v for all u in targets }. I and R_box live on
    A x X, R_dia on X x A. Empty targets give the full carrier.
    """
    mask, carrier = preimage_mask(model, rel, targets, index)
    return carrier.members(mask)


def preimage_mask(model: LEModel, rel: str, targets: Iterable[str],
                  index: int) -> Tuple[int, Carrier]:
    """:func:`rel_preimage` as a mask, with the carrier it is a mask over."""
    bits = model.bits
    pol = bits.pol
    if rel == "I":
        rows, cols, s0, s1 = pol.i_rows, pol.i_cols, pol.objs, pol.attrs
    elif rel == "box":
        rows, cols, s0, s1 = bits.box_rows, bits.box_cols, pol.objs, pol.attrs
    elif rel == "dia":
        rows, cols, s0, s1 = bits.dia_rows, bits.dia_cols, pol.attrs, pol.objs
    else:
        raise ValueError(f"unknown relation {rel!r}")
    if index == 0:
        mask = s1.mask(_as_frozen(targets), "targets {} not in the codomain sort of " + rel)
        return meet_masks(mask, cols, s0.full), s0
    if index == 1:
        mask = s0.mask(_as_frozen(targets), "targets {} not in the domain sort of " + rel)
        return meet_masks(mask, rows, s1.full), s1
    raise ValueError("index must be 0 or 1")


@dataclass(frozen=True)
class Violation:
    """One failed validity condition of a candidate LE-model."""

    kind: str  # "r_box_row" | "r_box_col" | "r_dia_row" | "r_dia_col" | "valuation"
    subject: str  # the element or variable the condition is about
    found: FrozenSet[str]
    expected: FrozenSet[str]

    def __str__(self):
        return (f"{self.kind}[{self.subject}]: {sorted(self.found)} is not "
                f"Galois-stable (closure {sorted(self.expected)})")


def validate_model(model: LEModel) -> List[Violation]:
    """Every violated I-compatibility instance and non-concept valuation entry.

    The relations are I-compatible when, for each object a and attribute x,
    the four singleton (pre)images {x' | a R_box x'}, {a' | a' R_box x},
    {a' | x R_dia a'} and {x' | x' R_dia a} are Galois-stable. An empty
    report means the input is a genuine LE-model.
    """
    bits = model.bits
    pol = bits.pol
    objs, attrs = pol.objs, pol.attrs
    out: List[Violation] = []

    def need_stable_attrs(kind, subject, ys):
        closure = pol.up(pol.down(ys))
        if closure != ys:
            out.append(Violation(kind, subject, attrs.members(ys), attrs.members(closure)))

    def need_stable_objs(kind, subject, bs):
        closure = pol.down(pol.up(bs))
        if closure != bs:
            out.append(Violation(kind, subject, objs.members(bs), objs.members(closure)))

    for i, a in enumerate(objs.names):
        need_stable_attrs("r_box_row", a, bits.box_rows[i])
        need_stable_attrs("r_dia_col", a, bits.dia_cols[i])
    for j, x in enumerate(attrs.names):
        need_stable_objs("r_box_col", x, bits.box_cols[j])
        need_stable_objs("r_dia_row", x, bits.dia_rows[j])
    for p in sorted(model.valuation):
        c = model.valuation[p]
        extent = objs.mask(c.extent)
        intent = attrs.mask(c.intent)
        up = pol.up(extent)
        if up != intent:
            out.append(Violation("valuation", p, c.intent, attrs.members(up)))
        elif pol.down(intent) != extent:
            out.append(Violation("valuation", p, c.extent, objs.members(pol.down(intent))))
    return out


@dataclass(frozen=True)
class KripkeModel:
    """A plain Kripke model (worlds, accessibility, valuation)."""

    worlds: Tuple[str, ...]
    rel: FrozenSet[Pair]
    valuation: Mapping[str, FrozenSet[str]]

    def __post_init__(self):
        ws = set(self.worlds)
        for u, v in self.rel:
            if u not in ws or v not in ws:
                raise ValueError(f"accessibility pair {(u, v)!r} references unknown world")
        for p, vs in self.valuation.items():
            if not set(vs) <= ws:
                raise ValueError(f"valuation of {p!r} references unknown worlds")

    @staticmethod
    def make(worlds: Iterable[str], rel: Iterable[Pair],
             valuation: Mapping[str, Iterable[str]]) -> "KripkeModel":
        return KripkeModel(tuple(worlds), frozenset(tuple(p) for p in rel),
                           {p: frozenset(v) for p, v in valuation.items()})


def lift_kripke(k: KripkeModel) -> LEModel:
    """The LE-model with objects/attributes two copies of the worlds.

    Incidence is inequality, R_box = R_dia is the complement of the
    accessibility relation, and each variable becomes the concept
    (V(p), W minus V(p)). Every subset is Galois-stable under the
    inequality incidence, so the result always validates cleanly.
    World w is duplicated as w_A (object) and w_X (attribute).
    """
    ws = k.worlds
    objs = tuple(w + "_A" for w in ws)
    attrs = tuple(w + "_X" for w in ws)
    succ: Dict[str, Set[str]] = {w: set() for w in ws}
    for u, v in k.rel:
        succ[u].add(v)
    inc, r_box, r_dia = [], [], []
    for iu, u in enumerate(ws):
        a, x, to = objs[iu], attrs[iu], succ[u]
        row = [(a, y) for y in attrs]  # one tuple per pair, shared by I and R_box
        inc += row[:iu]
        inc += row[iu + 1:]
        for iv, v in enumerate(ws):
            if v not in to:
                r_box.append(row[iv])
                r_dia.append((x, objs[iv]))
    pol = Polarity(objs, attrs, frozenset(inc))
    val = {}
    for p in sorted(k.valuation):
        vs = k.valuation[p]
        val[p] = Concept(frozenset(a for w, a in zip(ws, objs) if w in vs),
                         frozenset(x for w, x in zip(ws, attrs) if w not in vs))
    return LEModel(pol, frozenset(r_box), frozenset(r_dia), val)
