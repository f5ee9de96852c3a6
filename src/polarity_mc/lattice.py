"""Concept lattices, their modal operators, filters/ideals, and the
filter-ideal extension of an LE-model.

Concepts are enumerated by closing the full object set under intersection
with attribute columns (the standard intersection method); a brute-force
closure of all object subsets is kept in the test suite as an oracle.

The enumeration yields extent and intent masks, unordered and unnamed, and
the complex algebra's box and diamond are read off them as mask maps; the
equivalence oracle closes over those directly. :func:`concept_lattice`
sorts and names the same enumeration, and :func:`operator_maps` gives box
and diamond as index maps on it. Every filter of a finite lattice is
principal, the up-set of its meet, and every ideal the down-set of its
join, so the filters and ideals are one per concept and the filter-ideal
extension has a closed form in O(|L|^2) on concept indices. ``FILTER_CAP``
bounds the size of that output, not an enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Tuple

from .model import (Carrier, Concept, LEModel, Polarity, SortError, meet_masks, positions,
                    preimage_mask)


class CapExceeded(ValueError):
    pass


LATTICE_CAP = 64   # maximum |A| + |X| for concept enumeration
FILTER_CAP = 12    # maximum lattice size for the filters, ideals and extension


@dataclass(frozen=True)
class ConceptLattice:
    """All formal concepts of a polarity, ordered by extent inclusion.

    ``concepts`` is sorted bottom-up (by extent size, then extent);
    ``index_of`` finds a concept by its extent. :func:`concept_lattice`
    also stores, as private attributes that the package reads, the
    concepts' extent masks (``_extents``) and intent masks (``_intents``)
    over the polarity's bit index, and the index of each extent and intent
    mask (``_by_extent``, ``_by_intent``). Extents and intents are closed
    under intersection, so a meet is one AND of extents and a join one AND
    of intents.
    """

    polarity: Polarity
    concepts: Tuple[Concept, ...]

    def __len__(self):
        return len(self.concepts)

    def index_of(self, c: Concept) -> int:
        by_extent = self._by_extent
        return by_extent[_concept_extent(by_extent, self.polarity.bits.objs, c)]

    @property
    def bottom(self) -> Concept:
        return self.concepts[0]

    @property
    def top(self) -> Concept:
        return self.concepts[-1]

    def meet(self, c: Concept, d: Concept) -> Concept:
        ext = self._extents
        return self.concepts[self._by_extent[ext[self.index_of(c)] & ext[self.index_of(d)]]]

    def join(self, c: Concept, d: Concept) -> Concept:
        itt = self._intents
        return self.concepts[self._by_intent[itt[self.index_of(c)] & itt[self.index_of(d)]]]

    def object_generator(self, a: str) -> Concept:
        """The smallest concept whose extent contains the object a."""
        pol = self.polarity
        intent = pol.up([a])
        return Concept(pol.down(intent), intent)

    def attribute_generator(self, x: str) -> Concept:
        """The largest concept whose intent contains the attribute x."""
        pol = self.polarity
        extent = pol.down([x])
        return Concept(extent, pol.up(extent))

    def covers(self) -> List[Tuple[int, int]]:
        """The covering pairs (i, j) of the Hasse diagram, i covered by j.

        The upper covers of a concept are the minimal closures of its
        extent plus one object outside it.
        """
        bits, by_extent = self.polarity.bits, self._by_extent
        out = []
        for i, e in enumerate(self._extents):
            ups = {bits.down(bits.up(e | b)) for b in bits.objs.bit.values() if not e & b}
            out.extend(sorted((i, by_extent[f]) for f in ups
                              if not any(g != f and not g & ~f for g in ups)))
        return out


def _concept_masks(polarity: Polarity, cap: int = LATTICE_CAP) -> Dict[int, int]:
    """Every formal concept of the polarity as ``{extent mask: intent mask}``,
    in no particular order.

    Extents are exactly the intersections of attribute columns (the empty
    intersection giving A), so one pass that intersects the running family
    with each column enumerates them all.
    """
    if len(polarity.objects) + len(polarity.attributes) > cap:
        raise CapExceeded(
            f"|A| + |X| = {len(polarity.objects) + len(polarity.attributes)} "
            f"exceeds the lattice cap {cap}")
    bits = polarity.bits
    extents = {bits.objs.full}
    for col in bits.i_cols:
        extents |= {e & col for e in extents}
    up = bits.up
    return {e: up(e) for e in extents}


def _in_order(objs: Carrier, extents: Iterable[int]) -> List[Tuple[int, List[str], int]]:
    """The extents bottom-up, by size and then sorted names, as
    ``(size, sorted names, mask)``."""
    names = objs.names
    rows = []
    for e in extents:
        ext = sorted([names[k] for k in positions(e)])
        rows.append((len(ext), ext, e))
    rows.sort()
    return rows


def concept_lattice(polarity: Polarity, cap: int = LATTICE_CAP) -> ConceptLattice:
    """Every formal concept of the polarity, sorted and named."""
    intent_of = _concept_masks(polarity, cap)
    attrs = polarity.bits.attrs
    rows = _in_order(polarity.bits.objs, intent_of)
    extents = tuple(e for _, _, e in rows)
    intents = tuple(intent_of[e] for e in extents)
    concepts = tuple(Concept(frozenset(ext), attrs.members(t))
                     for (_, ext, _), t in zip(rows, intents))
    lat = ConceptLattice(polarity, concepts)
    for name, value in (("_extents", extents), ("_intents", intents),
                        ("_by_extent", {e: i for i, e in enumerate(extents)}),
                        ("_by_intent", {t: i for i, t in enumerate(intents)})):
        object.__setattr__(lat, name, value)
    return lat


class _Algebra(NamedTuple):
    """The complex algebra of an LE-model on masks, unordered and unnamed.

    ``intent`` maps each concept's extent mask to its intent mask and
    ``extent`` the other way; ``box`` and ``dia`` map each extent to the
    extent of its box and of its diamond.
    """

    intent: Dict[int, int]
    extent: Dict[int, int]
    box: Dict[int, int]
    dia: Dict[int, int]


def _complex_algebra(model: LEModel, intent: Dict[int, int]) -> _Algebra:
    """The algebra on the concepts ``intent`` (from :func:`_concept_masks`).

    The box of a concept has the R_box preimage of its intent as extent;
    the diamond has the R_dia preimage of its extent as intent. Both are
    Galois-stable on a model that passes ``validate_model``; an image that
    is not raises ValueError naming the concept's index in
    :func:`concept_lattice`'s order.
    """
    bits = model.bits
    objs, attrs = bits.pol.objs, bits.pol.attrs
    extent = {t: e for e, t in intent.items()}
    box = {e: meet_masks(t, bits.box_cols, objs.full) for e, t in intent.items()}
    dia = {e: extent.get(meet_masks(e, bits.dia_cols, attrs.full)) for e in intent}
    if not set(box.values()) <= intent.keys() or None in dia.values():
        order = [e for _, _, e in _in_order(objs, intent)]
        for op, stable in (("box", lambda e: box[e] in intent),
                           ("dia", lambda e: dia[e] is not None)):
            bad = [i for i, e in enumerate(order) if not stable(e)]
            if bad:
                raise ValueError(f"{op} of concept {bad[0]} is not Galois-stable: "
                                 f"the model is not I-compatible")
    return _Algebra(intent, extent, box, dia)


def _concept_extent(extents: Mapping[int, object], objs: Carrier, c: Concept) -> int:
    """The extent mask of ``c``, which must be a key of ``extents``, a map
    on the extent masks of a lattice (ValueError otherwise)."""
    try:
        e = objs.mask(c.extent)
    except SortError:
        e = None
    if e not in extents:
        raise ValueError(f"not a concept of this lattice: {sorted(c.extent)}")
    return e


def operator_maps(model: LEModel, lat: ConceptLattice) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The complex algebra's box and diamond as index maps on ``lat``, the
    concept lattice of the model's polarity (see :func:`_complex_algebra`)."""
    alg = _complex_algebra(model, dict(zip(lat._extents, lat._intents)))
    by_extent = lat._by_extent
    return (tuple(by_extent[alg.box[e]] for e in lat._extents),
            tuple(by_extent[alg.dia[e]] for e in lat._extents))


def box_op(model: LEModel, c: Concept) -> Concept:
    """The complex-algebra box: (R_box^(0)[intent c], closure thereof)."""
    ext, _ = preimage_mask(model, "box", c.intent, 0)
    pol = model.bits.pol
    return Concept(pol.objs.members(ext), pol.attrs.members(pol.up(ext)))


def dia_op(model: LEModel, c: Concept) -> Concept:
    """The complex-algebra diamond: (down-closure, R_dia^(0)[extent c])."""
    itt, _ = preimage_mask(model, "dia", c.extent, 0)
    pol = model.bits.pol
    return Concept(pol.objs.members(pol.down(itt)), pol.attrs.members(itt))


@dataclass(frozen=True)
class Filter:
    """A lattice filter: nonempty, upward closed, closed under binary meet."""

    members: FrozenSet[Concept]


@dataclass(frozen=True)
class Ideal:
    """A lattice ideal: nonempty, downward closed, closed under binary join."""

    members: FrozenSet[Concept]


def _check_filter_cap(lat: ConceptLattice, cap: int):
    if len(lat) > cap:
        raise CapExceeded(f"lattice has {len(lat)} concepts, "
                          f"more than the filter cap {cap}")


def _principal_sets(lat: ConceptLattice, cap: int,
                    upward: bool) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The up-sets (or down-sets) of every concept as ascending index tuples,
    indexed by concept, and the concepts in the order of their sets by
    (size, indices)."""
    _check_filter_cap(lat, cap)
    ext = lat._extents
    if upward:
        sets = [tuple(j for j, f in enumerate(ext) if not e & ~f) for e in ext]
    else:
        sets = [tuple(j for j, f in enumerate(ext) if not f & ~e) for e in ext]
    order = sorted(range(len(ext)), key=lambda c: (len(sets[c]), sets[c]))
    return order, sets


def _members(lat: ConceptLattice, idxs: Tuple[int, ...]) -> FrozenSet[Concept]:
    return frozenset(lat.concepts[j] for j in idxs)


def all_filters(lat: ConceptLattice, cap: int = FILTER_CAP) -> List[Filter]:
    """Every filter of the lattice: the principal filter of each concept,
    ordered by (size, sorted concept indices)."""
    order, ups = _principal_sets(lat, cap, upward=True)
    return [Filter(_members(lat, ups[c])) for c in order]


def all_ideals(lat: ConceptLattice, cap: int = FILTER_CAP) -> List[Ideal]:
    """Every ideal of the lattice, dually to :func:`all_filters`."""
    order, downs = _principal_sets(lat, cap, upward=False)
    return [Ideal(_members(lat, downs[c])) for c in order]


def principal_filter(lat: ConceptLattice, c: Concept) -> Filter:
    lat.index_of(c)
    return Filter(frozenset(d for d in lat.concepts if c.extent <= d.extent))


def principal_ideal(lat: ConceptLattice, c: Concept) -> Ideal:
    lat.index_of(c)
    return Ideal(frozenset(d for d in lat.concepts if d.extent <= c.extent))


@dataclass(frozen=True)
class FIExtension:
    """The filter-ideal extension of a model, with its naming legend.

    Objects of ``model`` are the filters of the base model's concept
    lattice (named F0, F1, ...), attributes its ideals (J0, J1, ...).
    ``object_image``/``attribute_image`` send each base point to the name
    of the principal filter of its object generator (resp. principal ideal
    of its attribute generator), the embedding of the truth lemma.
    """

    model: LEModel
    lattice: ConceptLattice
    filters: Tuple[Filter, ...]
    ideals: Tuple[Ideal, ...]
    object_image: Mapping[str, str]
    attribute_image: Mapping[str, str]

    def filter_name(self, f: Filter) -> str:
        return "F" + str(self.filters.index(f))

    def ideal_name(self, j: Ideal) -> str:
        return "J" + str(self.ideals.index(j))


def filter_ideal_extension(model: LEModel, lattice_cap: int = LATTICE_CAP,
                           filter_cap: int = FILTER_CAP) -> FIExtension:
    """The LE-model whose points are the filters and ideals of the complex algebra.

    A filter F is incident to an ideal J when they intersect; F R_box J
    when J contains a concept whose box lies in F; J R_dia F when F
    contains a concept whose diamond lies in J. Each variable p is sent to
    the pair ({F | V(p) in F}, {J | V(p) in J}).

    With F = up(c) and J = down(d), and box and diamond monotone, these
    read: F I J iff c <= d, F R_box J iff c <= box d, J R_dia F iff
    dia c <= d, and V(p) in up(d) iff d <= V(p).
    """
    lat = concept_lattice(model.polarity, lattice_cap)
    box_map, dia_map = operator_maps(model, lat)
    f_order, ups = _principal_sets(lat, filter_cap, upward=True)
    j_order, downs = _principal_sets(lat, filter_cap, upward=False)
    n = len(lat)
    fnames, jnames = [""] * n, [""] * n
    for k, c in enumerate(f_order):
        fnames[c] = "F" + str(k)
    for k, d in enumerate(j_order):
        jnames[d] = "J" + str(k)

    incidence = frozenset((fnames[c], jnames[d]) for c in range(n) for d in ups[c])
    r_box = frozenset((fnames[c], jnames[d]) for d in range(n) for c in downs[box_map[d]])
    r_dia = frozenset((jnames[d], fnames[c]) for c in range(n) for d in ups[dia_map[c]])
    pol = Polarity(tuple(fnames[c] for c in f_order), tuple(jnames[d] for d in j_order),
                   incidence)
    valuation = {}
    for p in sorted(model.valuation):
        c = lat.index_of(model.valuation[p])
        valuation[p] = Concept(frozenset(fnames[d] for d in downs[c]),
                               frozenset(jnames[d] for d in ups[c]))
    extension_model = LEModel(pol, r_box, r_dia, valuation)

    bits = model.polarity.bits
    object_image = {a: fnames[lat._by_extent[bits.down(bits.up(bit))]]
                    for a, bit in bits.objs.bit.items()}
    attribute_image = {x: jnames[lat._by_extent[bits.down(bit)]]
                       for x, bit in bits.attrs.bit.items()}
    return FIExtension(extension_model, lat,
                       tuple(Filter(_members(lat, ups[c])) for c in f_order),
                       tuple(Ideal(_members(lat, downs[d])) for d in j_order),
                       object_image, attribute_image)
