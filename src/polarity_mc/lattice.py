"""Concept lattices, their modal operators, filters/ideals, and the
filter-ideal extension of an LE-model.

Concepts are enumerated by closing the full object set under intersection
with attribute columns (the standard intersection method); a brute-force
closure of all object subsets is kept in the test suite as an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .model import Concept, LEModel, Polarity, preimage_mask


class CapExceeded(ValueError):
    pass


LATTICE_CAP = 64   # maximum |A| + |X| for concept enumeration
FILTER_CAP = 12    # maximum lattice size for filter/ideal enumeration


@dataclass(frozen=True)
class ConceptLattice:
    """All formal concepts of a polarity, ordered by extent inclusion.

    ``concepts`` is sorted bottom-up (by extent size, then extent). The
    meet/join tables are index-valued; ``index_of`` finds a concept by its
    extent.
    """

    polarity: Polarity
    concepts: Tuple[Concept, ...]
    meet_table: Tuple[Tuple[int, ...], ...]
    join_table: Tuple[Tuple[int, ...], ...]

    def __len__(self):
        return len(self.concepts)

    def index_of(self, c: Concept) -> int:
        index = getattr(self, "_extent_index", None)
        if index is None:
            index = {d.extent: i for i, d in enumerate(self.concepts)}
            object.__setattr__(self, "_extent_index", index)
        try:
            return index[c.extent]
        except KeyError:
            raise ValueError(f"not a concept of this lattice: {sorted(c.extent)}") from None

    def leq(self, c: Concept, d: Concept) -> bool:
        return c.extent <= d.extent

    @property
    def bottom(self) -> Concept:
        return self.concepts[0]

    @property
    def top(self) -> Concept:
        return self.concepts[-1]

    def meet(self, c: Concept, d: Concept) -> Concept:
        return self.concepts[self.meet_table[self.index_of(c)][self.index_of(d)]]

    def join(self, c: Concept, d: Concept) -> Concept:
        return self.concepts[self.join_table[self.index_of(c)][self.index_of(d)]]

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
        """The covering pairs (i, j) of the Hasse diagram, i covered by j."""
        n = len(self.concepts)
        less = [[self.concepts[i].extent < self.concepts[j].extent
                 for j in range(n)] for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                    out.append((i, j))
        return out


def concept_lattice(polarity: Polarity, cap: int = LATTICE_CAP) -> ConceptLattice:
    """Enumerate every formal concept of the polarity.

    Extents are exactly the intersections of attribute columns (the empty
    intersection giving A), so one pass that intersects the running family
    with each column enumerates them all. Intents are closed under
    intersection too, so the join of two concepts is the concept whose
    intent is the intersection of theirs.
    """
    if len(polarity.objects) + len(polarity.attributes) > cap:
        raise CapExceeded(
            f"|A| + |X| = {len(polarity.objects) + len(polarity.attributes)} "
            f"exceeds the lattice cap {cap}")
    bits = polarity.bits
    objs, attrs = bits.objs, bits.attrs
    extents = {objs.full}
    for col in bits.i_cols:
        extents |= {e & col for e in extents}
    ordered = sorted(extents, key=lambda e: (e.bit_count(), tuple(sorted(objs.members(e)))))
    intents = [bits.up(e) for e in ordered]
    concepts = tuple(Concept(objs.members(e), attrs.members(t))
                     for e, t in zip(ordered, intents))
    by_extent = {e: i for i, e in enumerate(ordered)}.__getitem__
    by_intent = {t: i for i, t in enumerate(intents)}.__getitem__
    meets = tuple(tuple(map(by_extent, [e & f for f in ordered])) for e in ordered)
    joins = tuple(tuple(map(by_intent, [t & u for u in intents])) for t in intents)
    return ConceptLattice(polarity, concepts, meets, joins)


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


def _up_closed(lat: ConceptLattice, idxs: FrozenSet[int]) -> bool:
    return all(j in idxs
               for i in idxs for j in range(len(lat))
               if lat.concepts[i].extent <= lat.concepts[j].extent)


def _down_closed(lat: ConceptLattice, idxs: FrozenSet[int]) -> bool:
    return all(j in idxs
               for i in idxs for j in range(len(lat))
               if lat.concepts[j].extent <= lat.concepts[i].extent)


def all_filters(lat: ConceptLattice, cap: int = FILTER_CAP) -> List[Filter]:
    """Every filter of the lattice, including principal ones and the whole carrier."""
    idx_sets = _all_filter_index_sets(lat, cap)
    return [Filter(frozenset(lat.concepts[i] for i in s)) for s in idx_sets]


def all_ideals(lat: ConceptLattice, cap: int = FILTER_CAP) -> List[Ideal]:
    """Every ideal of the lattice, dually to :func:`all_filters`."""
    idx_sets = _all_ideal_index_sets(lat, cap)
    return [Ideal(frozenset(lat.concepts[i] for i in s)) for s in idx_sets]


def _check_filter_cap(lat: ConceptLattice, cap: int):
    if len(lat) > cap:
        raise CapExceeded(f"lattice has {len(lat)} concepts, "
                          f"filter enumeration cap is {cap}")


def _all_filter_index_sets(lat: ConceptLattice, cap: int) -> List[FrozenSet[int]]:
    _check_filter_cap(lat, cap)
    n = len(lat)
    out = []
    for bits in itertools.product((False, True), repeat=n):
        idxs = frozenset(i for i in range(n) if bits[i])
        if not idxs or not _up_closed(lat, idxs):
            continue
        if all(lat.meet_table[i][j] in idxs for i in idxs for j in idxs):
            out.append(idxs)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def _all_ideal_index_sets(lat: ConceptLattice, cap: int) -> List[FrozenSet[int]]:
    _check_filter_cap(lat, cap)
    n = len(lat)
    out = []
    for bits in itertools.product((False, True), repeat=n):
        idxs = frozenset(i for i in range(n) if bits[i])
        if not idxs or not _down_closed(lat, idxs):
            continue
        if all(lat.join_table[i][j] in idxs for i in idxs for j in idxs):
            out.append(idxs)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


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
    """
    lat = concept_lattice(model.polarity, lattice_cap)
    filters = tuple(all_filters(lat, filter_cap))
    ideals = tuple(all_ideals(lat, filter_cap))
    fnames = ["F" + str(i) for i in range(len(filters))]
    jnames = ["J" + str(i) for i in range(len(ideals))]

    incidence = set()
    r_box = set()
    r_dia = set()
    boxed = {c: box_op(model, c) for c in lat.concepts}
    diaed = {c: dia_op(model, c) for c in lat.concepts}
    for fi, f in enumerate(filters):
        for ji, j in enumerate(ideals):
            if f.members & j.members:
                incidence.add((fnames[fi], jnames[ji]))
            if any(boxed[c] in f.members for c in j.members):
                r_box.add((fnames[fi], jnames[ji]))
            if any(diaed[c] in j.members for c in f.members):
                r_dia.add((jnames[ji], fnames[fi]))

    pol = Polarity(tuple(fnames), tuple(jnames), frozenset(incidence))
    valuation = {}
    for p in sorted(model.valuation):
        c = model.valuation[p]
        lat.index_of(c)  # valuation entries must be concepts to extend
        valuation[p] = Concept(
            frozenset(fnames[i] for i, f in enumerate(filters) if c in f.members),
            frozenset(jnames[i] for i, j in enumerate(ideals) if c in j.members))
    extension_model = LEModel(pol, frozenset(r_box), frozenset(r_dia), valuation)

    object_image = {}
    for a in model.objects:
        gen = lat.object_generator(a)
        members = frozenset(d for d in lat.concepts if gen.extent <= d.extent)
        object_image[a] = fnames[filters.index(Filter(members))]
    attribute_image = {}
    for x in model.attributes:
        gen = lat.attribute_generator(x)
        members = frozenset(d for d in lat.concepts if d.extent <= gen.extent)
        attribute_image[x] = jnames[ideals.index(Ideal(members))]

    return FIExtension(extension_model, lat, filters, ideals,
                       object_image, attribute_image)
