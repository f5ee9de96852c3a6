"""Seeded random generation of LE-models and Kripke models.

Random relations are almost never I-compatible, so R_box and R_dia are
repaired by closing the rows and columns that ``validate_model`` reports
until every one is Galois-stable; closure only adds pairs, so the repair
terminates.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from .model import Concept, KripkeModel, LEModel, Polarity, validate_model


def repair_compatibility(pol: Polarity, r_box, r_dia) -> Tuple[frozenset, frozenset]:
    """Grow the relations to the least I-compatible ones containing them.

    I-compatible relations are closed under intersection, so that least
    superset is unique, and every closure a violation names is forced:
    add them all until ``validate_model`` reports none.
    """
    r_box, r_dia = set(r_box), set(r_dia)
    while True:
        violations = validate_model(LEModel(pol, frozenset(r_box), frozenset(r_dia), {}))
        if not violations:
            return frozenset(r_box), frozenset(r_dia)
        for v in violations:
            if v.kind == "r_box_row":
                r_box.update((v.subject, x) for x in v.expected)
            elif v.kind == "r_box_col":
                r_box.update((a, v.subject) for a in v.expected)
            elif v.kind == "r_dia_row":
                r_dia.update((v.subject, a) for a in v.expected)
            else:  # r_dia_col
                r_dia.update((x, v.subject) for x in v.expected)


def random_le_model(rng: random.Random, max_objects: int = 4, max_attrs: int = 4,
                    variables: Sequence[str] = ("p", "q"),
                    density: float = 0.4,
                    min_objects: int = 1, min_attrs: int = 1) -> LEModel:
    """A random LE-model with I-compatible relations and concept valuations."""
    n_a = rng.randint(min_objects, max_objects)
    n_x = rng.randint(min_attrs, max_attrs)
    objs = tuple(f"a{i}" for i in range(n_a))
    attrs = tuple(f"x{i}" for i in range(n_x))
    inc = frozenset((a, x) for a in objs for x in attrs if rng.random() < density)
    pol = Polarity(objs, attrs, inc)
    raw_box = {(a, x) for a in objs for x in attrs if rng.random() < density}
    raw_dia = {(x, a) for a in objs for x in attrs if rng.random() < density}
    r_box, r_dia = repair_compatibility(pol, raw_box, raw_dia)
    valuation = {}
    for p in variables:
        seed = frozenset(a for a in objs if rng.random() < 0.5)
        intent = pol.up(seed)
        valuation[p] = Concept(pol.down(intent), intent)
    return LEModel(pol, r_box, r_dia, valuation)


def random_kripke(rng: random.Random, max_worlds: int = 4,
                  variables: Sequence[str] = ("p", "q"),
                  density: float = 0.4) -> KripkeModel:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    rel = frozenset((u, v) for u in worlds for v in worlds if rng.random() < density)
    val = {p: frozenset(w for w in worlds if rng.random() < 0.5) for p in variables}
    return KripkeModel(worlds, rel, val)


def random_sim_pair(rng: random.Random, m1: LEModel, m2: LEModel,
                    density: float = 0.5):
    """A random candidate (S, T) pair between two models (rarely a simulation)."""
    s = frozenset((a1, a2) for a1 in m1.objects for a2 in m2.objects
                  if rng.random() < density)
    t = frozenset((x1, x2) for x1 in m1.attributes for x2 in m2.attributes
                  if rng.random() < density)
    return s, t
