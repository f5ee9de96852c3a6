"""Seeded inputs for the benchmark, generated by the benchmark itself.

Nothing here imports the package under test: models are produced as the
JSON dictionaries of the model-file format and formulas as surface-syntax
text, so the inputs (and their digest) stay the same when the package's own
random generators change. Every function takes a ``random.Random``.

Relations are kept I-compatible by closing rows and columns (the same
repair condition ``validate_model`` checks), on int bitmasks for speed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Sequence, Tuple

VARIABLES = ("p", "q")


def _bits(mask: int, width: int) -> List[int]:
    return [i for i in range(width) if mask >> i & 1]


class Context:
    """A formal context on bitmasks: ``rows[a]`` is the attribute mask of object a."""

    def __init__(self, n_a: int, n_x: int, rows: Sequence[int]):
        self.n_a, self.n_x = n_a, n_x
        self.rows = list(rows)
        self.cols = [sum(1 << a for a in range(n_a) if rows[a] >> x & 1)
                     for x in range(n_x)]
        self.full_a = (1 << n_a) - 1
        self.full_x = (1 << n_x) - 1

    def up(self, objs: int) -> int:
        out = self.full_x
        for a in _bits(objs, self.n_a):
            out &= self.rows[a]
        return out

    def down(self, attrs: int) -> int:
        out = self.full_a
        for x in _bits(attrs, self.n_x):
            out &= self.cols[x]
        return out

    def close_attrs(self, attrs: int) -> int:
        return self.up(self.down(attrs))

    def close_objs(self, objs: int) -> int:
        return self.down(self.up(objs))

    def concept_count(self, cap: int = 1 << 30) -> int:
        """Number of formal concepts (extents = intersections of columns)."""
        extents = {self.full_a}
        for col in self.cols:
            extents |= {e & col for e in extents}
            if len(extents) > cap:
                break
        return len(extents)


def _repair(ctx: Context, box_rows: List[int], dia_rows: List[int]) -> None:
    """Grow R_box (object rows over X) and R_dia (attribute rows over A) in place
    until every row and column is Galois-stable."""
    changed = True
    while changed:
        changed = False
        for a in range(ctx.n_a):
            closed = ctx.close_attrs(box_rows[a])
            if closed != box_rows[a]:
                box_rows[a] = closed
                changed = True
            dia_col = sum(1 << x for x in range(ctx.n_x) if dia_rows[x] >> a & 1)
            closed = ctx.close_attrs(dia_col)
            if closed != dia_col:
                for x in _bits(closed & ~dia_col, ctx.n_x):
                    dia_rows[x] |= 1 << a
                changed = True
        for x in range(ctx.n_x):
            box_col = sum(1 << a for a in range(ctx.n_a) if box_rows[a] >> x & 1)
            closed = ctx.close_objs(box_col)
            if closed != box_col:
                for a in _bits(closed & ~box_col, ctx.n_a):
                    box_rows[a] |= 1 << x
                changed = True
            closed = ctx.close_objs(dia_rows[x])
            if closed != dia_rows[x]:
                dia_rows[x] = closed
                changed = True


def _random_context(rng: random.Random, n_a: int, n_x: int,
                    i_density: float) -> Context:
    rows = [0] * n_a
    for cell in rng.sample(range(n_a * n_x), round(i_density * n_a * n_x)):
        rows[cell // n_x] |= 1 << cell % n_x
    return Context(n_a, n_x, rows)


def _le_on(rng: random.Random, ctx: Context, prefix: str) -> dict:
    """Relations and a valuation on ``ctx``, as an LE-model dict.

    Each R_box row starts as the closure of one random attribute and each
    R_dia row as the closure of one random object; the repair then only adds
    what compatibility forces. Starting from closed singletons keeps the
    relations away from the near-full shapes that closing dense random rows
    produces.
    """
    box_rows = [ctx.close_attrs(1 << rng.randrange(ctx.n_x)) for _ in range(ctx.n_a)]
    dia_rows = [ctx.close_objs(1 << rng.randrange(ctx.n_a)) for _ in range(ctx.n_x)]
    _repair(ctx, box_rows, dia_rows)
    valuation = {}
    for p in VARIABLES:
        seed = sum(1 << a for a in range(ctx.n_a) if rng.random() < 0.5)
        intent = ctx.up(seed)
        valuation[p] = (ctx.down(intent), intent)
    return _le_dict(ctx, box_rows, dia_rows, valuation, prefix)


def random_le(rng: random.Random, n_a: int, n_x: int, i_density: float,
              prefix: str = "") -> dict:
    """A random LE-model dict with I-compatible relations."""
    return _le_on(rng, _random_context(rng, n_a, n_x, i_density), prefix)


def _le_dict(ctx: Context, box_rows, dia_rows, valuation, prefix: str) -> dict:
    objs = [f"{prefix}a{i}" for i in range(ctx.n_a)]
    attrs = [f"{prefix}x{i}" for i in range(ctx.n_x)]
    return {
        "A": objs,
        "X": attrs,
        "I": [[objs[a], attrs[x]] for a in range(ctx.n_a)
              for x in _bits(ctx.rows[a], ctx.n_x)],
        "R_box": [[objs[a], attrs[x]] for a in range(ctx.n_a)
                  for x in _bits(box_rows[a], ctx.n_x)],
        "R_dia": [[attrs[x], objs[a]] for x in range(ctx.n_x)
                  for a in _bits(dia_rows[x], ctx.n_a)],
        "V": {p: {"extent": [objs[a] for a in _bits(ext, ctx.n_a)],
                  "intent": [attrs[x] for x in _bits(itt, ctx.n_x)]}
              for p, (ext, itt) in valuation.items()},
    }


def le_context(data: dict) -> Context:
    """The bitmask context of an LE-model dict (for input properties)."""
    oi = {a: i for i, a in enumerate(data["A"])}
    xi = {x: i for i, x in enumerate(data["X"])}
    rows = [0] * len(oi)
    for a, x in data["I"]:
        rows[oi[a]] |= 1 << xi[x]
    return Context(len(oi), len(xi), rows)


def le_properties(data: dict) -> dict:
    n_a, n_x = len(data["A"]), len(data["X"])
    cells = n_a * n_x or 1
    return {"A": n_a, "X": n_x,
            "I_density": round(len(data["I"]) / cells, 4),
            "R_box_density": round(len(data["R_box"]) / cells, 4),
            "R_dia_density": round(len(data["R_dia"]) / cells, 4),
            "concepts": le_context(data).concept_count()}


MAX_REL_DENSITY = 0.8  # near-full relations make every simulation trivial
WINDOW_TRIES = 500


def le_in_window(rng: random.Random, n: int, i_density: float,
                 concepts: Tuple[int, int], prefix: str = "") -> dict:
    """A random n+n LE-model whose concept count lies in ``concepts`` (inclusive)
    and whose relations are no denser than ``MAX_REL_DENSITY``.

    Cost of the lattice layers follows the concept count, not the carrier
    size, so the ladder is defined by this window.
    """
    lo, hi = concepts
    cells = n * n
    for _ in range(WINDOW_TRIES):
        # The concept count depends on I alone, so a draw outside the window
        # is dropped before its relations are built.
        ctx = _random_context(rng, n, n, i_density)
        if not lo <= ctx.concept_count(hi) <= hi:
            continue
        data = _le_on(rng, ctx, prefix)
        if max(len(data["R_box"]), len(data["R_dia"])) <= MAX_REL_DENSITY * cells:
            return data
    raise RuntimeError(f"no {n}+{n} model with {lo}..{hi} concepts "
                       f"in {WINDOW_TRIES} tries")


def perturb_le(rng: random.Random, data: dict, prefix: str) -> dict:
    """A renamed copy of an LE-model dict with one valuation entry re-drawn.

    The carriers and relations are kept (renamed), so the pair shares most
    of its structure and its points are related by more than the empty relation.
    """
    ctx = le_context(data)
    oi = {a: i for i, a in enumerate(data["A"])}
    xi = {x: i for i, x in enumerate(data["X"])}
    box_rows = [0] * ctx.n_a
    for a, x in data["R_box"]:
        box_rows[oi[a]] |= 1 << xi[x]
    dia_rows = [0] * ctx.n_x
    for x, a in data["R_dia"]:
        dia_rows[xi[x]] |= 1 << oi[a]
    valuation = {}
    for p, entry in data["V"].items():
        ext = sum(1 << oi[a] for a in entry["extent"])
        valuation[p] = (ext, ctx.up(ext))
    p = rng.choice(sorted(valuation))
    flip = 1 << rng.randrange(ctx.n_a)
    intent = ctx.up(valuation[p][0] ^ flip)
    valuation[p] = (ctx.down(intent), intent)
    return _le_dict(ctx, box_rows, dia_rows, valuation, prefix)


def random_kripke(rng: random.Random, n: int, density: float,
                  prefix: str = "w") -> dict:
    """A Kripke model dict with exactly round(density * n * n) edges and each
    variable true at exactly half of the worlds (exact counts keep the cost
    of one draw close to the next)."""
    worlds = [f"{prefix}{i}" for i in range(n)]
    cells = sorted(rng.sample(range(n * n), round(density * n * n)))
    rel = [[worlds[c // n], worlds[c % n]] for c in cells]
    val = {p: sorted(rng.sample(worlds, n // 2), key=worlds.index) for p in VARIABLES}
    return {"W": worlds, "R": rel, "V": val}


def perturb_kripke(rng: random.Random, data: dict, flips: int,
                   prefix: str) -> dict:
    """A copy with ``flips`` accessibility edges toggled and worlds renamed
    (and shuffled in declaration order)."""
    worlds = data["W"]
    rel = {tuple(e) for e in data["R"]}
    for _ in range(flips):
        edge = (rng.choice(worlds), rng.choice(worlds))
        rel ^= {edge}
    order = list(range(len(worlds)))
    rng.shuffle(order)
    rename = {w: f"{prefix}{order[i]}" for i, w in enumerate(worlds)}
    return {"W": sorted(rename.values(), key=lambda w: int(w[len(prefix):])),
            "R": sorted([rename[u], rename[v]] for u, v in rel),
            "V": {p: sorted(rename[w] for w in ws) for p, ws in data["V"].items()}}


def kripke_properties(data: dict) -> dict:
    n = len(data["W"])
    return {"W": n, "R_density": round(len(data["R"]) / (n * n or 1), 4)}


# --- formulas ----------------------------------------------------------------

def _formula_levels() -> List[List[str]]:
    """Texts of the canonical formulas of depth 0, 1 and 2 over p, q, level by level.

    Binary connectives take two distinct arguments, one of them from the
    level just below, in a fixed order; fully parenthesised.
    """
    atoms = list(VARIABLES) + ["top", "bot"]
    levels = [atoms]
    for _ in range(2):
        below = [f for level in levels for f in level]
        exact = set(levels[-1])
        new = [f"box ({f})" for f in levels[-1]] + [f"dia ({f})" for f in levels[-1]]
        for op in ("&", "|"):
            for i, f in enumerate(below):
                for g in below[i + 1:]:
                    if f in exact or g in exact:
                        new.append(f"({f}) {op} ({g})")
        levels.append(new)
    return levels


_LEVELS = _formula_levels()
DEPTH_LE2 = [f for level in _LEVELS for f in level]


def depth3_formula(rng: random.Random) -> str:
    """One formula of connective depth exactly 3, drawn from the canonical
    enumeration's construction (a modality over depth 2, or a binary
    connective with at least one depth-2 argument)."""
    exact = _LEVELS[2]
    # Modal formulas over depth 2 are about one in |depth <= 2| of depth 3.
    if rng.random() < 1 / (1 + len(DEPTH_LE2)):
        op = rng.choice(("box", "dia"))
        return f"{op} ({rng.choice(exact)})"
    f = rng.choice(exact)
    g = rng.choice(DEPTH_LE2)
    while g == f:
        g = rng.choice(DEPTH_LE2)
    op = rng.choice(("&", "|"))
    return f"({f}) {op} ({g})"


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of the inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
