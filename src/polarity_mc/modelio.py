"""JSON file formats for LE-models and Kripke models.

LE-model files carry keys "A", "X", "I", "R_box", "R_dia", "V". Each
valuation entry is {"extent": [...], "intent": [...]}; the intent may be
omitted, in which case the extent is closed and the intent computed from
it (with a warning when the given extent was not already Galois-closed).
Kripke files carry "W", "R", "V". Identifiers must be JSON strings and
carriers, relations, extents and intents arrays; anything else is a
:class:`ModelFormatError`, never coerced.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from .model import Concept, KripkeModel, LEModel, Polarity

Warner = Callable[[str], None]


class ModelFormatError(ValueError):
    """A model file is structurally malformed."""


def _ignore(_msg: str) -> None:
    pass


def _require(data, key, kind, where):
    if key not in data:
        raise ModelFormatError(f"{where}: missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where}: key {key!r} must be a {kind.__name__}")
    return value


def _ident(value, where, what) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(f"{where}: {what} holds {json.dumps(value, default=repr)}; "
                               f"identifiers must be strings")
    return value


def _names(raw, where, what):
    if not isinstance(raw, (list, tuple)):
        raise ModelFormatError(f"{where}: {what} must be an array of strings")
    return [_ident(item, where, what) for item in raw]


def _pairs(raw, where, what):
    if not isinstance(raw, (list, tuple)):
        raise ModelFormatError(f"{where}: {what} must be an array of [left, right] pairs")
    out = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ModelFormatError(f"{where}: expected [left, right] pairs")
        out.append((_ident(entry[0], where, what), _ident(entry[1], where, what)))
    return out


def model_from_dict(data: dict, warn: Optional[Warner] = None,
                    where: str = "<model>") -> LEModel:
    """The LE-model a model-file dictionary describes.

    Identifiers must be strings and every carrier, relation, extent and
    intent an array; anything else raises :class:`ModelFormatError`.
    """
    warn = warn or _ignore
    objs = _names(_require(data, "A", list, where), where, "A")
    attrs = _names(_require(data, "X", list, where), where, "X")
    pol = Polarity.make(objs, attrs, _pairs(_require(data, "I", list, where), where, "I"))
    r_box = _pairs(data.get("R_box", []), where, "R_box")
    r_dia = _pairs(data.get("R_dia", []), where, "R_dia")
    val = {}
    for p, entry in _require(data, "V", dict, where).items():
        if not isinstance(entry, dict) or "extent" not in entry:
            raise ModelFormatError(f"{where}: V[{p!r}] needs an \"extent\" array")
        extent = pol.check_objects(frozenset(
            _names(entry["extent"], where, f"V[{p!r}].extent")))
        if "intent" in entry:
            intent = pol.check_attributes(frozenset(
                _names(entry["intent"], where, f"V[{p!r}].intent")))
            val[p] = Concept(extent, intent)
        else:
            closed = pol.down(pol.up(extent))
            if closed != extent:
                warn(f"{where}: extent of {p!r} is not Galois-closed; "
                     f"closed {sorted(extent)} to {sorted(closed)}")
            val[p] = Concept(closed, pol.up(extent))
    return LEModel.make(pol, r_box, r_dia, val)


def model_to_dict(model: LEModel) -> dict:
    pol = model.polarity
    return {
        "A": list(pol.objects),
        "X": list(pol.attributes),
        "I": sorted([a, x] for a, x in pol.incidence),
        "R_box": sorted([a, x] for a, x in model.r_box),
        "R_dia": sorted([x, a] for x, a in model.r_dia),
        "V": {p: {"extent": sorted(c.extent), "intent": sorted(c.intent)}
              for p, c in sorted(model.valuation.items())},
    }


def load_model(path: str, warn: Optional[Warner] = None) -> LEModel:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return model_from_dict(data, warn, where=path)


def save_model(model: LEModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def kripke_from_dict(data: dict, where: str = "<kripke>") -> KripkeModel:
    worlds = _names(_require(data, "W", list, where), where, "W")
    rel = _pairs(data.get("R", []), where, "R")
    val = {}
    for p, ws in _require(data, "V", dict, where).items():
        if not isinstance(ws, list):
            raise ModelFormatError(f"{where}: V[{p!r}] must be an array of worlds")
        val[p] = frozenset(_names(ws, where, f"V[{p!r}]"))
    return KripkeModel.make(worlds, rel, val)


def kripke_to_dict(k: KripkeModel) -> dict:
    return {
        "W": list(k.worlds),
        "R": sorted([u, v] for u, v in k.rel),
        "V": {p: sorted(ws) for p, ws in sorted(k.valuation.items())},
    }


def load_kripke(path: str) -> KripkeModel:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return kripke_from_dict(data, where=path)
