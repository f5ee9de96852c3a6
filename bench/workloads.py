"""The four workloads: seeded inputs, the item sequence, and the checks.

Every item is a function of the ``api`` namespace (see spans.py) returning
the number of verdicts that disagree with an independent route; an item
that raises counts as failed. Items run in a fixed cyclic order, so the mix
of item kinds is the same in every run.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from functools import partial
from typing import Callable, Dict, List

import inputs as gen
from polarity_mc import model as pm_model
from polarity_mc import modelio, simrel
from polarity_mc.semantics import SortedValuation

Item = Callable[[object], int]


class SetupError(RuntimeError):
    """The generated inputs do not have the shape the workload needs."""


def _cycle(pattern: List[str], pools: Dict[str, list]) -> List[tuple]:
    """Repeat ``pattern`` until every pool entry has been used once.

    Returns (kind, entry) pairs; each kind walks its own pool in order.
    """
    per_round = {k: pattern.count(k) for k in pools}
    rounds = max(-(-len(pools[k]) // per_round[k]) for k in pools)
    used = {k: 0 for k in pools}
    out = []
    for _ in range(rounds):
        for kind in pattern:
            pool = pools[kind]
            out.append((kind, pool[used[kind] % len(pool)]))
            used[kind] += 1
    return out


def _failed_checks(*checks: bool) -> int:
    return sum(not ok for ok in checks)


# --- equiv_ladder --------------------------------------------------------------

class EquivLadder:
    """Model pairs through hm_check, the oracle, bisimilar_points and the
    greatest bisimulation, on a ladder set by concept count."""

    name = "equiv_ladder"
    # rung: (pool size, carrier n, I density, concept window); "lifted" pairs
    # are Kripke models of n worlds (2^n concepts once lifted).
    SIZES = {
        "full": {"small": (24, 4, 0.5, None), "medium": (48, 8, 0.5, (28, 32)),
                 "large": (40, 14, 0.45, (96, 104)), "lifted": (16, 4, 0.3, None)},
        "tiny": {"small": (3, 4, 0.5, None), "medium": (2, 6, 0.5, (10, 20)),
                 "large": (1, 8, 0.5, (24, 40)), "lifted": (2, 3, 0.3, None)},
    }
    # Per 12 items: 2 small and 1 lifted below the medium rung, 6 medium,
    # 3 large above it. The median item is then the middle of the medium
    # rung, and the tail falls among the large ones.
    PATTERN = ["small", "medium", "large", "medium", "lifted", "medium",
               "large", "medium", "small", "medium", "large", "medium"]
    TRACE_BATCH = 12

    def make_inputs(self, rng: random.Random, size: str) -> dict:
        pools = {}
        for rung, (count, n, density, window) in self.SIZES[size].items():
            pairs = []
            for _ in range(count):
                if rung == "lifted":
                    left = gen.random_kripke(rng, n, density, "w")
                    pairs.append({"kind": "kripke", "left": left,
                                  "right": gen.perturb_kripke(rng, left, 1, "v")})
                    continue
                if window is None:
                    left = gen.random_le(rng, rng.randint(2, n), rng.randint(2, n),
                                         density, prefix="l")
                else:
                    left = gen.le_in_window(rng, n, density, window, prefix="l")
                pairs.append({"kind": "le", "left": left,
                              "right": gen.perturb_le(rng, left, "r")})
            pools[rung] = pairs
        return {"pools": pools}

    def properties(self, inputs: dict) -> dict:
        out = {}
        for rung, pairs in inputs["pools"].items():
            if pairs[0]["kind"] == "kripke":
                props = [dict(gen.kripke_properties(p["left"]),
                              concepts=2 ** len(p["left"]["W"])) for p in pairs]
            else:
                props = [gen.le_properties(p["left"]) for p in pairs]
            out[rung] = _summary(props)
        return out

    def prepare(self, inputs: dict, workdir: str, caps) -> List[Item]:
        items = []
        for kind, pair in _cycle(self.PATTERN, inputs["pools"]):
            fi = (pair["kind"] == "le"
                  and gen.le_context(pair["left"]).concept_count(caps.filters) <= caps.filters)
            items.append(partial(self.item, pair, fi, caps))
        return items

    @staticmethod
    def item(pair: dict, fi: bool, caps, api) -> int:
        if pair["kind"] == "kripke":
            m1 = api.lift_kripke(api.kripke_from_dict(pair["left"]))
            m2 = api.lift_kripke(api.kripke_from_dict(pair["right"]))
        else:
            m1 = api.model_from_dict(pair["left"])
            m2 = api.model_from_dict(pair["right"])
        valid = not api.validate_model(m1) and not api.validate_model(m2)
        hm = api.hm_check(m1, m2, caps.lattice)
        report = api.modal_equiv_oracle(m1, m2, caps.lattice)
        objects, attributes = api.bisimilar_points(m1, m2)
        bisim = api.greatest_bisimulation(m1, m2)
        checks = [valid, hm.ok, objects == report.equiv_a,
                  attributes == report.equiv_x,
                  bisim.s <= objects, bisim.t <= attributes]
        if fi:
            ext = api.filter_ideal_extension(m1, caps.lattice, caps.filters)
            checks.append(not api.validate_model(ext.model))
        return _failed_checks(*checks)


# --- modal_sweep ---------------------------------------------------------------

class ModalSweep:
    """Depth-3 formulas through both satisfaction routes, sequents, and the CLI."""

    name = "modal_sweep"
    SIZES = {"full": {"models": (12, 14, 16), "formulas": 3000, "sequents": 400,
                      "cli": 200},
             "tiny": {"models": (5, 6), "formulas": 40, "sequents": 10, "cli": 6}}
    PATTERN = ["formula"] * 8 + ["sequent"] + ["formula"] * 8 + ["sequent", "formula",
                                                                  "cli"]
    TRACE_BATCH = 200

    def make_inputs(self, rng: random.Random, size: str) -> dict:
        p = self.SIZES[size]
        models = [gen.le_in_window(rng, n, 0.5, (1, 1 << 30), prefix=f"m{i}")
                  for i, n in enumerate(p["models"])]
        formulas = [gen.depth3_formula(rng) for _ in range(p["formulas"])]
        sequents = []
        for _ in range(p["sequents"]):
            lhs = gen.depth3_formula(rng)
            rhs = rng.choice(gen.DEPTH_LE2)
            if rng.random() < 0.5:  # valid by the | rule, so both verdicts occur
                rhs = f"({lhs}) | ({rhs})"
            sequents.append(f"{lhs} |- {rhs}")
        cli = []
        for i in range(p["cli"]):
            m = rng.randrange(len(models))
            if i % 2:
                cli.append({"cmd": "check", "model": m, "sequent": rng.choice(sequents)})
            else:
                side = rng.choice(("a", "x"))
                point = rng.choice(models[m]["A" if side == "a" else "X"])
                cli.append({"cmd": "sat", "model": m, "side": side, "point": point,
                            "formula": rng.choice(formulas)})
        return {"models": models, "formulas": formulas, "sequents": sequents,
                "cli": cli}

    def properties(self, inputs: dict) -> dict:
        return {"models": [gen.le_properties(m) for m in inputs["models"]],
                "formulas": len(inputs["formulas"]),
                "sequents": len(inputs["sequents"]), "cli_calls": len(inputs["cli"])}

    def prepare(self, inputs: dict, workdir: str, caps) -> List[Item]:
        paths = []
        for i, data in enumerate(inputs["models"]):
            path = os.path.join(workdir, f"sweep_model_{i}.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            paths.append(path)
        models = [modelio.model_from_dict(d) for d in inputs["models"]]
        items = []
        pools = {"formula": inputs["formulas"], "sequent": inputs["sequents"],
                 "cli": inputs["cli"]}
        for kind, entry in _cycle(self.PATTERN, pools):
            if kind == "formula":
                items.append(partial(self.formula_item, models, entry))
            elif kind == "sequent":
                items.append(partial(self.sequent_item, models, entry))
            else:
                items.append(partial(self.cli_item, models[entry["model"]],
                                     paths[entry["model"]], entry))
        return items

    @staticmethod
    def formula_item(models, text: str, api) -> int:
        phi = api.parse_formula(text)
        bad = 0
        for m in models:
            support, described = api.sat_sets(m, phi, {})
            concept = api.extension(m, phi, {})
            bad += _failed_checks(support == concept.extent, described == concept.intent)
        return bad

    @staticmethod
    def sequent_item(models, text: str, api) -> int:
        seq = api.parse_sequent(text)
        bad = 0
        for m in models:
            memo: dict = {}
            expected = api.sat_sets(m, seq.lhs, memo)[0] <= api.sat_sets(m, seq.rhs, memo)[0]
            bad += _failed_checks(api.models_sequent(m, seq) == expected)
        return bad

    @staticmethod
    def cli_item(model, path: str, query: dict, api) -> int:
        out = io.StringIO()
        if query["cmd"] == "check":
            holds = api.models_sequent(model, api.parse_sequent(query["sequent"]))
            argv = ["check", "--model", path, "--sequent", query["sequent"]]
        else:
            support, described = api.sat_sets(model, api.parse_formula(query["formula"]), {})
            holds = query["point"] in (support if query["side"] == "a" else described)
            argv = ["sat", "--model", path, "--point", query["point"],
                    "--formula", query["formula"], "--side", query["side"]]
        with redirect_stdout(out):
            code = api.main(argv)
        return _failed_checks(code == (0 if holds else 1),
                              out.getvalue() == ("true\n" if holds else "false\n"))


# --- fo_translate --------------------------------------------------------------

class FOTranslate:
    """Standard translations evaluated by the FO routes, against sat_sets.

    One item is a block of formulas drawn at random (with replacement), so
    item costs are independent draws and the tail is not set by how often a
    few heavy formulas recur in a run."""

    name = "fo_translate"
    BLOCK = 8
    # models: the small ones get the depth-3 and pointwise legs, all of them
    # the depth-2 leg; blocks: how many of each kind are generated.
    SIZES = {"full": {"small": (4, 4, 4), "mid": (6, 8), "blocks": 500},
             "tiny": {"small": (3, 3), "mid": (4,), "blocks": 4}}
    PATTERN = ["depth2", "depth3", "pointwise"]
    TRACE_BATCH = 15

    def make_inputs(self, rng: random.Random, size: str) -> dict:
        p = self.SIZES[size]
        small = [gen.random_le(rng, n, n, 0.5, prefix=f"s{i}") for i, n in enumerate(p["small"])]
        mid = [gen.random_le(rng, n, n, 0.5, prefix=f"m{i}") for i, n in enumerate(p["mid"])]

        def blocks(draw):
            return [[draw() for _ in range(self.BLOCK)] for _ in range(p["blocks"])]

        return {"small": small, "mid": mid,
                "depth2": blocks(lambda: rng.choice(gen.DEPTH_LE2)),
                "depth3": blocks(lambda: gen.depth3_formula(rng)),
                "pointwise": blocks(lambda: rng.choice(gen.DEPTH_LE2))}

    def properties(self, inputs: dict) -> dict:
        return {"small_models": [gen.le_properties(m) for m in inputs["small"]],
                "mid_models": [gen.le_properties(m) for m in inputs["mid"]],
                "formulas_per_block": self.BLOCK,
                "blocks": {k: len(inputs[k]) for k in ("depth2", "depth3", "pointwise")}}

    def prepare(self, inputs: dict, workdir: str, caps) -> List[Item]:
        small = [modelio.model_from_dict(d) for d in inputs["small"]]
        everything = small + [modelio.model_from_dict(d) for d in inputs["mid"]]
        pools = {
            "depth2": [(everything, b) for b in inputs["depth2"]],
            "depth3": [(small, b) for b in inputs["depth3"]],
            "pointwise": [([small[i % len(small)]], b)
                          for i, b in enumerate(inputs["pointwise"])],
        }
        return [partial(self.item, models, block, kind == "pointwise")
                for kind, (models, block) in _cycle(self.PATTERN, pools)]

    @staticmethod
    def item(models, block, pointwise: bool, api) -> int:
        bad = 0
        for text in block:
            phi = api.parse_formula(text)
            g, m = api.st_g(phi), api.st_m(phi)
            for model in models:
                support, described = api.sat_sets(model, phi, {})
                if not pointwise:
                    bad += _failed_checks(api.fol_sat_points(model, g, "g") == support,
                                          api.fol_sat_points(model, m, "m") == described)
                    continue
                for a in model.objects:
                    bad += _failed_checks(api.fol_eval(
                        model, g, SortedValuation({"g": a}, {})) == (a in support))
                for x in model.attributes:
                    bad += _failed_checks(api.fol_eval(
                        model, m, SortedValuation({}, {"m": x})) == (x in described))
        return bad


# --- sim_large -----------------------------------------------------------------

def _kept_ratio(z, m1, m2) -> float:
    return (len(z.s) + len(z.t)) / (len(m1.objects) * len(m2.objects)
                                    + len(m1.attributes) * len(m2.attributes))


class SimLarge:
    """Lifted Kripke models against perturbed, renamed copies: simulation and
    bisimulation refinement (compute leg) and clause checking (verify leg)."""

    name = "sim_large"
    # pairs, worlds, edge density, edges flipped in the copy
    SIZES = {"full": (36, 64, 0.03, 2), "tiny": (2, 24, 0.06, 1)}
    PATTERN = ["pair"]
    TRACE_BATCH = 2

    def make_inputs(self, rng: random.Random, size: str) -> dict:
        count, n, density, flips = self.SIZES[size]
        pairs = []
        for _ in range(count):
            left = gen.random_kripke(rng, n, density, "w")
            pairs.append({"left": left, "right": gen.perturb_kripke(rng, left, flips, "v")})
        return {"pairs": pairs}

    def properties(self, inputs: dict) -> dict:
        return {"pairs": _summary([gen.kripke_properties(p["left"])
                                   for p in inputs["pairs"]])}

    def prepare(self, inputs: dict, workdir: str, caps) -> List[Item]:
        return [partial(self.item, pair) for pair in inputs["pairs"]]

    def guard(self, inputs: dict) -> Dict[str, float]:
        """Fail unless every pair's greatest simulation keeps some but not all
        candidate pairs (the degenerate shapes measure no refinement)."""
        kept = []
        for pair in inputs["pairs"]:
            m1, m2 = (pm_model.lift_kripke(modelio.kripke_from_dict(pair[k]))
                      for k in ("left", "right"))
            ratio = _kept_ratio(simrel.greatest_simulation(m1, m2), m1, m2)
            if not 0 < ratio < 1:
                raise SetupError(f"sim_large: simulation kept_ratio {ratio} "
                                 f"is not strictly between 0 and 1")
            kept.append(ratio)
        return {"kept_ratio_min": min(kept), "kept_ratio_max": max(kept)}

    @staticmethod
    def item(pair: dict, api) -> int:
        m1 = api.lift_kripke(api.kripke_from_dict(pair["left"]))
        m2 = api.lift_kripke(api.kripke_from_dict(pair["right"]))
        valid = not api.validate_model(m1) and not api.validate_model(m2)
        g12 = api.greatest_simulation(m1, m2)
        g21 = api.greatest_simulation(m2, m1)
        bisim = api.greatest_bisimulation(m1, m2)
        return _failed_checks(valid,
                              not api.is_simulation(m1, m2, g12),
                              not api.is_simulation(m2, m1, g21),
                              not api.is_bisimulation(m1, m2, bisim),
                              bisim.s <= g12.s,
                              0 < _kept_ratio(g12, m1, m2) < 1)


def _summary(props: List[dict]) -> dict:
    """Count, min and max of each numeric input property."""
    out = {"count": len(props)}
    for key in props[0]:
        values = [p[key] for p in props]
        out[key] = [min(values), max(values)]
    return out


WORKLOADS = {w.name: w for w in (EquivLadder(), ModalSweep(), FOTranslate(), SimLarge())}
