"""Command-line front end.

Exit codes: 0 for "true"/success, 1 for "false" or reported discrepancies,
2 for parse/validation errors (with a diagnostic on stderr). Size caps can
be overridden with POLARITY_MC_CAPS=lattice=NN,filters=NN,power=NN.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import fol
from . import formula as fm
from .config import Caps
from .formula import ParseError, parse_formula, parse_sequent, print_formula
from .lattice import CapExceeded, concept_lattice, filter_ideal_extension
from .model import SortError, lift_kripke, validate_model
from .modelio import (ModelFormatError, load_kripke, load_model, model_to_dict,
                      save_model)
from .semantics import (SortedValuation, UnknownVariable, extension,
                        models_sequent, satisfies_a, satisfies_x)
from .simrel import (SimPair, bisimilar_points, greatest_bisimulation,
                     greatest_simulation, hm_check, ultrapower_principal)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _load(path: str):
    model = load_model(path, warn=_warn)
    problems = validate_model(model)
    if problems:
        lines = "\n".join(f"  {v}" for v in problems)
        raise ModelFormatError(f"{path}: not a valid LE-model:\n{lines}")
    return model


def _bool_answer(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _concept_json(c) -> dict:
    return {"extent": sorted(c.extent), "intent": sorted(c.intent)}


def _relation_lines(rel, arrow="->"):
    return [f"{u} {arrow} {v}" for u, v in sorted(rel)]


def cmd_parse(args: argparse.Namespace) -> int:
    phi = parse_formula(args.formula)
    if args.as_json:
        def ast(f):
            if isinstance(f, fm.Var):
                return {"var": f.name}
            if isinstance(f, fm.Top):
                return {"const": "top"}
            if isinstance(f, fm.Bot):
                return {"const": "bot"}
            if isinstance(f, fm.And):
                return {"and": [ast(f.left), ast(f.right)]}
            if isinstance(f, fm.Or):
                return {"or": [ast(f.left), ast(f.right)]}
            if isinstance(f, fm.Box):
                return {"box": ast(f.inner)}
            return {"dia": ast(f.inner)}
        print(json.dumps(ast(phi), sort_keys=True))
    else:
        print(print_formula(phi))
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    model = _load(args.model)
    phi = parse_formula(args.formula)
    if args.side == "a":
        return _bool_answer(satisfies_a(model, args.point, phi))
    return _bool_answer(satisfies_x(model, args.point, phi))


def cmd_check(args: argparse.Namespace) -> int:
    model = _load(args.model)
    seq = parse_sequent(args.sequent)
    return _bool_answer(models_sequent(model, seq))


def cmd_translate(args: argparse.Namespace) -> int:
    phi = parse_formula(args.formula)
    translated = fol.st_g(phi) if args.sort == "g" else fol.st_m(phi)
    print(fol.print_fo(translated))
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    model = _load(args.model)
    lat = concept_lattice(model.polarity, args.caps.lattice)
    if args.as_json:
        print(json.dumps([_concept_json(c) for c in lat.concepts], sort_keys=True))
    else:
        print(f"{len(lat)} concepts")
        for i, c in enumerate(lat.concepts):
            ext = ",".join(sorted(c.extent))
            itt = ",".join(sorted(c.intent))
            print(f"C{i} = ({{{ext}}}, {{{itt}}})")
        for i, j in lat.covers():
            print(f"C{i} < C{j}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(hasse_dot(lat))
        print(f"wrote {args.dot}")
    return 0


def hasse_dot(lat) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, c in enumerate(lat.concepts):
        ext = ",".join(sorted(c.extent))
        itt = ",".join(sorted(c.intent))
        lines.append(f'  C{i} [label="({{{ext}}},{{{itt}}})"];')
    for i, j in lat.covers():
        lines.append(f"  C{i} -> C{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_simpair(z: SimPair, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"S": sorted([a, b] for a, b in z.s),
                          "T": sorted([x, y] for x, y in z.t)}, sort_keys=True))
        return
    print("S:")
    for line in _relation_lines(z.s):
        print("  " + line)
    print("T:")
    for line in _relation_lines(z.t):
        print("  " + line)


def cmd_sim(args: argparse.Namespace) -> int:
    _print_simpair(greatest_simulation(_load(args.left), _load(args.right)), args.as_json)
    return 0


def cmd_bisim(args: argparse.Namespace) -> int:
    _print_simpair(greatest_bisimulation(_load(args.left), _load(args.right)), args.as_json)
    return 0


def cmd_bisimilar(args: argparse.Namespace) -> int:
    objects, attributes = bisimilar_points(_load(args.left), _load(args.right))
    if args.as_json:
        print(json.dumps({"objects": sorted([a, b] for a, b in objects),
                          "attributes": sorted([x, y] for x, y in attributes)},
                         sort_keys=True))
        return 0
    print("objects:")
    for line in _relation_lines(objects, "<->"):
        print("  " + line)
    print("attributes:")
    for line in _relation_lines(attributes, "<->"):
        print("  " + line)
    return 0


def cmd_hm_verify(args: argparse.Namespace) -> int:
    report = hm_check(_load(args.left), _load(args.right), args.caps.lattice)
    if report.ok:
        print("ok: modal equivalence matches the greatest simulations")
        return 0
    print("discrepancies:")
    for relation, kind, pair in report.mismatches:
        print(f"  {relation}: {kind} {pair[0]} -> {pair[1]}")
    return 1


def cmd_fi_extend(args: argparse.Namespace) -> int:
    model = _load(args.model)
    ext = filter_ideal_extension(model, args.caps.lattice, args.caps.filters)
    save_model(ext.model, args.out)
    legend = {
        "concepts": [_concept_json(c) for c in ext.lattice.concepts],
        "filters": {ext.filter_name(f): sorted(ext.lattice.index_of(c)
                                               for c in f.members)
                    for f in ext.filters},
        "ideals": {ext.ideal_name(j): sorted(ext.lattice.index_of(c)
                                             for c in j.members)
                   for j in ext.ideals},
        "object_image": dict(sorted(ext.object_image.items())),
        "attribute_image": dict(sorted(ext.attribute_image.items())),
    }
    legend_path = args.out + ".legend.json"
    with open(legend_path, "w") as fh:
        json.dump(legend, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(ext.filters)} filters, {len(ext.ideals)} ideals) "
          f"and {legend_path}")
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    lifted = lift_kripke(load_kripke(args.kripke))
    if args.out:
        save_model(lifted, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(model_to_dict(lifted), indent=2, sort_keys=True))
    return 0


def cmd_ultrapower(args: argparse.Namespace) -> int:
    model = _load(args.model)
    power = ultrapower_principal(model, args.k, args.k0, args.caps.power)
    doc = {"k": power.k, "k0": power.k0,
           "model": model_to_dict(power.model),
           "iso": dict(sorted(power.iso.items()))}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model, warn=_warn)
    problems = validate_model(model)
    if not problems:
        print("ok: valid LE-model")
        return 0
    for v in problems:
        print(str(v))
    return 1


_COMMANDS = {
    "parse": cmd_parse,
    "sat": cmd_sat,
    "check": cmd_check,
    "translate": cmd_translate,
    "lattice": cmd_lattice,
    "sim": cmd_sim,
    "bisim": cmd_bisim,
    "bisimilar": cmd_bisimilar,
    "hm-verify": cmd_hm_verify,
    "fi-extend": cmd_fi_extend,
    "lift": cmd_lift,
    "ultrapower": cmd_ultrapower,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarity-mc",
        description="Polarity-based semantics for non-distributive modal logic")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("sat", help="evaluate a formula at a point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--side", required=True, choices=("a", "x"),
                   help="a: object satisfaction, x: attribute satisfaction")

    p = sub.add_parser("check", help="check a sequent on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--sequent", required=True)

    p = sub.add_parser("translate", help="standard translation to two-sorted FO")
    p.add_argument("--formula", required=True)
    p.add_argument("--sort", required=True, choices=("g", "m"))

    p = sub.add_parser("lattice", help="enumerate the concept lattice")
    p.add_argument("--model", required=True)
    p.add_argument("--dot", help="write a Hasse-diagram DOT file")
    p.add_argument("--json", action="store_true", dest="as_json")

    for name, help_text in (("sim", "greatest simulation left -> right"),
                            ("bisim", "greatest bisimulation"),
                            ("bisimilar", "bisimilar points (simulations both ways)"),
                            ("hm-verify", "verify the Hennessy-Milner correspondence")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        if name != "hm-verify":
            p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("fi-extend", help="write the filter-ideal extension")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lift", help="lift a Kripke model to an LE-model")
    p.add_argument("--kripke", required=True)
    p.add_argument("--out")

    p = sub.add_parser("ultrapower", help="principal-ultrafilter power quotient")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--k0", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="report I-compatibility and valuation violations")
    p.add_argument("--model", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.caps = Caps.from_env()
        return _COMMANDS[args.subcommand](args)
    except (ParseError, ModelFormatError, SortError, CapExceeded,
            UnknownVariable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
