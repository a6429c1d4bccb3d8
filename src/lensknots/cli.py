"""Command-line front end.

Every numeric output is an exact fraction rendered as a "num/den" string
(or a bare integer, or "inf"); nothing is ever printed as a float, so JSON
output round-trips to the identical values.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import mcg as mcg_mod
from . import surgery
from .bypass import TorusState, attach_bypass
from .checks import check_sweep
from .farey import geodesic
from .slopes import Slope, _int
from .tight import class_from_signs, count_tight_lens, enumerate_tight
from .unknots import legendrian_classification, mountain_range

_MCG_TABLES = {
    "smooth": mcg_mod.smooth_mcg,
    "contact": mcg_mod.contact_mcg,
    "rel-torus": mcg_mod.contact_mcg_rel_torus,
    "kernel": mcg_mod.inclusion_kernel,
}


def _group_str(g) -> str:
    if g.tag == "trivial":
        return "1"
    return f"{g.tag} [{' '.join(g.generators)}]"


def _structures(p, q, signs):
    if signs is None:
        return enumerate_tight(p, q)
    return [class_from_signs(p, q, signs)]


def cmd_farey(args) -> int:
    path = geodesic(Slope.parse(args.frm), Slope.parse(args.to))
    print(json.dumps([str(v) for v in path]))
    return 0


def cmd_bypass(args) -> int:
    side = "back" if args.back else "front"
    state = attach_bypass(TorusState(Slope.parse(args.slope)), Slope.parse(args.ruling), side)
    print(state.dividing_slope)
    return 0


def cmd_tight(args) -> int:
    if args.list:
        classes = enumerate_tight(args.p, args.q)
        payload = {
            "path": [str(v) for v in classes[0].path],
            "structures": [ts.sign_string for ts in classes],
        }
        print(json.dumps(payload))
    else:
        print(count_tight_lens(args.p, args.q))
    return 0


def cmd_surgery(args) -> int:
    chain = surgery.build_chain(args.p, args.q, args.knot)
    out = {
        "framings": list(chain.framings),
        "meridian_of": chain.meridian_of,
        "matrix": [list(row) for row in surgery.linking_matrix(chain)],
        "det": surgery.linking_det(chain),
    }
    if args.rots is not None:
        try:
            rot = tuple(_int(v) for v in args.rots.split(",")) if args.rots else ()
        except ValueError:
            raise ValueError(f"--rots takes comma-separated integers, got {args.rots!r}") from None
        out["rot_q"] = str(surgery.rot_q_surgery(chain, [rot])[0])
    else:
        out["spectrum"] = [str(v) for v in surgery.rot_spectrum(args.p, args.q, args.knot)]
    if args.format == "json":
        print(json.dumps(out))
    else:
        for row in out["matrix"]:
            print("\t".join(str(v) for v in row))
        print(f"det\t{out['det']}")
        if "rot_q" in out:
            print(f"rot_q\t{out['rot_q']}")
        else:
            print("spectrum\t" + "\t".join(out["spectrum"]))
    return 0


def cmd_unknots(args) -> int:
    columns = ("structure", "knot", "tb_q", "rot_q", "sl_q")
    rows = [
        (ts.sign_string, c.knot, str(c.tb_q), str(c.rot_q), str(c.sl_q))
        for ts in _structures(args.p, args.q, args.structure)
        for c in legendrian_classification(args.p, args.q, ts)
    ]
    if args.format == "json":
        print(json.dumps([dict(zip(columns, row)) for row in rows]))
    else:
        for row in (columns, *rows):
            print("\t".join(row))
    return 0


def _write_points(mr, rots, tbs, sep) -> None:
    """Write the points of the mountain range mr joined by sep, one write
    per row; rots and tbs render its rot and tb columns so that the point
    (rots[i], tbs[k]) reads rots[i] + tbs[k]."""
    lead = ""
    for tb, row in mr.rows(rots, tbs):
        sys.stdout.write(lead + (tb + sep).join(row) + tb)
        lead = sep


def cmd_mountain(args) -> int:
    classes = _structures(args.p, args.q, args.structure)
    if len(classes) != 1:
        raise ValueError("ambiguous tight structure; pass --structure SIGNS")
    mr = mountain_range(args.p, args.q, classes[0], args.knot, args.depth)
    rots, tbs = mr.columns()
    if args.format == "json":
        peak = [str(mr.peak[0]), str(mr.peak[1])]
        doc = {"knot": mr.knot, "peak": peak, "depth": mr.depth, "points": []}
        # json.dumps(doc) ends in "points": []}; the points go between the brackets.
        sys.stdout.write(json.dumps(doc)[:-2])
        cells = ["[" + json.dumps(str(r)) for r in rots]
        _write_points(mr, cells, [f", {json.dumps(str(t))}]" for t in tbs], ", ")
        sys.stdout.write("]}\n")
    elif args.format == "svg":
        unit = 30  # pixels per rot and per tb unit, keeping the grid square
        x0, x1 = min(rots) - 1, max(rots) + 1
        y0, y1 = min(tbs) - 1, max(tbs) + 1
        width, height = int((x1 - x0) * unit), int((y1 - y0) * unit)
        sys.stdout.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
        )
        cxs = [f'<circle cx="{float((r - x0) * unit):.1f}' for r in rots]
        cys = [f'" cy="{float((y1 - t) * unit):.1f}" r="4" fill="black"/>' for t in tbs]
        _write_points(mr, cxs, cys, "\n")
        sys.stdout.write("\n</svg>\n")
    else:
        sys.stdout.write("rot_q\ttb_q\n")
        _write_points(mr, [str(r) for r in rots], [f"\t{t}\n" for t in tbs], "")
    return 0


def cmd_mcg(args) -> int:
    if args.args == ["s1s2"]:
        if args.table not in (None, "contact"):
            raise ValueError(f"mcg s1s2 tabulates only the contact group, not --{args.table}")
        print(_group_str(mcg_mod.contact_mcg_s1s2()))
        return 0
    if len(args.args) != 2:
        raise ValueError(f"mcg takes P Q or s1s2, got {' '.join(args.args)}")
    p, q = _int(args.args[0]), _int(args.args[1])
    if args.table:
        print(_group_str(_MCG_TABLES[args.table](p, q)))
    else:
        for name in ("smooth", "contact"):
            print(f"{name}: {_group_str(_MCG_TABLES[name](p, q))}")
    return 0


def cmd_check(args) -> int:
    report = check_sweep(args.pmax)
    if args.format == "json":
        checks = [
            {
                "name": c.name,
                "passed": c.passed,
                "counterexample": c.counterexample,
                "cases": c.cases,
            }
            for c in report.checks
        ]
        print(json.dumps({"p_max": report.p_max, "checks": checks}))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else f"FAIL at {c.counterexample}"
            print(f"{c.name}: {status}")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes options only as spelled in full and
    quotes every token in its usage errors as typed; a type=int argument
    takes ASCII digits with an optional sign only.

    `typed` maps each token that _protect padded to the token as typed."""

    def __init__(self, *args, typed=None, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.typed = typed or {}
        # argparse converts a type=int value with the function registered
        # for int, and still names the type "int" in its usage errors.
        self.register("type", int, _int)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(self.typed.get(e, e) for e in extras)}")
        return args

    def error(self, message):
        # argparse quotes a bad value by its repr, padding included.
        for padded, token in self.typed.items():
            i = padded.index(" ")
            message = message.replace(repr(padded[i:]), repr(token[i:]))
        super().error(message)


def build_parser(typed=None) -> argparse.ArgumentParser:
    strict = functools.partial(_Parser, typed=typed)
    parser = strict(
        prog="lensknots", description="Exact contact-topological invariants of lens spaces"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p_farey = sub.add_parser("farey", help="Farey graph queries")
    p_farey.add_argument("action", choices=["path"])
    p_farey.add_argument("frm", metavar="FROM")
    p_farey.add_argument("to", metavar="TO")
    p_farey.set_defaults(func=cmd_farey)

    p_byp = sub.add_parser("bypass", help="bypass attachment slope")
    p_byp.add_argument("slope", metavar="S")
    p_byp.add_argument("ruling", metavar="R")
    side = p_byp.add_mutually_exclusive_group()
    side.add_argument("--front", action="store_true")
    side.add_argument("--back", action="store_true")
    p_byp.set_defaults(func=cmd_bypass)

    p_tight = sub.add_parser("tight-structures", help="tight contact structures on L(p,q)")
    p_tight.add_argument("p", type=int)
    p_tight.add_argument("q", type=int)
    p_tight.add_argument("--list", action="store_true")
    p_tight.set_defaults(func=cmd_tight)

    p_surg = sub.add_parser("surgery", help="chain surgery presentation")
    p_surg.add_argument("p", type=int)
    p_surg.add_argument("q", type=int)
    p_surg.add_argument("--knot", type=str.strip, choices=surgery.KNOTS, default="k1")
    p_surg.add_argument("--rots", type=str.strip, help="comma-separated rotation numbers")
    p_surg.add_argument("--format", choices=["json", "tsv"], default="tsv")
    p_surg.set_defaults(func=cmd_surgery)

    p_unk = sub.add_parser("unknots", help="Legendrian rational unknot invariants")
    p_unk.add_argument("p", type=int)
    p_unk.add_argument("q", type=int)
    p_unk.add_argument("--structure", type=str.strip, metavar="SIGNS")
    p_unk.add_argument("--format", choices=["json", "tsv"], default="tsv")
    p_unk.set_defaults(func=cmd_unknots)

    p_mr = sub.add_parser("mountain-range", help="Legendrian mountain range")
    p_mr.add_argument("p", type=int)
    p_mr.add_argument("q", type=int)
    p_mr.add_argument("--knot", type=str.strip, choices=surgery.ORIENTED_KNOTS, default="k1")
    p_mr.add_argument("--structure", type=str.strip, metavar="SIGNS")
    p_mr.add_argument("--depth", type=int, default=4)
    p_mr.add_argument("--format", choices=["tsv", "json", "svg"], default="tsv")
    p_mr.set_defaults(func=cmd_mountain)

    p_mcg = sub.add_parser("mcg", help="mapping class group tables")
    p_mcg.add_argument("args", nargs="+", type=str.strip, metavar="P Q | s1s2")
    table = p_mcg.add_mutually_exclusive_group()
    for name in _MCG_TABLES:
        table.add_argument(f"--{name}", dest="table", action="store_const", const=name)
    p_mcg.set_defaults(func=cmd_mcg)

    p_check = sub.add_parser("check", help="cross-validation sweep")
    p_check.add_argument("--pmax", type=int, default=20)
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    return parser


# Spelled like an option: -x, --name or --name=value (group 1 holds the value).
_OPTION = re.compile(r"-[A-Za-z]|--[A-Za-z][\w-]*(?:=(.*))?", re.S)


def _protect(token: str) -> str:
    """Pad with a space a value that argparse would take for an option.

    A token is an option only if it is spelled like one; every other token
    that starts with "-" is a value (-5, -inf, -k1, -+, --, -1,0,1).  A
    --name=value whose value starts with "-" is padded after the "=", as
    argparse drops a bare "--".  int, Slope.parse and str.strip drop the
    space, and _Parser's usage errors quote the token without it."""
    m = _OPTION.fullmatch(token)
    if m is None:
        return " " + token if token.startswith("-") else token
    if m[1] and m[1].startswith("-"):
        return f"{token[: m.start(1)]} {m[1]}"
    return token


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    tokens = [_protect(a) for a in argv]
    typed = {t: a for t, a in zip(tokens, argv) if t != a}
    args = build_parser(typed).parse_args(tokens)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
