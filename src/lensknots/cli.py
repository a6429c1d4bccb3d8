"""Command-line front end.

Every numeric output is an exact fraction rendered as a "num/den" string
(or a bare integer, or "inf"); nothing is ever printed as a float, so JSON
output round-trips to the identical values.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import mcg as mcg_mod
from . import surgery
from .bypass import TorusState, attach_bypass
from .checks import check_sweep
from .farey import geodesic
from .slopes import Slope
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
        rot = tuple(int(v) for v in args.rots.split(",")) if args.rots else ()
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
    rows = []
    for ts in _structures(args.p, args.q, args.structure):
        for c in legendrian_classification(args.p, args.q, ts):
            rows.append(
                {
                    "structure": ts.sign_string,
                    "knot": c.knot,
                    "tb_q": str(c.tb_q),
                    "rot_q": str(c.rot_q),
                    "sl_q": str(c.sl_q),
                }
            )
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print("structure\tknot\ttb_q\trot_q\tsl_q")
        for r in rows:
            print("\t".join(r[k] for k in ("structure", "knot", "tb_q", "rot_q", "sl_q")))
    return 0


def _distinct(column) -> dict:
    """{id(v): v} over one coordinate column of a mountain range's points.

    mountain_range builds each distinct rot and tb value once and its
    points share them, so N points hold O(sqrt N) objects.  The range
    outlives every use of the result, so no id is reused meanwhile."""
    return {id(v): v for v in column}


def _render(column, render) -> list[str]:
    """[render(v) for v in column], with render called once per distinct
    object of the column."""
    names = {key: render(v) for key, v in _distinct(column).items()}
    return [names[id(v)] for v in column]


def _mountain_svg(rots, tbs) -> str:
    unit = 30  # pixels per rot and per tb unit, keeping the grid square
    pad = 1
    xs, ys = _distinct(rots).values(), _distinct(tbs).values()
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = int((x1 - x0) * unit)
    height = int((y1 - y0) * unit)
    cxs = _render(rots, lambda rot: f"{float((rot - x0) * unit):.1f}")
    cys = _render(tbs, lambda tb: f"{float((y1 - tb) * unit):.1f}")
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            *map('<circle cx="{}" cy="{}" r="4" fill="black"/>'.format, cxs, cys),
            "</svg>",
        ]
    )


def cmd_mountain(args) -> int:
    classes = _structures(args.p, args.q, args.structure)
    if len(classes) != 1:
        raise ValueError("ambiguous tight structure; pass --structure SIGNS")
    mr = mountain_range(args.p, args.q, classes[0], args.knot, args.depth)
    rots = [r for r, _ in mr.points]
    tbs = [t for _, t in mr.points]
    if args.format == "json":
        payload = {
            "knot": mr.knot,
            "peak": [str(mr.peak[0]), str(mr.peak[1])],
            "depth": mr.depth,
            "points": list(map(list, zip(_render(rots, str), _render(tbs, str)))),
        }
        sys.stdout.write(json.dumps(payload) + "\n")
    elif args.format == "svg":
        sys.stdout.write(_mountain_svg(rots, tbs) + "\n")
    else:
        rows = map("{}\t{}\n".format, _render(rots, str), _render(tbs, str))
        sys.stdout.write("rot_q\ttb_q\n" + "".join(rows))
    return 0


def cmd_mcg(args) -> int:
    if args.args == ["s1s2"]:
        if args.table not in (None, "contact"):
            raise ValueError(f"mcg s1s2 tabulates only the contact group, not --{args.table}")
        print(_group_str(mcg_mod.contact_mcg_s1s2()))
        return 0
    if len(args.args) != 2:
        raise ValueError(f"mcg takes P Q or s1s2, got {' '.join(args.args)}")
    p, q = int(args.args[0]), int(args.args[1])
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
            {"name": c.name, "passed": c.passed, "counterexample": c.counterexample}
            for c in report.checks
        ]
        print(json.dumps({"p_max": report.p_max, "checks": checks}))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else f"FAIL at {c.counterexample}"
            print(f"{c.name}: {status}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensknots",
        description="Exact contact-topological invariants of lens spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p_mcg.add_argument("args", nargs="+", metavar="P Q | s1s2")
    table = p_mcg.add_mutually_exclusive_group()
    for name in _MCG_TABLES:
        table.add_argument(f"--{name}", dest="table", action="store_const", const=name)
    p_mcg.set_defaults(func=cmd_mcg)

    p_check = sub.add_parser("check", help="cross-validation sweep")
    p_check.add_argument("--pmax", type=int, default=20)
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    return parser


_NEG_SLOPE = re.compile(r"-(\d|inf$)")
# Options whose value may start with "-": a knot such as -k1, a sign string
# such as -+ or --, a rotation list such as -1,0,1.
_DASH_VALUE_OPTIONS = ("--knot", "--structure", "--rots")
_FLAG = re.compile(r"--?[a-z][a-z-]*")
_JOINED_DASH_VALUE = re.compile(f"^({'|'.join(_DASH_VALUE_OPTIONS)})=(?=-)")


def _protect_values(argv: list[str]) -> list[str]:
    """Pad with a space every token that argparse would take for an option
    but that is a value: a negative number, slope or comma list anywhere,
    and any token after --knot, --structure or --rots that starts with "-"
    and is not spelled like a flag.  A value joined to those options by "="
    is padded after the "=" when it starts with "-", as argparse drops a
    bare "--".  Slope.parse, int and their str.strip type remove the space."""
    return [
        " " + a
        if _NEG_SLOPE.match(a)
        or (prev in _DASH_VALUE_OPTIONS and a.startswith("-") and not _FLAG.fullmatch(a))
        else _JOINED_DASH_VALUE.sub(r"\1= ", a)
        for prev, a in zip([None, *argv], argv)
    ]


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_protect_values(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
