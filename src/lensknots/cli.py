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
from .bypass import TorusState, attach_bypass
from .checks import check_sweep
from .farey import geodesic
from .slopes import Slope
from .surgery import KNOTS, build_chain, linking_det, linking_matrix, rot_q_surgery, rot_spectrum
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
    chain = build_chain(args.p, args.q, args.knot)
    out = {
        "framings": list(chain.framings),
        "meridian_of": chain.meridian_of,
        "matrix": [list(row) for row in linking_matrix(chain)],
        "det": linking_det(chain),
    }
    if args.rots:
        rot = tuple(int(v) for v in args.rots.split(","))
        out["rot_q"] = str(rot_q_surgery(chain, [rot])[0])
    else:
        out["spectrum"] = [str(v) for v in rot_spectrum(args.p, args.q, args.knot)]
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


def _mountain_svg(mr) -> str:
    unit = 30  # pixels per rot and per tb unit, keeping the grid square
    rots = [p[0] for p in mr.points]
    tbs = [p[1] for p in mr.points]
    pad = 1
    x0, x1 = min(rots) - pad, max(rots) + pad
    y0, y1 = min(tbs) - pad, max(tbs) + pad
    width = int((x1 - x0) * unit)
    height = int((y1 - y0) * unit)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for rot, tb in mr.points:
        cx = float((rot - x0) * unit)
        cy = float((y1 - tb) * unit)
        lines.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def cmd_mountain(args) -> int:
    classes = _structures(args.p, args.q, args.structure)
    if len(classes) != 1:
        raise ValueError("ambiguous tight structure; pass --structure SIGNS")
    mr = mountain_range(args.p, args.q, classes[0], args.knot, args.depth)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "knot": mr.knot,
                    "peak": [str(mr.peak[0]), str(mr.peak[1])],
                    "depth": mr.depth,
                    "points": [[str(r), str(t)] for r, t in mr.points],
                }
            )
        )
    elif args.format == "svg":
        print(_mountain_svg(mr))
    else:
        print("rot_q\ttb_q")
        for r, t in mr.points:
            print(f"{r}\t{t}")
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
    p_surg.add_argument("--knot", choices=KNOTS, default="k1")
    p_surg.add_argument("--rots", help="comma-separated rotation numbers")
    p_surg.add_argument("--format", choices=["json", "tsv"], default="tsv")
    p_surg.set_defaults(func=cmd_surgery)

    p_unk = sub.add_parser("unknots", help="Legendrian rational unknot invariants")
    p_unk.add_argument("p", type=int)
    p_unk.add_argument("q", type=int)
    p_unk.add_argument("--structure", metavar="SIGNS")
    p_unk.add_argument("--format", choices=["json", "tsv"], default="tsv")
    p_unk.set_defaults(func=cmd_unknots)

    p_mr = sub.add_parser("mountain-range", help="Legendrian mountain range")
    p_mr.add_argument("p", type=int)
    p_mr.add_argument("q", type=int)
    p_mr.add_argument("--knot", choices=mcg_mod.ORIENTED_KNOTS, default="k1")
    p_mr.add_argument("--structure", metavar="SIGNS")
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


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Pad negative numbers, slopes and comma lists so argparse does not mistake
    # them for options; Slope.parse and int strip the space again.
    argv = [" " + a if _NEG_SLOPE.match(a) else a for a in argv]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
