"""Command-line front end.

Every numeric output is an exact fraction rendered as a "num/den" string
(or a bare integer, or "inf"); nothing is ever printed as a float, so JSON
output round-trips to the identical values.
"""

from __future__ import annotations

import json
import re
import sys
import types

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


_PQ = [("p", dict(type=int)), ("q", dict(type=int))]
_FORMAT = ("--format", dict(choices=["json", "tsv"], default="tsv"))

# The grammar, stated once: per subcommand its function, its help line and
# its arguments, each the name and keyword arguments of an add_argument
# call; a list of options is a mutually exclusive group.  build_parser
# builds the argparse parser from it and _walk parses a call with it.
GRAMMAR = {
    "farey": (
        cmd_farey,
        "Farey graph queries",
        [("action", dict(choices=["path"])), ("frm", dict(metavar="FROM")), ("to", dict(metavar="TO"))],
    ),
    "bypass": (
        cmd_bypass,
        "bypass attachment slope",
        [
            ("slope", dict(metavar="S")),
            ("ruling", dict(metavar="R")),
            [("--front", dict(action="store_true")), ("--back", dict(action="store_true"))],
        ],
    ),
    "tight-structures": (
        cmd_tight,
        "tight contact structures on L(p,q)",
        [*_PQ, ("--list", dict(action="store_true"))],
    ),
    "surgery": (
        cmd_surgery,
        "chain surgery presentation",
        [
            *_PQ,
            ("--knot", dict(type=str.strip, choices=surgery.KNOTS, default="k1")),
            ("--rots", dict(type=str.strip, help="comma-separated rotation numbers")),
            _FORMAT,
        ],
    ),
    "unknots": (
        cmd_unknots,
        "Legendrian rational unknot invariants",
        [*_PQ, ("--structure", dict(type=str.strip, metavar="SIGNS")), _FORMAT],
    ),
    "mountain-range": (
        cmd_mountain,
        "Legendrian mountain range",
        [
            *_PQ,
            ("--knot", dict(type=str.strip, choices=surgery.ORIENTED_KNOTS, default="k1")),
            ("--structure", dict(type=str.strip, metavar="SIGNS")),
            ("--depth", dict(type=int, default=4)),
            ("--format", dict(choices=["tsv", "json", "svg"], default="tsv")),
        ],
    ),
    "mcg": (
        cmd_mcg,
        "mapping class group tables",
        [
            ("args", dict(nargs="+", type=str.strip, metavar="P Q | s1s2")),
            [(f"--{name}", dict(dest="table", action="store_const", const=name)) for name in _MCG_TABLES],
        ],
    ),
    "check": (
        cmd_check,
        "cross-validation sweep",
        [("--pmax", dict(type=int, default=20)), ("--format", dict(choices=["text", "json"], default="text"))],
    ),
}


def _arguments(arguments):
    """(name, keyword arguments, exclusive group or None) for each argument
    of a GRAMMAR entry; a group is the index of its list."""
    for i, entry in enumerate(arguments):
        if isinstance(entry, list):
            yield from ((name, kwargs, i) for name, kwargs in entry)
        else:
            yield (*entry, None)


def build_parser(typed=None):
    """The argparse parser of the grammar.  Its parser class takes options
    only as spelled in full and quotes every token in its usage errors as
    typed; a type=int argument takes ASCII digits with an optional sign
    only.  `typed` maps each token that _protect padded to the token as
    typed."""
    import argparse

    typed = typed or {}

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, allow_abbrev=False, **kwargs)
            # argparse converts a type=int value with the function registered
            # for int, and still names the type "int" in its usage errors.
            self.register("type", int, _int)

        def parse_args(self, args=None, namespace=None):
            args, extras = self.parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(typed.get(e, e) for e in extras)}")
            return args

        def error(self, message):
            # argparse quotes a bad value by its repr, padding included.
            for padded, token in typed.items():
                i = padded.index(" ")
                message = message.replace(repr(padded[i:]), repr(token[i:]))
            super().error(message)

    parser = _Parser(prog="lensknots", description="Exact contact-topological invariants of lens spaces")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, summary, arguments) in GRAMMAR.items():
        subparser = sub.add_parser(command, help=summary)
        groups = {}
        for name, kwargs, group in _arguments(arguments):
            if group is not None and group not in groups:
                groups[group] = subparser.add_mutually_exclusive_group()
            groups.get(group, subparser).add_argument(name, **kwargs)
        subparser.set_defaults(func=func)
    return parser


def _value(kwargs, token):
    """The token converted by the argument's type and checked against its
    choices, as argparse does; ValueError where argparse reports an error."""
    kind = kwargs.get("type")
    value = _int(token) if kind is int else kind(token) if kind else token
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(token)
    return value


def _walk(tokens):
    """The namespace, as vars() sees it, that build_parser's parser returns
    for the _protect-padded tokens, or None where the walk cannot decide.

    It decides calls that argparse parses without an error and without the
    help: every option spelled in full, a value option followed by a value,
    "=" after value options only, no two options of one exclusive group,
    the right number of positionals, and a "+" positional in one run."""
    if not tokens or tokens[0] not in GRAMMAR:
        return None
    func, _, arguments = GRAMMAR[tokens[0]]
    values = {"command": tokens[0]}
    positionals, options = [], {}
    for name, kwargs, group in _arguments(arguments):
        if name.startswith("-"):
            dest = kwargs.get("dest", name[2:].replace("-", "_"))
            values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
            options[name] = dest, kwargs, group
        else:
            values[name] = None
            positionals.append((name, kwargs))
    loose, chosen, after_option, split = [], {}, False, False
    rest = iter(tokens[1:])
    try:
        for token in rest:
            if not token.startswith("-"):
                split = split or after_option
                loose.append(token)
                continue
            after_option = bool(loose)
            name, eq, value = token.partition("=")
            if name not in options:  # the help, or not an option in full
                return None
            dest, kwargs, group = options[name]
            if group is not None and chosen.setdefault(group, name) != name:
                return None
            action = kwargs.get("action")
            if action is None:
                if not eq:
                    value = next(rest, "-")
                    if value.startswith("-"):  # no value follows
                        return None
                values[dest] = _value(kwargs, value)
            elif eq:
                return None
            else:
                values[dest] = True if action == "store_true" else kwargs["const"]
        if positionals and positionals[-1][1].get("nargs") == "+":
            n = len(positionals) - 1
            if split or len(loose) <= n:
                return None
            loose[n:] = [loose[n:]]
        if len(loose) != len(positionals):
            return None
        for (name, kwargs), token in zip(positionals, loose):
            if isinstance(token, list):
                values[name] = [_value(kwargs, t) for t in token]
            else:
                values[name] = _value(kwargs, token)
    except ValueError:
        return None
    values["func"] = func
    return types.SimpleNamespace(**values)


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
    # argparse parses only what the walk gives up on: the help and argparse's
    # usage errors come from it alone.
    args = _walk(tokens)
    if args is None:
        args = build_parser({t: a for t, a in zip(tokens, argv) if t != a}).parse_args(tokens)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed standard output early.  Point it at devnull so
        # that the flush at exit does not fail again, as the SIGPIPE note of
        # the Python docs does, and exit as a shell reports a process that
        # SIGPIPE ended: 128 + 13.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
