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
# call; a list of options is a mutually exclusive group.  _parse parses a
# call with it, and build_parser builds the argparse parser that prints
# the help and usage errors.
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


def build_parser(command=None):
    """The argparse parser of the grammar, or of its subcommand `command`.
    main uses it only to print the help and usage errors, never to parse."""
    import argparse

    description = "Exact contact-topological invariants of lens spaces"
    parser = argparse.ArgumentParser(prog="lensknots", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, arguments) in GRAMMAR.items():
        subparser = sub.add_parser(name, help=summary)
        groups = {}
        for arg, kwargs, group in _arguments(arguments):
            if group is not None and group not in groups:
                groups[group] = subparser.add_mutually_exclusive_group()
            groups.get(group, subparser).add_argument(arg, **kwargs)
    return sub.choices[command] if command else parser


class _Usage(Exception):
    """A call that ends in the help or a usage error.  Its args are the
    subcommand whose parser prints it, None for the top parser, and the
    message, None for the help."""


# Spelled like an option: -x, --name or --name=value.
_OPTION = re.compile(r"-[A-Za-z]|--[A-Za-z][\w-]*(?:=.*)?", re.S)


def _value(command, label, kwargs, token):
    """The token converted by the argument's type and checked against its
    choices; a type=int value takes ASCII digits with an optional sign."""
    kind = kwargs.get("type")
    try:
        value = _int(token) if kind is int else kind(token) if kind else token
    except ValueError:
        raise _Usage(command, f"argument {label}: invalid {kind.__name__} value: {token!r}") from None
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _Usage(command, f"argument {label}: invalid choice: {value!r} (choose from {listed})")
    return value


def _subcommand(command):
    """The namespace of a call of the subcommand before its arguments are
    read, its options by name and its positionals in order."""
    func, _, arguments = GRAMMAR[command]
    values, options, positionals = {"command": command, "func": func}, {}, []
    for name, kwargs, group in _arguments(arguments):
        if name.startswith("-"):
            dest = kwargs.get("dest", name[2:].replace("-", "_"))
            flag = kwargs.get("action") == "store_true"
            values[dest] = kwargs.get("default", False if flag else None)
            options[name] = dest, kwargs, group
        else:
            positionals.append((name, kwargs))
    return values, options, positionals


def _parse(argv):
    """The namespace of the call, with argparse's attributes and func;
    raises _Usage for the help and for argparse's usage errors.

    A token is an option only if _OPTION spells it; every other token is a
    value, wherever it stands.  The first value names the subcommand, and
    the values after it fill its positionals in order, a "+" positional
    taking values up to the next option.  A value option takes the next
    token or its "=" value.  As in argparse, the help, a bad value, a value
    option without a value, "=" after a flag and two options of one
    exclusive group end the call where they stand; then a missing
    positional does; unknown options and values left over are reported
    last, by the top parser."""
    command, values, extras = None, {}, []
    options, positionals = {}, [("command", {"choices": GRAMMAR})]  # the top parser's
    chosen, more = {}, None
    tokens = iter(argv)
    for token in tokens:
        if _OPTION.fullmatch(token) is None:
            if more:
                label, kwargs, taken = more
                taken.append(_value(command, label, kwargs, token))
            elif not positionals:
                extras.append(token)
            elif command is None:  # the rest of the call is the subcommand's
                command = _value(None, "command", positionals.pop()[1], token)
                values, options, positionals = _subcommand(command)
            else:
                name, kwargs = positionals.pop(0)
                label = kwargs.get("metavar", name)
                values[name] = _value(command, label, kwargs, token)
                if kwargs.get("nargs") == "+":
                    values[name] = [values[name]]
                    more = label, kwargs, values[name]
            continue
        more = None
        name, eq, value = token.partition("=")
        if name in ("-h", "--help"):
            if eq:
                raise _Usage(command, f"argument -h/--help: ignored explicit argument {value!r}")
            raise _Usage(command, None)
        if name not in options:
            extras.append(token)
            continue
        dest, kwargs, group = options[name]
        action = kwargs.get("action")
        if action is None:
            if not eq:
                value = next(tokens, None)
                if value is None or _OPTION.fullmatch(value):
                    raise _Usage(command, f"argument {name}: expected one argument")
            values[dest] = _value(command, name, kwargs, value)
        elif eq:
            raise _Usage(command, f"argument {name}: ignored explicit argument {value!r}")
        else:
            values[dest] = True if action == "store_true" else kwargs["const"]
        if group is not None and chosen.setdefault(group, name) != name:
            raise _Usage(command, f"argument {name}: not allowed with argument {chosen[group]}")
    if positionals:
        names = ", ".join(kwargs.get("metavar", name) for name, kwargs in positionals)
        raise _Usage(command, f"the following arguments are required: {names}")
    if extras:
        raise _Usage(None, f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        # argparse prints the help (exit 0) or the usage line and error (exit 2).
        command, message = exc.args
        parser = build_parser(command)
        if message is None:
            parser.print_help()
            parser.exit()
        parser.error(message)
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
