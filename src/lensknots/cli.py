"""Command-line front end.

Every value in tsv and json output is an exact fraction rendered as a
"num/den" string (or a bare integer, or "inf"), so JSON output round-trips
to the identical values; SVG pixel coordinates are the one rounded output.

A call builds no Fraction: each rational it prints is an integer over p or
over det M, read off the library's private integer forms (unknots._peaks,
surgery._rot_sums and _spectrum) and rendered by slopes._ratio, and check's
families compare those integers too.  JSON is written by _json with
json.dumps's bytes, for strings of printable ASCII without '"' or '\\',
the form of every string the CLI writes.  So no call, check included,
loads fractions (with the decimal, numbers and re it imports) or json,
and each reads its options without re.
"""

from __future__ import annotations

import itertools
import sys
import types

from . import mcg as mcg_mod
from . import surgery
from .bypass import TorusState, attach_bypass
from .checks import check_sweep
from .farey import _geodesic
from .slopes import Slope, _int, _ratio
from .tight import class_from_signs, count_tight_lens, enumerate_tight
from .unknots import _columns, _depth, _peaks, _rows, sl_q

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


def _json(value) -> str:
    """json.dumps(value) for the values the CLI writes: dicts with str keys,
    lists, tuples, int, bool, None and str that is printable ASCII without
    '"' or '\\', which json.dumps writes unescaped; any other value raises
    TypeError."""
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, which bool subclasses
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not written as JSON")


_BATCH = 1 << 16  # characters joined per write: a write costs more than a few-byte chunk


def _write(head, chunks, sep, tail) -> None:
    """Write head, the chunks joined by sep and tail, one write per batch
    of about _BATCH characters.  A JSON document's last list streams after
    _json of the document with that list empty, cut before its "]}".
    Callers run all that can fail first, so a failing call writes nothing."""
    batch, size, lead = [head], len(head), ""
    for chunk in chunks:
        batch.append(lead + chunk)
        size += len(batch[-1])
        lead = sep
        if size >= _BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch) + tail)


def cmd_farey(args) -> int:
    path = _geodesic(Slope.parse(args.frm), Slope.parse(args.to))
    _write("[", (_json(str(v)) for v in path), ", ", "]\n")
    return 0


def cmd_bypass(args) -> int:
    side = "back" if args.back else "front"
    state = attach_bypass(TorusState(Slope.parse(args.slope)), Slope.parse(args.ruling), side)
    print(state.dividing_slope)
    return 0


def cmd_tight(args) -> int:
    if args.list:
        classes = enumerate_tight(args.p, args.q)
        doc = {"path": [str(v) for v in classes[0].path], "structures": []}
        _write(_json(doc)[:-2], (_json(ts.sign_string) for ts in classes), ", ", "]}\n")
    else:
        print(count_tight_lens(args.p, args.q))
    return 0


def cmd_surgery(args) -> int:
    chain = surgery.build_chain(args.p, args.q, args.knot)
    if args.rots is None:
        key, (sums, d) = "spectrum", surgery._spectrum(chain)
    else:
        try:
            rot = tuple(_int(v) for v in args.rots.split(",")) if args.rots else ()
        except ValueError:
            raise ValueError(f"--rots takes comma-separated integers, got {args.rots!r}") from None
        key, (sums, d) = "rot_q", surgery._rot_sums(chain, [rot])
    # rot_Q comes first, so a bad --rots fails before the dense matrix exists.
    matrix, det = surgery.linking_matrix(chain), surgery.linking_det(chain)
    doc = {"framings": chain.framings, "meridian_of": chain.meridian_of, "matrix": matrix, "det": det}
    values = (_ratio(s, d) for s in sums)
    if args.format == "tsv":
        rows = ("\t".join(str(v) for v in row) + "\n" for row in matrix)
        cells = ("\t" + v for v in values)
        _write("", itertools.chain(rows, [f"det\t{det}\n{key}"], cells), "", "\n")
    elif args.rots is None:
        _write(_json({**doc, key: []})[:-2], (_json(v) for v in values), ", ", "]}\n")
    else:
        print(_json({**doc, key: next(values)}))
    return 0


def cmd_unknots(args) -> int:
    p, q, signs = args.p, args.q, args.structure
    columns = ("structure", "knot", "tb_q", "rot_q", "sl_q")
    classes = enumerate_tight(p, q) if signs is None else [class_from_signs(p, q, signs)]
    # tb, rot and sl are integers over p, and sl_q is linear.
    rows = (
        (ts.sign_string, knot, _ratio(tb, p), _ratio(rot, p), _ratio(sl_q(tb, rot), p))
        for ts, peaks in zip(classes, map(_peaks, classes))
        for knot in ts.decoration.knots
        for rot, tb in [peaks[knot]]
    )
    if args.format == "json":
        _write("[", (_json(dict(zip(columns, row))) for row in rows), ", ", "]\n")
    else:
        _write("\t".join(columns) + "\n", ("\t".join(row) + "\n" for row in rows), "", "")
    return 0


def cmd_mountain(args) -> int:
    if args.structure is None and count_tight_lens(args.p, args.q) != 1:
        raise ValueError("ambiguous tight structure; pass --structure SIGNS")
    p = args.p
    ts = class_from_signs(p, args.q, args.structure or "")
    # unknots.mountain_range over p: the peak, the columns and the rows are
    # integers over p, one stabilization a step of p.
    (rot, tb), depth = _peaks(ts)[args.knot], _depth(args.depth)
    rots, tbs = _columns(rot, tb, depth, p)
    # Each rot and tb is rendered once: the point (rots[i], tbs[k]) reads
    # cells[i] + ends[k], and the points are joined by sep.
    if args.format == "json":
        doc = {"knot": args.knot, "peak": [_ratio(rot, p), _ratio(tb, p)], "depth": depth, "points": []}
        head, sep, tail = _json(doc)[:-2], ", ", "]}\n"
        cells = ["[" + _json(_ratio(r, p)) for r in rots]
        ends = [f", {_json(_ratio(t, p))}]" for t in tbs]
    elif args.format == "svg":
        unit = 30  # pixels per rot and per tb unit, keeping the grid square
        x0, x1 = min(rots) - p, max(rots) + p
        y0, y1 = min(tbs) - p, max(tbs) + p
        width, height = (x1 - x0) * unit // p, (y1 - y0) * unit // p
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
        )
        sep, tail = "\n", "\n</svg>\n"
        # Int true division rounds correctly, as float() of the Fraction does.
        cells = [f'<circle cx="{(r - x0) * unit / p:.1f}' for r in rots]
        ends = [f'" cy="{(y1 - t) * unit / p:.1f}" r="4" fill="black"/>' for t in tbs]
    else:
        head, sep, tail = "rot_q\ttb_q\n", "", ""
        cells, ends = [_ratio(r, p) for r in rots], [f"\t{_ratio(t, p)}\n" for t in tbs]
    _write(head, ((end + sep).join(row) + end for end, row in _rows(depth, cells, ends)), sep, tail)
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
        print(_json({"p_max": report.p_max, "checks": checks}))
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


def _is_option(token: str) -> bool:
    """Whether the token is spelled like an option: -x, --name or
    --name=value, where x and the name's first character are ASCII letters
    and the name goes on with word characters (str.isalnum, "_") and "-"."""
    if token[:2] == "--":
        name = token[2:].partition("=")[0]
        return name[:1].isascii() and name[:1].isalpha() and all(ch.isalnum() or ch in "_-" for ch in name)
    return len(token) == 2 and token[0] == "-" and token[1].isascii() and token[1].isalpha()


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

    A token is an option only if _is_option says so; every other token is a
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
        if not _is_option(token):
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
                if value is None or _is_option(value):
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
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
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
