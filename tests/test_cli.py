import contextlib
import io
import json
import operator
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensknots.checks import lens_pairs
from lensknots.cli import _OPTION, GRAMMAR, _arguments, _parse, _Usage, build_parser, main
from lensknots.slopes import Slope, _int
from lensknots.tight import class_from_signs, enumerate_tight
from lensknots.unknots import legendrian_classification, mountain_range


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_farey_path_json(capsys):
    code, out = run(capsys, "farey", "path", "-12/5", "0")
    assert code == 0
    assert json.loads(out) == ["-12/5", "-7/3", "-2", "-1", "0"]


def test_farey_path_to_infinity(capsys):
    code, out = run(capsys, "farey", "path", "0", "inf")
    assert code == 0
    assert json.loads(out) == ["0", "inf"]


def test_bypass_front_and_back(capsys):
    code, out = run(capsys, "bypass", "-5/2", "0")
    assert (code, out.strip()) == (0, "-2")
    code, out = run(capsys, "bypass", "-5/2", "0", "--back")
    assert (code, out.strip()) == (0, "-3")


def test_tight_structures_count(capsys):
    code, out = run(capsys, "tight-structures", "12", "5")
    assert (code, out.strip()) == (0, "4")


def test_tight_structures_list(capsys):
    code, out = run(capsys, "tight-structures", "12", "5", "--list")
    payload = json.loads(out)
    assert payload["path"] == ["-12/5", "-7/3", "-2", "-1", "0"]
    assert payload["structures"] == ["--", "-+", "+-", "++"]


def test_surgery_json(capsys):
    code, out = run(capsys, "surgery", "5", "2", "--knot", "k2", "--format", "json")
    payload = json.loads(out)
    assert payload["framings"] == [-3, -2]
    assert payload["det"] == 5
    assert payload["spectrum"] == ["-1/5", "1/5"]


def test_surgery_explicit_rots(capsys):
    code, out = run(
        capsys, "surgery", "3", "1", "--rots", "-1", "--format", "json"
    )
    assert json.loads(out)["rot_q"] == "-1/3"


def test_surgery_rots_list_may_start_with_minus(capsys):
    spaced = run(capsys, "surgery", "12", "5", "--rots", "-1,0,1")
    assert spaced == run(capsys, "surgery", "12", "5", "--rots=-1,0,1")
    assert spaced[0] == 0 and "rot_q\t" in spaced[1]


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (
            ["mountain-range", "3", "1", "--structure", "+", "--knot", "-k1"],
            ["mountain-range", "3", "1", "--structure", "+", "--knot=-k1"],
        ),
        (["unknots", "12", "5", "--structure", "-+"], ["unknots", "12", "5", "--structure=-+"]),
        (
            ["mountain-range", "12", "5", "--structure", "--", "--knot", "-k2", "--format", "json"],
            ["mountain-range", "12", "5", "--structure=--", "--knot=-k2", "--format", "json"],
        ),
        (["surgery", "12", "5", "--rots", "-1,0,1"], ["surgery", "12", "5", "--rots=-1,0,1"]),
        (["unknots", "12", "5", "--structure", "--"], ["unknots", "12", "5", "--structure=--"]),
    ],
)
def test_values_may_start_with_minus(spaced, joined):
    code, out, err = run_captured(spaced)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_captured(joined)
    assert out


def test_structure_of_minus_signs(capsys):
    code, out = run(capsys, "unknots", "12", "5", "--structure", "--")
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == ["--"] * 4


def test_a_flag_after_a_value_option_is_still_a_flag():
    with pytest.raises(SystemExit) as exc:
        main(["unknots", "12", "5", "--structure", "--format", "json"])
    assert exc.value.code == 2


# A successful call of each subcommand, and a value for each of its options
# that takes one.
CALLS = {
    "farey": (["farey", "path", "0", "1"], {}),
    "bypass": (["bypass", "-5/2", "0"], {}),
    "tight-structures": (["tight-structures", "12", "5"], {}),
    "surgery": (["surgery", "3", "1"], {"--knot": "k2", "--rots": "-1", "--format": "json"}),
    "unknots": (["unknots", "12", "5"], {"--structure": "-+", "--format": "json"}),
    "mountain-range": (
        ["mountain-range", "3", "1", "--structure", "+"],
        {"--knot": "-k1", "--structure": "-", "--depth": "2", "--format": "svg"},
    ),
    "mcg": (["mcg", "8", "3"], {}),
    "check": (["check"], {"--pmax": "3", "--format": "json"}),
}


def _long_options():
    """(subcommand, option, whether it takes a value) for every long option
    of every subcommand in the grammar, and each subcommand's --help."""
    return [
        (command, option, takes_value)
        for command, (_, _, arguments) in GRAMMAR.items()
        for option, takes_value in [("--help", False)]
        + [(name, "action" not in kwargs) for name, kwargs, _ in _arguments(arguments) if name.startswith("--")]
    ]


def _spellings(command, option, takes_value, spelled):
    """Each call of the subcommand with the option, spelled as given,
    appended: spaced, and joined by "=" when it takes a value."""
    base, values = CALLS[command]
    if not takes_value:
        return [base + [spelled]]
    value = values[option]
    return [base + [spelled, value], base + [f"{spelled}={value}"]]


FULL_SPELLINGS = [argv for case in _long_options() for argv in _spellings(*case, case[1])]
PREFIXES = [
    argv
    for case in _long_options()
    for n in range(3, len(case[1]))
    for argv in _spellings(*case, case[1][:n])
] + [
    ["unknots", "12", "5", "--struct", "-+"],
    ["unknots", "12", "5", "--struct=--"],
    ["mountain-range", "3", "1", "--structure", "+", "--kn", "-k1"],
]


def _exit_code(argv):
    """main's exit code, SystemExit included, with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def test_every_long_option_has_a_call():
    assert {command for command, _, _ in _long_options()} == set(CALLS)
    for command, option, takes_value in _long_options():
        assert takes_value == (option in CALLS[command][1]), (command, option)


@pytest.mark.parametrize("argv", FULL_SPELLINGS, ids=" ".join)
def test_an_option_spelled_in_full_succeeds(argv):
    assert _exit_code(argv) == 0


@pytest.mark.parametrize("argv", PREFIXES, ids=" ".join)
def test_an_option_prefix_exits_2(argv):
    assert _exit_code(argv) == 2


@pytest.mark.parametrize("command", GRAMMAR)
def test_the_parser_offers_the_grammar_long_options(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([command, "--help"])
    # An option's help line names it, and its metavar if it takes a value.
    offered = re.findall(r"^  (?:-h, )?(--[\w-]+)( \S)?", out.getvalue(), re.M)
    expected = {(option, takes_value) for c, option, takes_value in _long_options() if c == command}
    assert {(option, bool(metavar)) for option, metavar in offered} == expected


_VALUES = [
    "", "0", "3", "12", "-5", "+2", " 7", "1_0", "x", "path", "-path", "1/2", "-inf",
    "k1", "-k1", "k2", "+", "-+", "--", "s1s2", "json", "tsv", "svg", "text", "-1,0,1",
]
_OPTIONS = sorted({option for _, option, _ in _long_options()})


def _tokens(options, words=()):
    """Options, values and option=value tokens."""
    return st.one_of(
        st.sampled_from([*options, *words]),
        st.sampled_from(_VALUES),
        st.builds("{}={}".format, st.sampled_from(options), st.sampled_from(_VALUES)),
    )


def _call_and_options(command):
    """The subcommand's call from CALLS with up to three of its own options,
    --help aside, put anywhere after the subcommand.  An option is spelled
    as in FULL_SPELLINGS, or else alone, followed by a value or joined to
    one by "=", the value from CALLS or _VALUES."""
    base, values = CALLS[command]
    options = [(o, takes_value) for c, o, takes_value in _long_options() if c == command and o != "--help"]
    if not options:
        return st.just(base)
    spelled = [argv[len(base) :] for option, t in options for argv in _spellings(command, option, t, option)]
    option = st.sampled_from([option for option, _ in options])
    value = st.sampled_from([*values.values(), *_VALUES])
    chunk = st.one_of(
        st.sampled_from(spelled),
        st.builds(lambda o: [o], option),
        st.builds(lambda o, v: [o, v], option, value),
        st.builds(lambda o, v: [f"{o}={v}"], option, value),
    )

    def insert(placed):
        argv = list(base)
        for at, tokens in sorted(placed, key=lambda p: -p[0]):
            argv[at:at] = tokens
        return argv

    return st.lists(st.tuples(st.integers(1, len(base)), chunk), max_size=3).map(insert)


# Any tokens, or a subcommand's call with more of its options.
_TOKENS = _tokens(_OPTIONS, [*GRAMMAR, "-h", "-x", "--bogus", "--kn"])
_ARGVS = st.one_of(st.lists(_TOKENS, max_size=7), st.sampled_from(list(CALLS)).flatmap(_call_and_options))


KNOWN = {}  # each subcommand's long options, --help included
for _command, _option, _ in _long_options():
    KNOWN.setdefault(_command, set()).add(_option)


def _argparse_reads(argv):
    """argv spelled for argparse to read it by the spelling rule.  A value
    that starts with "-", and the "=" value of an option known where it
    stands when it starts with "-", are padded with a space, as argparse
    takes a token that holds one for a value; so an unknown --name=value
    whose value holds a space is cut to --name.  Before the subcommand only
    --help is known."""
    command, read = None, []
    for token in argv:
        name, eq, value = token.partition("=")
        known = name in KNOWN.get(command, {"--help"})
        if _OPTION.fullmatch(token) is None:
            command = token if command is None else command
            read.append(" " + token if token.startswith("-") else token)
        elif eq and known and value.startswith("-"):
            read.append(f"{name}= {value}")
        elif eq and not known and " " in value:
            read.append(name)
        else:
            read.append(token)
    return read


ARGPARSE = build_parser()
for _parser in (ARGPARSE, *{a.dest: a for a in ARGPARSE._actions}["command"].choices.values()):
    # As the walk reads them: options in full only, type=int values by _int.
    _parser.allow_abbrev = False
    _parser.register("type", int, _int)


def _argparse_outcome(argv):
    """vars() of argparse's namespace for argv with the pad stripped, or,
    where argparse exits, its exit status and the parser that prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(ARGPARSE.parse_args(_argparse_reads(argv)))
        except SystemExit as exc:
            # The help and a usage error both start "usage: <prog> [-h]".
            return exc.code, (out.getvalue() or err.getvalue()).split(" [-h]")[0]
    return {k: v[1:] if isinstance(v, str) and v.startswith(" -") else v for k, v in parsed.items()}


def _walk_outcome(argv):
    """vars() of the walk's namespace without func, or the exit status and
    the parser that prints, as _argparse_outcome gives them."""
    try:
        walked = vars(_parse(argv))
    except _Usage as exc:
        command, message = exc.args
        return 0 if message is None else 2, "usage: lensknots" + (f" {command}" if command else "")
    return {k: v for k, v in walked.items() if k != "func"}


def _examples(argvs):
    """Run a Hypothesis test on each argv as an explicit example."""

    def decorate(test):
        for argv in argvs:
            test = example(argv)(test)
        return test

    return decorate


def test_every_call_takes_the_fast_path(monkeypatch):
    """Each call of CALLS and FULL_SPELLINGS but --help runs on the walk's
    namespace, the one argparse gives, without building argparse."""

    def build_parser(command=None):
        raise AssertionError("argparse built for a call that parses")

    monkeypatch.setattr("lensknots.cli.build_parser", build_parser)
    calls = [argv for argv, _ in CALLS.values()] + [a for a in FULL_SPELLINGS if "--help" not in a]
    for argv in calls:
        assert isinstance(_walk_outcome(argv), dict), argv
        assert _walk_outcome(argv) == _argparse_outcome(argv), argv
        assert _exit_code(argv) == 0, argv


@_examples([argv for argv, _ in CALLS.values()] + FULL_SPELLINGS)
@settings(max_examples=300, deadline=None)
@given(_ARGVS)
def test_the_walk_agrees_with_argparse(argv):
    """Where argparse parses, the walk returns the same namespace; where
    argparse exits, the walk ends the call with the same exit status, in
    the same parser."""
    assert _walk_outcome(argv) == _argparse_outcome(argv)


@pytest.mark.parametrize("argv", [["farey", "path", "-inf", "0"], ["farey", "path", "0", "-inf"]])
def test_minus_infinity_is_a_slope(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)[:: 1 if argv[2] == "-inf" else -1] == ["inf", "0"]


def test_double_dash_is_always_a_value(capsys):
    spaced = run(capsys, "mountain-range", "12", "5", "--structure", "--", "--depth", "0")
    assert spaced == run(capsys, "mountain-range", "12", "5", "--structure=--", "--depth", "0")
    assert spaced[0] == 0
    # Never argparse's end-of-options marker.
    assert _exit_code(["farey", "--", "path", "0", "1"]) == 2


def test_unknots_tsv(capsys):
    code, out = run(capsys, "unknots", "2", "1")
    lines = out.strip().splitlines()
    assert lines[0] == "structure\tknot\ttb_q\trot_q\tsl_q"
    assert lines[1] == "\tk1\t-1/2\t0\t-1/2"


def test_unknots_structure_filter(capsys):
    code, out = run(capsys, "unknots", "5", "2", "--structure", "-", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0] == {
        "structure": "-",
        "knot": "k1",
        "tb_q": "-3/5",
        "rot_q": "2/5",
        "sl_q": "-1",
    }


def test_mountain_range_tsv(capsys):
    code, out = run(
        capsys, "mountain-range", "3", "1", "--structure", "+", "--depth", "1"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "rot_q\ttb_q"
    assert lines[1:] == ["-1/3\t-2/3", "-4/3\t-5/3", "2/3\t-5/3"]


def test_mountain_range_json_roundtrip(capsys):
    code, out = run(
        capsys,
        "mountain-range",
        "3",
        "1",
        "--structure",
        "+",
        "--depth",
        "2",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert payload["peak"] == ["-1/3", "-2/3"]
    assert len(payload["points"]) == 6


def test_mountain_range_svg(capsys):
    code, out = run(
        capsys,
        "mountain-range",
        "2",
        "1",
        "--depth",
        "1",
        "--format",
        "svg",
    )
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<circle") == 3


def _per_point_rendering(mr, fmt):
    """The mountain-range output rendered point by point."""
    if fmt == "tsv":
        return "rot_q\ttb_q\n" + "".join(f"{r}\t{t}\n" for r, t in mr.points)
    if fmt == "json":
        payload = {
            "knot": mr.knot,
            "peak": [str(mr.peak[0]), str(mr.peak[1])],
            "depth": mr.depth,
            "points": [[str(r), str(t)] for r, t in mr.points],
        }
        return json.dumps(payload) + "\n"
    x0 = min(r for r, _ in mr.points) - 1
    x1 = max(r for r, _ in mr.points) + 1
    y0 = min(t for _, t in mr.points) - 1
    y1 = max(t for _, t in mr.points) + 1
    width, height = int((x1 - x0) * 30), int((y1 - y0) * 30)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for r, t in mr.points:
        cx, cy = float((r - x0) * 30), float((y1 - t) * 30)
        lines.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="black"/>')
    return "\n".join(lines + ["</svg>"]) + "\n"


@pytest.mark.parametrize("fmt", ["tsv", "json", "svg"])
@pytest.mark.parametrize(
    "p,q,signs,knot,depth",
    [
        pytest.param(12, 5, "-+", "-k2", 12, id="12-5--+--k2"),
        pytest.param(7, 2, "++", "k1", 12, id="7-2-++-k1"),
        pytest.param(2, 1, "", "k1", 12, id="2-1--k1"),
        pytest.param(3, 1, "-", "-k1", 300, id="3-1---k1-depth-300"),
        pytest.param(5, 2, "+", "k2", 0, id="5-2-+-k2-depth-0"),
    ],
)
def test_mountain_range_output_matches_per_point_rendering(fmt, p, q, signs, knot, depth):
    argv = ["mountain-range", str(p), str(q), f"--knot={knot}", f"--depth={depth}", "--format", fmt]
    code, out, err = run_captured(argv + ([f"--structure={signs}"] if signs else []))
    assert (code, err) == (0, "")
    mr = mountain_range(p, q, class_from_signs(p, q, signs), knot, depth)
    assert out == _per_point_rendering(mr, fmt)


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["tsv", "json", "svg"])
def test_mountain_range_memory_is_bounded(fmt):
    # 45 451 points: holding them all, or their rendering, takes 8-12 MiB;
    # writing row by row needs the 601 rot and 301 tb values and one row.
    argv = ["mountain-range", "3", "1", "--structure", "+", "--depth", "300", "--format", fmt]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mcg_spot_values(capsys):
    code, out = run(capsys, "mcg", "8", "3")
    assert out.splitlines() == ["smooth: Z2xZ2 [sigma tau]", "contact: Z2 [sigma]"]
    code, out = run(capsys, "mcg", "7", "2", "--contact")
    assert out.strip() == "1"
    code, out = run(capsys, "mcg", "5", "4", "--kernel")
    assert out.strip() == "Z2 [sigma*tau]"
    code, out = run(capsys, "mcg", "s1s2")
    assert out.strip() == "ZxZ2 [delta eta]"
    assert run(capsys, "mcg", "s1s2", "--contact") == (0, out)


def test_check_passes(capsys):
    code, out = run(capsys, "check", "--pmax", "6")
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_check_json(capsys):
    code, out = run(capsys, "check", "--pmax", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["p_max"] == 5
    assert all(c["passed"] for c in payload["checks"])


def test_check_json_counts_cases(capsys):
    # Nine lens spaces have p <= 5: one BFS case each, two surgery cases.
    _, text = run(capsys, "check", "--pmax", "5")
    code, out = run(capsys, "check", "--pmax", "5", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["cases"] for c in checks][1:3] == [9, 18]
    assert all(set(c) == {"name", "passed", "counterexample", "cases"} for c in checks)
    # The text lines carry no counts.
    assert text.splitlines() == [f"{c['name']}: PASS" for c in checks]


def test_check_json_is_deterministic(capsys):
    first = run(capsys, "check", "--pmax", "5", "--format", "json")
    assert first == run(capsys, "check", "--pmax", "5", "--format", "json")
    assert "runtime" not in json.loads(first[1])


def test_usage_error_exit_code():
    for argv in (["farey", "path", "0"], ["mcg", "8", "3", "--smooth", "--contact"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["surgery", "5", "2", "--rots", "1"],
        ["mountain-range", "5", "2"],
        ["mcg", "5"],
        ["surgery", "3", "1", "--rots=5"],
        ["surgery", "3", "1", "--rots=0"],
        ["mcg", "s1s2", "--smooth"],
        ["mcg", "s1s2", "--rel-torus"],
        ["mcg", "s1s2", "--kernel"],
        ["surgery", "5", "2", "--rots", ""],
        ["surgery", "5", "2", "--rots= "],
    ],
)
def test_usage_error_message(capsys, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["unknots", "-x5", "5"], "argument p: invalid int value: '-x5'"),
        (["unknots", "12", "5", "--struct", "-+"], "unrecognized arguments: --struct -+"),
        (["mcg", "--", "5", "2"], "mcg takes P Q or s1s2, got -- 5 2"),
        (["mcg", "-5x", "2"], "invalid literal for int() with base 10: '-5x'"),
        (["-x5"], "argument command: invalid choice: '-x5' (choose from "),
        (["farey", "-path", "0", "1"], "argument action: invalid choice: '-path' (choose from "),
        (["unknots", "12", "5", "--format", "-5"], "argument --format: invalid choice: '-5' ("),
        (["bypass", "1", "0", "--front=-x"], "argument --front: ignored explicit argument '-x'"),
        (["unknots", "12", "5", "--bogus=-x"], "unrecognized arguments: --bogus=-x"),
        (["surgery", "5", "2", "--rots", "1,x"], "--rots takes comma-separated integers, got '1,x'"),
        (["surgery", "5", "2", "--rots=-1,,1"], "--rots takes comma-separated integers, got '-1,,1'"),
        (["farey", "path", "-x/2", "0"], "not a slope: '-x/2'"),
        (["bypass", "1/x", "0"], "not a slope: '1/x'"),
        (["farey", "path", "1/2/3", "0"], "not a slope: '1/2/3'"),
        # Integers are ASCII digits with an optional sign: no digit group
        # underscores and no non-ASCII digits, which int() alone accepts.
        (["farey", "path", "1_0", "12"], "not a slope: '1_0'"),
        (["farey", "path", "\uff14", "0"], "not a slope: '\uff14'"),
        (["mcg", "1_2", "5"], "invalid literal for int() with base 10: '1_2'"),
        (["check", "--pmax", "\uff12"], "argument --pmax: invalid int value: '\uff12'"),
        (["surgery", "5", "2", "--rots", "1_1"], "--rots takes comma-separated integers, got '1_1'"),
        # An unknown --name=value is an unrecognized argument, whatever its value.
        (["farey", "path", "0", "--bogus=-1"], "the following arguments are required: TO"),
        (["mcg", "8", "3", "--structure=-+"], "unrecognized arguments: --structure=-+"),
        # Before the subcommand every option but the help is unknown.
        (["--pmax=-5", "check", "--pmax", "3"], "unrecognized arguments: --pmax=-5"),
        # P Q | s1s2 takes one run of values: any option ends it.
        (["mcg", "8", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        (["mcg", "8", "--smooth", "3"], "unrecognized arguments: 3"),
    ],
)
def test_usage_errors_echo_tokens_as_typed(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2
    # "lensknots <command>: error: " from argparse, "error: " from main
    assert err.getvalue().splitlines()[-1].split("error: ", 1)[1].startswith(message)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv",
    [
        ["mountain-range", "3", "1", "--structure", "+", "--depth", "3000"],
        ["tight-structures", "400", "1", "--list"],
    ],
    ids=" ".join,
)
def test_a_closed_pipe_ends_the_call_quietly(argv):
    """Both print well past a pipe's buffer, so the reader's close comes
    while they write: exit 141, as a shell reports SIGPIPE, and no
    traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-S", "-m", "lensknots.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        assert child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (141, b"")


def test_bad_slope_exit_code(capsys):
    code = main(["farey", "path", "abc", "0"])
    assert code == 2


def test_degenerate_arc_exit_code(capsys):
    code = main(["farey", "path", "0", "0"])
    assert code == 2


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


LENS_PAIRS = list(lens_pairs(30))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.sampled_from(LENS_PAIRS),
        st.tuples(st.integers(-5, 30), st.integers(-5, 30)),
    )
)
def test_unknots_json_roundtrip(pq):
    p, q = pq
    code, out, err = run_captured(["unknots", str(p), str(q), "--format", "json"])
    if pq not in LENS_PAIRS:
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        return
    assert code == 0
    expected = [c for ts in enumerate_tight(p, q) for c in legendrian_classification(p, q, ts)]
    rows = json.loads(out)
    assert len(rows) == len(expected)
    for row, c in zip(rows, expected):
        assert row["knot"] == c.knot
        for key in ("tb_q", "rot_q", "sl_q"):
            assert Slope.parse(row[key]).as_fraction() == getattr(c, key)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_examples():
    """(argv, comment) of every line starting with `lensknots` in the sh
    blocks of the README's CLI section, without the program name, the
    `# ...` comment and any `> file` redirect."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("lensknots"):
                command, _, comment = line.partition("#")
                argv = shlex.split(command.split(">")[0])[1:]
                examples.append((argv, comment.strip()))
    return examples


README_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize(
    "argv,comment", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_cli_example(argv, comment):
    code, out, err = run_captured(argv)
    assert (code, err) == (0, "")
    assert out
    if argv[:2] == ["farey", "path"]:  # the comment is the printed path
        assert out.strip() == comment


def test_readme_cli_examples_are_found():
    commands = [argv[0] for argv, _ in README_EXAMPLES]
    assert {"farey", "surgery", "unknots", "mountain-range", "mcg", "check"} <= set(commands)
    assert ["farey", "path", "-12/5", "0"] in [argv for argv, _ in README_EXAMPLES]
