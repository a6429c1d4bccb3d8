import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensknots.checks import lens_pairs
from lensknots.cli import main
from lensknots.slopes import Slope
from lensknots.tight import enumerate_tight
from lensknots.unknots import legendrian_classification


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
    ],
)
def test_usage_error_message(capsys, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
