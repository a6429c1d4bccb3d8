"""What `check` catches: one row per single-function mutant.

Each row names the module attributes it patches, where their callers read
them, and builds the mutant from the original.  Under the patch a
check_sweep must fail, and its first failing family, in the sweep's order,
must report the row's counterexample.  A row that no family catches yet is
a strict expected failure naming the ROADMAP item that closes it, so the
item's PR has to flip the mark.
"""

import importlib
from pathlib import Path

import pytest

from lensknots.checks import check_sweep
from lensknots.slopes import Slope, farey_mul, neg_cf
from lensknots.surgery import ORIENTED_KNOTS

P_MAX = 20

FAREY_VS_SURGERY = "rotation numbers: Farey vs surgery"


def _q_squared_one_row_without_contact_group(table):
    rows = list(table)
    rows[3] = rows[3]._replace(contact=rows[4].contact)
    return tuple(rows)


def _shortcut_at_two(farthest_neighbor):
    # Returns bound also at cross-determinant 2, where bound is not a neighbor of s.
    return lambda s, bound: bound if abs(farey_mul(s, bound)) == 2 else farthest_neighbor(s, bound)


def _first_factor_dropped(count_tight_lens):
    def count(p, q):
        # The product over the chain without the factor -r_0 - 1 of its first component.
        return count_tight_lens(p, q) // (-neg_cf(Slope(-p, q))[0] - 1)

    return count


def _numerator_plus_one(dual_fraction):
    def dual(p, q):
        d = dual_fraction(p, q)
        return Slope(d.num + 1, d.den)

    return dual


def _negated_k2(peaks):
    # The Farey rot_Q of k2, and with it of -k2, negated.
    def peaks_of(ts):
        out = peaks(ts)
        for knot in ("k2", "-k2"):
            rot, tb = out[knot]
            out[knot] = -rot, tb
        return out

    return peaks_of


def _reversed_k1_keeps_rot(peaks):
    def peaks_of(ts):
        out = peaks(ts)
        out["-k1"] = out["k1"]
        return out

    return peaks_of


def _miss(item):
    return pytest.mark.xfail(strict=True, reason=f"no check family compares this yet; ROADMAP item {item} closes it")


# (patched attributes, mutant of the original, first failing family, its counterexample)
MUTANTS = [
    pytest.param(
        ("tight.peak_tb",),
        lambda peak_tb: lambda p, q: peak_tb(p, q)[::-1],
        FAREY_VS_SURGERY,
        "L(5,2) k1 tb",
        id="peak_tb swaps k1 and k2",
    ),
    pytest.param(
        ("tight.dual_fraction",),
        _numerator_plus_one,
        FAREY_VS_SURGERY,
        "L(3,2) k2 tb",
        id="dual_fraction numerator + 1",
    ),
    pytest.param(
        ("unknots.sl_q", "checks.sl_q"),
        lambda sl_q: lambda tb_q, rot_q: tb_q + rot_q,
        FAREY_VS_SURGERY,
        "L(3,1) k1 sl",
        id="sl_q is tb + rot",
    ),
    pytest.param(
        ("mcg._TABLE",),
        _q_squared_one_row_without_contact_group,
        None,
        None,
        id="q^2 = 1 row with a trivial contact group",
        marks=_miss(4),
    ),
    # Patched where mcg and checks read the table; the decoration derives
    # its list from H_1, a second derivation that the table must meet.
    pytest.param(
        ("mcg.unknot_classes", "checks.unknot_classes"),
        lambda unknot_classes: lambda p, q: list(ORIENTED_KNOTS),
        "MCG divisibility and iso criterion",
        "L(2,1) unknot classes",
        id="unknot_classes lists all four knots",
    ),
    # L(5,2) is the first lens space with four oriented unknots.
    pytest.param(
        ("mcg.unknot_classes", "checks.unknot_classes"),
        lambda unknot_classes: lambda p, q: unknot_classes(p, q)[:2],
        "MCG divisibility and iso criterion",
        "L(5,2) unknot classes",
        id="unknot_classes keeps two of four knots",
    ),
    # Only what the decoration, and with it `unknots`, lists changes.
    pytest.param(
        ("tight.ORIENTED_KNOTS",),
        lambda knots: knots[::-1],
        "MCG divisibility and iso criterion",
        "L(2,1) unknot classes",
        id="decoration lists the oriented knots reversed",
    ),
    pytest.param(
        ("checks._peaks",),
        _negated_k2,
        FAREY_VS_SURGERY,
        "L(3,1) k2",
        id="rot_q_farey negates k2",
    ),
    # Right absolute value, wrong sign on chains of odd length, first L(2,1)'s [-2].
    pytest.param(
        ("checks.linking_det",),
        lambda linking_det: lambda chain: abs(linking_det(chain)),
        "linking matrix determinant = p",
        "L(2,1)",
        id="linking_det without its sign",
    ),
    pytest.param(
        ("farey.farthest_neighbor",),
        _shortcut_at_two,
        "geodesic vs BFS oracle",
        "L(2,1)",
        id="farthest_neighbor shortcut at two steps",
    ),
    pytest.param(
        ("checks.count_tight_lens",),
        _first_factor_dropped,
        "tight-count formula vs enumeration",
        "L(3,1)",
        id="count_tight_lens drops a factor",
    ),
    pytest.param(
        ("checks.standard_structures",),
        lambda standard_structures: lambda p, q: 2,
        "universally tight counts",
        "L(2,1)",
        id="standard_structures is always 2",
    ),
    pytest.param(
        ("unknots._block_sums",),
        lambda block_sums: lambda ts: block_sums(ts)[::-1],
        FAREY_VS_SURGERY,
        "L(5,2) k1",
        id="_block_sums swaps k1 and k2",
    ),
    # unknots._peaks is the one source of every peak the library and the CLI
    # give, and check reads it as checks._peaks; L(2,1) has rot 0.
    pytest.param(
        ("unknots._peaks", "checks._peaks"),
        _reversed_k1_keeps_rot,
        FAREY_VS_SURGERY,
        "L(3,1) -k1",
        id="_peaks gives -k1 the rot of k1",
    ),
    pytest.param(
        ("surgery.neg_cf",),
        lambda neg_cf: lambda x: neg_cf(x)[::-1],
        FAREY_VS_SURGERY,
        "L(5,2) k1",
        id="neg_cf reversed for the chain",
    ),
]


@pytest.mark.parametrize("targets,mutate,family,counterexample", MUTANTS)
def test_check_catches_the_mutant(monkeypatch, targets, mutate, family, counterexample):
    for target in targets:
        module, name = target.split(".")
        module = importlib.import_module(f"lensknots.{module}")
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    failed = [(c.name, c.counterexample) for c in check_sweep(P_MAX).checks if not c.passed]
    assert failed, "every family passed"
    assert failed[0] == (family, counterexample)


def test_readme_gives_the_score():
    misses = sum(any(mark.name == "xfail" and mark.kwargs["strict"] for mark in row.marks) for row in MUTANTS)
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    assert f"`check` catches {len(MUTANTS) - misses} of the {len(MUTANTS)} mutants" in readme
