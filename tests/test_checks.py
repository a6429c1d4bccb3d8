from fractions import Fraction

import pytest

from lensknots import checks, unknots
from lensknots.checks import check_sweep, lens_pairs
from lensknots.farey import bfs_oracle
from lensknots.mcg import GroupDescription
from lensknots.slopes import farey_sum


def test_lens_pairs():
    assert list(lens_pairs(5)) == [
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 3),
        (5, 1),
        (5, 2),
        (5, 3),
        (5, 4),
    ]


def test_sweep_small():
    report = check_sweep(10)
    assert report.passed
    assert len(report.checks) == 7
    assert all(c.counterexample is None for c in report.checks)
    assert report.runtime > 0


def test_sweep_enumerates_each_lens_space_once(monkeypatch):
    calls = []
    enumerate_tight = checks.enumerate_tight

    def counted(p, q):
        calls.append((p, q))
        return enumerate_tight(p, q)

    monkeypatch.setattr(checks, "enumerate_tight", counted)
    assert check_sweep(12).passed
    assert calls == list(lens_pairs(12))


def test_sweep_rejects_tiny_bound():
    with pytest.raises(ValueError):
        check_sweep(1)


def _failures(p_max):
    return {c.name: c.counterexample for c in check_sweep(p_max).checks if not c.passed}


def test_block_family_catches_a_wrong_block_sum(monkeypatch):
    monkeypatch.setattr(checks, "rot_q_farey", lambda ts, knot="k1": Fraction(0))
    assert _failures(6) == {
        "rotation numbers: Farey vs surgery": "L(3,1) k1",
        "rotation numbers: blocks vs edges": "L(3,1) class 0 k1",
    }


def test_block_family_catches_a_block_with_two_weights(monkeypatch):
    # Merging all shuffle blocks of a path into one puts edges of different
    # weight together; L(8,3) has blocks [1, 1] on -8/3, -5/2, -2, -1, 0.
    blocks = checks.block_partition

    def merged(path):
        sizes = blocks(path)
        return [sum(sizes)] if sizes else []

    monkeypatch.setattr(checks, "block_partition", merged)
    assert _failures(12) == {"rotation numbers: blocks vs edges": "L(8,3) shuffle blocks"}


def test_block_family_catches_a_block_split_into_singletons(monkeypatch):
    # Singletons leave the class sums alone; only the comparison of the
    # shuffle criterion with the decoration's runs sees the split. L(4,1)
    # has one block of two edges.
    monkeypatch.setattr(checks, "block_partition", lambda path: [1] * max(len(path) - 3, 0))
    assert _failures(6) == {"rotation numbers: blocks vs edges": "L(4,1) shuffle blocks"}


def test_det_family_runs_one_bareiss_per_lens_space(monkeypatch):
    calls = []
    det_bareiss = checks.det_bareiss

    def counted(m):
        calls.append(len(m))
        return det_bareiss(m)

    monkeypatch.setattr(checks, "det_bareiss", counted)
    assert check_sweep(9).passed
    assert len(calls) == len(list(lens_pairs(9)))


def test_det_family_checks_each_lens_space(monkeypatch):
    # One determinant and one comparison per lens space: k1 and k2 share
    # their framings, so they share their linking matrix.
    monkeypatch.setattr(checks, "det_bareiss", lambda m: 0)
    assert _failures(4)["linking matrix determinant = p"] == "L(2,1)"
    assert list(checks._det_failures({(5, 2): [], (7, 3): []})) == ["L(5,2)", "L(7,3)"]


def test_mcg_family_catches_a_wrong_k2_peak_tb(monkeypatch):
    # Where the table merges k1 with k2 their peak tb must agree; L(2,1)
    # is the first lens space with a single oriented unknot.
    peak_tb = unknots.peak_tb

    def wrong_k2(p, q):
        tb1, tb2 = peak_tb(p, q)
        return tb1, tb2 - 1

    monkeypatch.setattr(unknots, "peak_tb", wrong_k2)
    assert _failures(6) == {
        "MCG divisibility and iso criterion": "L(2,1) merged unknots with different peak tb"
    }


def test_mcg_family_catches_a_contact_order_that_does_not_divide(monkeypatch):
    # With a trivial smooth group and an isomorphic inclusion everywhere,
    # the first nontrivial contact group is sigma's on L(3,2), where q = -1.
    monkeypatch.setattr(checks, "smooth_mcg", lambda p, q: GroupDescription("trivial"))
    monkeypatch.setattr(checks, "inclusion_is_iso", lambda p, q: True)
    assert _failures(6) == {"MCG divisibility and iso criterion": "L(3,2) order divisibility"}


def test_mcg_family_catches_a_wrong_iso_criterion(monkeypatch):
    # L(2,1) has trivial smooth and contact groups, so the inclusion is an
    # isomorphism there.
    monkeypatch.setattr(checks, "inclusion_is_iso", lambda p, q: False)
    assert _failures(6) == {"MCG divisibility and iso criterion": "L(2,1) iso criterion"}


def test_mcg_family_catches_sigma_without_q_squared_one(monkeypatch):
    # Orders 4 over 2 divide and differ, so only the q^2 = 1 clause fails;
    # L(5,2) is the first lens space with q^2 != 1 (mod p).
    smooth = GroupDescription("Z2xZ2", ("sigma", "tau"))
    contact = GroupDescription("Z2", ("sigma",))
    monkeypatch.setattr(checks, "smooth_mcg", lambda p, q: smooth)
    monkeypatch.setattr(checks, "contact_mcg", lambda p, q: contact)
    monkeypatch.setattr(checks, "inclusion_is_iso", lambda p, q: False)
    assert _failures(6) == {"MCG divisibility and iso criterion": "L(5,2) sigma without q^2=1"}


def test_mcg_family_catches_a_wrong_merged_rot(monkeypatch):
    # A merged k2 must have the rot of k1 in every class; shifting its rot
    # by 1 breaks that first on L(2,1).
    rot_q_farey = checks.rot_q_farey

    def shifted_k2(ts, knot="k1"):
        return rot_q_farey(ts, knot) + (knot == "k2")

    monkeypatch.setattr(checks, "rot_q_farey", shifted_k2)
    failures = _failures(6)
    assert failures["MCG divisibility and iso criterion"] == (
        "L(2,1) class 0 merged unknots with different peak rot"
    )


def test_mcg_family_catches_a_reversed_merged_k2(monkeypatch):
    # Where the table merges k1 with k2, k2 is k1 itself, not its reverse.
    # Negating k2's rot keeps |rot(k2)| = |rot(k1)| in every merged class,
    # so a clause on |rot| passes it; the clause on rot fails it first on
    # L(3,1), where k1 and k2 merge and the classes have rot +-1/3.
    rot_q_farey = checks.rot_q_farey

    def negated_k2(ts, knot="k1"):
        rot = rot_q_farey(ts, knot)
        return -rot if knot == "k2" else rot

    tight = {(p, q): checks.enumerate_tight(p, q) for p, q in lens_pairs(8)}
    merged = [
        ts
        for (p, q), classes in tight.items()
        if len(checks.unknot_classes(p, q)) < 4
        for ts in classes
    ]
    assert all(abs(negated_k2(ts, "k1")) == abs(negated_k2(ts, "k2")) for ts in merged)
    assert checks._check("mcg", checks._mcg_failures(tight)).passed
    monkeypatch.setattr(checks, "rot_q_farey", negated_k2)
    result = checks._check("mcg", checks._mcg_failures(tight))
    assert result.counterexample == "L(3,1) class 0 merged unknots with different peak rot"


def test_rot_family_compares_class_by_class(monkeypatch):
    # Negating k2's Farey rot keeps its sorted spectrum, which rot_choices
    # makes symmetric under negation, so only a class-by-class comparison
    # sees it; L(2,1) has rot 0, and L(3,1) is the first with rot +-1/3.
    rot_q_farey = checks.rot_q_farey

    def negated_k2(ts, knot="k1"):
        rot = rot_q_farey(ts, knot)
        return -rot if knot == "k2" else rot

    tight = {(p, q): checks.enumerate_tight(p, q) for p, q in lens_pairs(6)}
    for classes in tight.values():
        assert sorted(rot_q_farey(ts, "k2") for ts in classes) == sorted(
            negated_k2(ts, "k2") for ts in classes
        )
    monkeypatch.setattr(checks, "rot_q_farey", negated_k2)
    result = checks._check("rot", checks._rot_failures(tight))
    assert (result.counterexample, result.cases) == ("L(3,1) k2", 4)


def test_rot_family_fails_blocks_that_do_not_fit_the_chain():
    # L(7,2) has one block of two edges; the chain of L(7,3) has no
    # component framed -4 to carry it.
    classes = checks.enumerate_tight(7, 2)
    assert classes[0].blocks == (2,) and checks.build_chain(7, 3).framings == (-3, -2, -2)
    assert list(checks._rot_failures({(7, 3): classes})) == ["L(7,3) k1", "L(7,3) k2"]


def test_geodesic_family_compares_the_decorated_path():
    # The classes of L(7,2) carry the path from -7/2, not the one from -7/3
    # that the geodesic and the BFS agree on.
    classes = checks.enumerate_tight(7, 2)
    assert list(checks._geodesic_failures({(7, 3): classes})) == ["L(7,3)"]


def test_geodesic_family_compares_the_bfs_path(monkeypatch):
    # A BFS path with the mediant of its first edge inserted: a Farey path,
    # one edge too long, where the decorated path and the geodesic agree.
    def detoured(start, stop):
        path = bfs_oracle(start, stop)
        return [path[0], farey_sum(path[0], path[1]), *path[1:]]

    monkeypatch.setattr(checks, "bfs_oracle", detoured)
    family = check_sweep(5).checks[1]
    assert family.name == "geodesic vs BFS oracle"
    assert (family.passed, family.counterexample, family.cases) == (False, "L(2,1)", 1)


def test_sweep_counts_the_cases_of_each_family():
    counts = [c.cases for c in check_sweep(20).checks]
    assert len(list(lens_pairs(20))) == 127
    assert counts == [127, 127, 254, 1345, 127, 372, 127]
    assert all(c.seconds >= 0 for c in check_sweep(5).checks)


def test_a_family_stops_counting_at_its_first_failure():
    result = checks._check("family", iter([None, None, "L(5,2)", None, "L(7,3)"]))
    assert (result.passed, result.counterexample, result.cases) == (False, "L(5,2)", 3)
    assert checks._check("family", iter([None] * 4)).cases == 4


def test_a_family_without_cases_fails():
    result = checks._check("family", iter(()))
    assert (result.passed, result.counterexample, result.cases) == (False, "no cases", 0)
    assert not checks._check("geodesic", checks._geodesic_failures({})).passed
