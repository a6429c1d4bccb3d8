import math
from fractions import Fraction

import pytest

from lensknots.checks import rot_q_edges
from lensknots.slopes import dual_fraction
from lensknots.surgery import rot_spectrum
from lensknots.tight import (
    ShuffleClass,
    class_from_signs,
    decorated_path,
    decoration,
    enumerate_tight,
)
from lensknots.unknots import (
    legendrian_classification,
    mountain_range,
    rot_q_farey,
    sl_q,
    stabilize,
    tb_q_peak,
    transverse_classification,
)


def lens_pairs(p_max):
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


class TestPeakTb:
    @pytest.mark.parametrize(
        "p,q,knot,tb",
        [
            (5, 2, "k1", Fraction(-3, 5)),
            (5, 2, "k2", Fraction(-2, 5)),
            (5, 2, "-k1", Fraction(-3, 5)),
            (2, 1, "k1", Fraction(-1, 2)),
            (7, 2, "k2", Fraction(-3, 7)),
        ],
    )
    def test_values(self, p, q, knot, tb):
        assert tb_q_peak(p, q, knot) == tb

    def test_orientation_reversal_preserves_tb(self):
        for p, q in lens_pairs(12):
            assert tb_q_peak(p, q, "k1") == tb_q_peak(p, q, "-k1")

    def test_dual_symmetry(self):
        # k2 in L(p,q) has the tb of k1 in L(p,p') and vice versa
        for p, q in lens_pairs(20):
            if q == 1:
                continue
            p_ = dual_fraction(p, q).num
            assert tb_q_peak(p, q, "k2") == Fraction(-(p - p_), p)

    def test_k2_peak_is_the_first_geodesic_step(self):
        # The geodesic's first edge runs from -p/q to -(p-p')/(q-q'), so the
        # dual fraction and the Farey path give the k2 peak independently.
        for p, q in lens_pairs(150):
            assert tb_q_peak(p, q, "k2") == Fraction(decorated_path(p, q)[1].num, p)

    def test_unknown_knot(self):
        with pytest.raises(ValueError):
            tb_q_peak(5, 2, "k3")

    @pytest.mark.parametrize("p,q", [(1, 5), (4, 2), (5, 5), (5, 0), (-5, 2)])
    def test_needs_lens_pair(self, p, q):
        for knot in ("k1", "-k1", "k2", "-k2"):
            with pytest.raises(ValueError):
                tb_q_peak(p, q, knot)


class TestRotation:
    def test_undecorated_structures_have_rot_zero(self):
        (ts,) = enumerate_tight(2, 1)
        assert rot_q_farey(ts, "k1") == 0
        (ts,) = enumerate_tight(5, 4)
        assert rot_q_farey(ts, "k1") == 0

    def test_sign_flip_negates(self):
        for ts in enumerate_tight(9, 2):
            flipped = class_from_signs(
                9, 2, "".join("-" if c == "+" else "+" for c in ts.sign_string)
            )
            for knot in ("k1", "k2"):
                assert rot_q_farey(flipped, knot) == -rot_q_farey(ts, knot)

    def test_orientation_reversal_negates(self):
        for ts in enumerate_tight(12, 5):
            assert rot_q_farey(ts, "-k1") == -rot_q_farey(ts, "k1")
            assert rot_q_farey(ts, "-k2") == -rot_q_farey(ts, "k2")

    def test_block_edge_vectors_are_constant(self):
        for p, q in lens_pairs(120):
            d = decoration(p, q)
            first = 1
            for size, step in zip(d.blocks, d.steps, strict=True):
                for a, b in zip(d.path[first : first + size], d.path[first + 1 :]):
                    assert (b.num - a.num, b.den - a.den) == step, f"L({p},{q})"
                first += size
            assert first == max(len(d.path) - 2, 1)

    def test_block_sum_matches_edge_oracle(self):
        for p, q in lens_pairs(60):
            for ts in enumerate_tight(p, q):
                for knot in ("k1", "-k1", "k2", "-k2"):
                    assert rot_q_farey(ts, knot) == rot_q_edges(ts, knot), (p, q, ts, knot)

    def test_rejects_plus_counts_that_do_not_fit_the_blocks(self):
        d = decoration(9, 2)  # one block of three decorated edges
        for plus_counts in [(), (1, 0), (4,), (-1,)]:
            with pytest.raises(ValueError):
                rot_q_farey(ShuffleClass(d, plus_counts), "k1")
        d = decoration(12, 5)  # two singleton blocks
        for plus_counts in [(1,), (1, 1, 0), (0, 2)]:
            with pytest.raises(ValueError):
                rot_q_farey(ShuffleClass(d, plus_counts), "k2")

    def test_matches_surgery_spectrum(self):
        for p, q in lens_pairs(16):
            classes = enumerate_tight(p, q)
            for knot in ("k1", "k2"):
                assert sorted(rot_q_farey(ts, knot) for ts in classes) == rot_spectrum(
                    p, q, knot
                )


def test_sl_q_combination():
    assert sl_q(Fraction(-3, 5), Fraction(2, 5)) == Fraction(-1)


class TestClassification:
    def test_knot_lists(self):
        (ts,) = enumerate_tight(2, 1)
        assert [c.knot for c in legendrian_classification(2, 1, ts)] == ["k1"]
        ts = enumerate_tight(3, 1)[0]
        assert [c.knot for c in legendrian_classification(3, 1, ts)] == ["k1", "-k1"]
        ts = enumerate_tight(5, 2)[0]
        assert [c.knot for c in legendrian_classification(5, 2, ts)] == [
            "k1",
            "-k1",
            "k2",
            "-k2",
        ]

    def test_invariants_consistent(self):
        ts = enumerate_tight(5, 2)[0]
        for c in legendrian_classification(5, 2, ts):
            assert c.tb_q == tb_q_peak(5, 2, c.knot)
            assert c.sl_q == c.tb_q - c.rot_q

    def test_tb_is_the_peak_for_every_class(self):
        for p, q in lens_pairs(60):
            for ts in enumerate_tight(p, q):
                for c in legendrian_classification(p, q, ts):
                    assert c.tb_q == tb_q_peak(p, q, c.knot), (p, q, c.knot)

    def test_transverse_values(self):
        ts = class_from_signs(5, 2, "-")
        assert transverse_classification(5, 2, ts) == [
            Fraction(-1),
            Fraction(-1, 5),
            Fraction(-1, 5),
            Fraction(-3, 5),
        ]

    def test_structure_must_live_on_the_lens_space(self):
        ts = enumerate_tight(7, 2)[0]
        for p, q in [(5, 2), (7, 3)]:
            with pytest.raises(ValueError):
                legendrian_classification(p, q, ts)
            with pytest.raises(ValueError):
                transverse_classification(p, q, ts)
            with pytest.raises(ValueError):
                mountain_range(p, q, ts, "k1", depth=1)


def test_stabilize():
    ts = enumerate_tight(3, 1)[0]
    c = legendrian_classification(3, 1, ts)[0]
    up = stabilize(c, "+")
    assert up.tb_q == c.tb_q - 1
    assert up.rot_q == c.rot_q + 1
    assert up.sl_q == c.sl_q - 2
    down = stabilize(c, "-")
    assert down.sl_q == c.sl_q  # negative stabilization preserves sl

    with pytest.raises(ValueError):
        stabilize(c, "0")


class TestMountainRange:
    def test_point_lattice(self):
        ts = class_from_signs(3, 1, "+")
        mr = mountain_range(3, 1, ts, "k1", depth=2)
        rot, tb = mr.peak
        assert rot == Fraction(-1, 3) and tb == Fraction(-2, 3)
        expected = {
            (rot, tb),
            (rot - 1, tb - 1),
            (rot + 1, tb - 1),
            (rot - 2, tb - 2),
            (rot, tb - 2),
            (rot + 2, tb - 2),
        }
        assert set(mr.points) == expected
        assert len(mr.points) == 6

    def test_depth_zero(self):
        ts = enumerate_tight(2, 1)[0]
        mr = mountain_range(2, 1, ts, "k1", depth=0)
        assert mr.points == (mr.peak,)

    def test_negative_depth(self):
        ts = enumerate_tight(2, 1)[0]
        with pytest.raises(ValueError):
            mountain_range(2, 1, ts, "k1", depth=-1)
