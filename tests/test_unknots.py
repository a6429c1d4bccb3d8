import itertools
from fractions import Fraction

import pytest

from lensknots import checks, mcg, unknots
from lensknots.bypass import tb_from_dividing
from lensknots.checks import block_partition, lens_pairs, rot_q_edges
from lensknots.mcg import unknot_classes
from lensknots.slopes import Slope, cf_matrix_identity, dual_fraction, neg_cf
from lensknots.surgery import (
    ORIENTED_KNOTS,
    _knot,
    build_chain,
    rot_q_surgery,
    rot_spectrum,
)
from lensknots.tight import (
    ShuffleClass,
    class_from_signs,
    decoration,
    enumerate_tight,
)
from lensknots.unknots import (
    MountainRange,
    _peaks,
    legendrian_classification,
    mountain_range,
    rot_q_farey,
    sl_q,
    stabilize,
    tb_q_peak,
    transverse_classification,
)


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
        # The decorated path's first edge has vector (p', -q'), the chain's
        # last convergent [-r_0, ..., -r_{n-1}], so it runs from -p/q to
        # -(p-p')/(q-q'): the walk and dual_fraction's modular inverse give
        # the k2 peak independently.
        for p, q in lens_pairs(150):
            assert tb_q_peak(p, q, "k2") == Fraction(decoration(p, q).path[1].num, p)

    def test_unknown_knot(self):
        with pytest.raises(ValueError):
            tb_q_peak(5, 2, "k3")

    @pytest.mark.parametrize("p,q", [(1, 5), (4, 2), (5, 5), (5, 0), (-5, 2), (7.0, 2), (7, 2.0), (Fraction(7), 2)])
    def test_needs_lens_pair(self, p, q):
        for knot in ("k1", "-k1", "k2", "-k2"):
            with pytest.raises(ValueError, match=r"^need coprime p > q > 0, got "):
                tb_q_peak(p, q, knot)


class TestKnotNames:
    def test_oriented_knots(self):
        assert ORIENTED_KNOTS == ("k1", "-k1", "k2", "-k2")
        assert mcg.ORIENTED_KNOTS is ORIENTED_KNOTS

    @pytest.mark.parametrize("bad", ["k3", "", "-k3", "--k1", "k1 ", None, [], 1])
    def test_every_reader_rejects_other_names_alike(self, bad):
        ts = enumerate_tight(12, 5)[0]
        message = f"knot must be one of ('k1', '-k1', 'k2', '-k2'), got {bad!r}"
        for read in (
            lambda: tb_q_peak(12, 5, bad),
            lambda: rot_q_farey(ts, bad),
            lambda: rot_q_edges(ts, bad),
            lambda: mountain_range(12, 5, ts, bad),
        ):
            with pytest.raises(ValueError) as exc:
                read()
            assert str(exc.value) == message


def _heegaard_dual(p, q):
    """q* = q^-1 mod p: swapping the Heegaard tori identifies L(p,q) with
    L(p,q*) and carries k2 to k1."""
    return pow(q, -1, p)


class TestHeegaardSwap:
    def test_peak_tb(self):
        pairs = list(lens_pairs(40))
        assert len(pairs) == 489
        for p, q in pairs:
            assert tb_q_peak(p, q, "k2") == tb_q_peak(p, _heegaard_dual(p, q), "k1"), (p, q)

    def test_rotation_spectrum(self):
        for p, q in lens_pairs(40):
            k2 = sorted(rot_q_farey(ts, "k2") for ts in enumerate_tight(p, q))
            k1 = sorted(rot_q_farey(ts, "k1") for ts in enumerate_tight(p, _heegaard_dual(p, q)))
            assert k2 == k1, (p, q)

    def test_rotation_per_class(self):
        # The swap reverses the decorated path, and with it the sign string.
        classes = 0
        for p, q in lens_pairs(30):
            for ts in enumerate_tight(p, q):
                dual = class_from_signs(p, _heegaard_dual(p, q), ts.sign_string[::-1])
                assert rot_q_farey(ts, "k2") == rot_q_farey(dual, "k1"), (p, q, ts.sign_string)
                classes += 1
        assert classes == 1741

    def test_surgery_side_is_the_reversed_chain(self):
        # On the surgery side the swap reverses the chain and the rotation
        # vector: k2 of L(p,q) is k1 of L(p,q*) read backwards.
        vectors = 0
        for p, q in lens_pairs(30):
            k2 = build_chain(p, q, "k2")
            k1 = build_chain(p, _heegaard_dual(p, q), "k1")
            assert k1.framings == k2.framings[::-1], (p, q)
            rots = list(itertools.product(*(range(r + 2, -r - 1, 2) for r in k2.framings)))
            assert rot_q_surgery(k2, rots) == rot_q_surgery(k1, [v[::-1] for v in rots]), (p, q)
            vectors += len(rots)
        assert vectors == 1741


class TestFareyIsSurgery:
    def test_class_by_class(self):
        # Each tight structure is Legendrian surgery on the chain with the
        # rotation vector its blocks give, and both sides give it the same
        # rot_Q: one comparison per knot covers every class of L(p,q).
        tight = {(p, q): enumerate_tight(p, q) for p, q in lens_pairs(40)}
        batch = [checks._lens_space(p, q, classes) for (p, q), classes in tight.items()]
        assert list(checks._rot_failures(batch)) == [None] * (2 * len(tight))
        assert 2 * sum(map(len, tight.values())) == 7516


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
            assert d.blocks == tuple(block_partition(d.path)), f"L({p},{q})"
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
        # Also pins the knot order and each rot_q to the one-knot functions.
        for p, q in lens_pairs(60):
            knots = unknot_classes(p, q)
            for ts in enumerate_tight(p, q):
                peaks = legendrian_classification(p, q, ts)
                assert [c.knot for c in peaks] == knots, (p, q)
                for c in peaks:
                    assert c.tb_q == tb_q_peak(p, q, c.knot), (p, q, c.knot)
                    assert c.rot_q == rot_q_farey(ts, c.knot), (p, q, ts, c.knot)

    def test_classification_reads_no_table(self, monkeypatch):
        # The oriented unknots come from the shared decoration, which
        # derives them from H_1 without mcg's table.
        calls = []
        case = mcg._case

        def counted(p, q):
            calls.append((p, q))
            return case(p, q)

        monkeypatch.setattr(mcg, "_case", counted)
        for p, q in lens_pairs(12):
            calls.clear()
            for ts in enumerate_tight(p, q):
                legendrian_classification(p, q, ts)
                transverse_classification(p, q, ts)
            assert calls == [], f"L({p},{q})"

    def test_unknot_classes_are_the_classes_in_h1(self):
        # H_1(L(p,q)) = Z/p holds k1 at 1 and k2 at q^-1, which the chain's
        # continuant gives; reversing negates.  The decoration lists one
        # name per class, as the table does, and names in one class share
        # their peaks, k2 with -k1 at q = p - 1 included.
        for p, q in lens_pairs(200):
            assert cf_matrix_identity(neg_cf(Slope(-p, q)))[1] % p == pow(q, -1, p), (p, q)
            assert decoration(p, q).knots == tuple(unknot_classes(p, q)), (p, q)
        for p, q in lens_pairs(40):
            h1, at = (1, pow(q, -1, p)), {}
            for knot in ORIENTED_KNOTS:
                i, sign = _knot(knot)
                at[knot] = sign * h1[i] % p
            for ts in enumerate_tight(p, q):
                peaks = _peaks(ts)
                for a, b in itertools.combinations(ORIENTED_KNOTS, 2):
                    assert at[a] != at[b] or peaks[a] == peaks[b], (p, q, ts.sign_string, a, b)

    def test_transverse_values(self):
        ts = class_from_signs(5, 2, "-")
        assert transverse_classification(5, 2, ts) == [
            Fraction(-1),
            Fraction(-1, 5),
            Fraction(-3, 5),
            Fraction(-1, 5),
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


def _naive_cone(rot, tb, depth):
    return tuple((rot + r, tb - k) for k in range(depth + 1) for r in range(-k, k + 1, 2))


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

    def test_matches_the_double_loop(self):
        # Every class and knot at depth 6; every depth up to 6 on the first
        # class of each lens space.
        for p, q in lens_pairs(30):
            for i, ts in enumerate(enumerate_tight(p, q)):
                for knot in unknot_classes(p, q):
                    rot, tb = rot_q_farey(ts, knot), tb_q_peak(p, q, knot)
                    for depth in range(7) if i == 0 else (6,):
                        mr = mountain_range(p, q, ts, knot, depth)
                        assert mr.points == _naive_cone(rot, tb, depth), (p, q, ts, knot, depth)
                        assert (mr.knot, mr.peak, mr.depth) == (knot, (rot, tb), depth)

    def test_depth_200(self):
        for ts in enumerate_tight(3, 1):
            for knot in ("k1", "-k1"):
                rot, tb = rot_q_farey(ts, knot), tb_q_peak(3, 1, knot)
                mr = mountain_range(3, 1, ts, knot, 200)
                assert mr.points == _naive_cone(rot, tb, 200)
                assert len(mr.points) == 201 * 202 // 2

    def test_holds_peak_and_depth_only(self):
        ts = class_from_signs(3, 1, "+")
        mr = mountain_range(3, 1, ts, "-k1", depth=1000)
        assert MountainRange.__slots__ == ("knot", "peak", "depth")
        assert mr == MountainRange("-k1", mr.peak, 1000)
        rot, tb = mr.peak
        rots, tbs = unknots._columns(*mr.peak, mr.depth, 1)
        assert rots == [rot + r for r in range(-1000, 1001)]
        assert tbs == [tb - k for k in range(1001)]
        with pytest.raises(ValueError):
            MountainRange("-k1", mr.peak, -1)

    def test_rows_walk_any_aligned_columns(self):
        # cli.cmd_mountain walks the renderings of the columns, not the columns.
        names = [f"r{i}" for i in range(5)]
        assert list(unknots._rows(2, names, ["a", "b", "c"])) == [
            ("a", ["r2"]),
            ("b", ["r1", "r3"]),
            ("c", ["r0", "r2", "r4"]),
        ]

    def test_negative_depth(self):
        ts = enumerate_tight(2, 1)[0]
        with pytest.raises(ValueError):
            mountain_range(2, 1, ts, "k1", depth=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mountain_range(3, 1, class_from_signs(3, 1, "+"), "k1", 1.5),
        lambda: MountainRange("k1", (Fraction(-1, 3), Fraction(-2, 3)), Fraction(2)),
        lambda: tb_from_dividing(2.0),
        lambda: tb_from_dividing(Fraction(4)),
        lambda: ShuffleClass(decoration(9, 2), (1.5,)),
        lambda: ShuffleClass(decoration(9, 2), (Fraction(1),)),
    ],
    ids=["depth-float", "depth-fraction", "count-float", "count-fraction", "plus-float", "plus-fraction"],
)
def test_integer_fields_refuse_other_numbers(call):
    """A depth, an intersection count or a plus count that is not an int
    raises ValueError where it is given, not a TypeError or a wrong value
    further on."""
    with pytest.raises(ValueError, match="must be an integer"):
        call()
