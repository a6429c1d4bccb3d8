import itertools
import math
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lensknots import tight
from lensknots.checks import block_partition, lens_pairs
from lensknots.farey import geodesic
from lensknots.slopes import ZERO, Slope
from lensknots.tight import (
    ShuffleClass,
    class_from_signs,
    count_tight_lens,
    count_tight_solid,
    decoration,
    enumerate_tight,
    is_universally_tight,
    standard_structures,
)
from lensknots.unknots import rot_q_farey


class TestCounts:
    @pytest.mark.parametrize(
        "p,q,count",
        [
            (2, 1, 1),
            (3, 1, 2),
            (5, 4, 1),
            (12, 5, 4),
            (9, 2, 4),
            (7, 2, 3),
            (7, 1, 6),
        ],
    )
    def test_closed_form(self, p, q, count):
        assert count_tight_lens(p, q) == count

    def test_q_plus_one_gives_unique_structure(self):
        for p in range(2, 40):
            assert count_tight_lens(p, p - 1) == 1

    def test_enumeration_matches_count(self):
        for p, q in lens_pairs(15):
            assert len(enumerate_tight(p, q)) == count_tight_lens(p, q)

    def test_enumeration_is_deterministic_and_distinct(self):
        classes = enumerate_tight(12, 5)
        assert classes == enumerate_tight(12, 5)
        assert len({ts.sign_string for ts in classes}) == len(classes)


class TestBlocks:
    def test_single_block(self):
        # L(9,2): path -9/2, -4, -3, -2, -1, 0 with three mutually
        # shuffleable decorated edges
        path = decoration(9, 2).path
        assert block_partition(path) == [3]
        assert count_tight_lens(9, 2) == 4

    def test_singleton_blocks(self):
        assert block_partition(decoration(12, 5).path) == [1, 1]

    def test_no_decorated_edges(self):
        assert block_partition(decoration(2, 1).path) == []
        assert block_partition(decoration(5, 4).path) == []

    def test_blocks_cover_decorated_edges(self):
        for p, q in lens_pairs(20):
            path = decoration(p, q).path
            assert sum(block_partition(path)) == max(len(path) - 3, 0)

    def test_chain_walk_is_the_grouped_geodesic(self):
        # The reference reads the decoration off the Farey geodesic: blocks
        # and steps are the runs of one decorated edge vector.
        for p, q in lens_pairs(200):
            path = geodesic(Slope(-p, q), ZERO)
            vectors = [(b.num - a.num, b.den - a.den) for a, b in zip(path[1:-2], path[2:-1])]
            runs = [(step, len(list(run))) for step, run in itertools.groupby(vectors)]
            d = decoration(p, q)
            assert d.path == tuple(path), (p, q)
            assert d.blocks == tuple(size for _, size in runs), (p, q)
            assert d.steps == tuple(step for step, _ in runs), (p, q)


class TestClassFromSigns:
    def test_normal_form(self):
        ts = class_from_signs(9, 2, "-+-")
        assert ts.sign_string == "+--"

    def test_roundtrip(self):
        for ts in enumerate_tight(12, 5):
            assert class_from_signs(12, 5, ts.sign_string) == ts

    def test_shuffles_collapse(self):
        # all orderings within one block give the same class
        seen = {class_from_signs(9, 2, "".join(p)) for p in itertools.permutations("+--")}
        assert len(seen) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            class_from_signs(9, 2, "+-")
        with pytest.raises(ValueError):
            class_from_signs(9, 2, "+0-")

    # The chain -p/q = [r_0, ..., r_n] by hand, and its count of decorated
    # edges, the sum of -r_i - 2: q = 1 gives [-p]; odd p with q = 2 gives
    # [-(p + 1)/2, -2]; and (10^18 + 3)/12 gives [-83333333333333334, -3, -2, -3].
    @pytest.mark.parametrize(
        "p,q,edges",
        [
            (7, 1, 5),
            (10**18 + 1, 1, 10**18 - 1),
            (9, 2, 3),
            (10**18 + 1, 2, (10**18 + 2) // 2 - 2),
            (10**18 + 3, 12, 83333333333333334),
        ],
    )
    def test_wrong_length_is_refused_from_the_chain(self, p, q, edges):
        # Too long a string to build, so a stand-in with only a length: the
        # path, about p/q vertices, must not be walked before the refusal.
        class Signs:
            def __len__(self):
                return edges - 1

        signs = "+" * (edges - 1) if edges < 100 else Signs()
        t0 = time.perf_counter()
        message = f"L({p},{q}) has {edges} decorated edges, got {edges - 1} signs"
        with pytest.raises(ValueError, match=re.escape(message)):
            class_from_signs(p, q, signs)
        assert time.perf_counter() - t0 < 1

    def test_the_chain_is_expanded_once(self, monkeypatch):
        # The sign count and the path walk read one expansion of -p/q.
        calls = []
        real = tight.neg_cf

        def counted(x):
            calls.append(x)
            return real(x)

        classes = [(p, q, ts.sign_string) for p, q in lens_pairs(12) for ts in enumerate_tight(p, q)]
        monkeypatch.setattr(tight, "neg_cf", counted)
        for p, q, signs in classes:
            calls.clear()
            class_from_signs(p, q, signs)
            assert calls == [Slope(-p, q)], (p, q, signs)

    def test_bad_pair_is_refused_before_the_signs(self):
        with pytest.raises(ValueError, match=re.escape("need coprime p > q > 0, got (4, 2)")):
            class_from_signs(4, 2, "x")


# (p, q), plus counts, and the error: L(9,2) has one block of three decorated
# edges, L(12,5) two singleton blocks.
MISFITS = [
    ((9, 2), (5,), "plus count 5 outside 0..3"),
    ((9, 2), (-1,), "plus count -1 outside 0..3"),
    ((9, 2), (), "0 plus counts for 1 blocks"),
    ((9, 2), (1, 0), "2 plus counts for 1 blocks"),
    ((12, 5), (1,), "1 plus counts for 2 blocks"),
    ((12, 5), (1, 1, 0), "3 plus counts for 2 blocks"),
    ((12, 5), (0, 2), "plus count 2 outside 0..1"),
]


class TestShuffleClass:
    @pytest.mark.parametrize("pq,plus_counts,message", MISFITS)
    def test_rejects_plus_counts_that_do_not_fit(self, pq, plus_counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ShuffleClass(decoration(*pq), plus_counts)

    @pytest.mark.parametrize(
        "read",
        [
            lambda ts: ts.sign_string,
            is_universally_tight,
            lambda ts: rot_q_farey(ts, "k1"),
            lambda ts: rot_q_farey(ts, "-k2"),
        ],
        ids=["sign_string", "is_universally_tight", "rot_q_farey k1", "rot_q_farey -k2"],
    )
    def test_no_reader_sees_a_misfitting_class(self, read):
        for pq, plus_counts, _ in MISFITS:
            with pytest.raises(ValueError):
                read(ShuffleClass(decoration(*pq), plus_counts))

    def test_every_fitting_count_builds(self):
        d = decoration(12, 5)
        classes = [ShuffleClass(d, pc) for pc in itertools.product(range(2), range(2))]
        assert classes == enumerate_tight(12, 5)


class TestSolidTorus:
    @pytest.mark.parametrize(
        "slope,count",
        [
            (Slope(-3, 2), 2),
            (Slope(-1, 1), 1),
            (Slope(-2, 1), 1),
            (Slope(-5, 3), 2),
            (Slope(1, 2), 2),  # twist-equivalent to -3/2
        ],
    )
    def test_counts(self, slope, count):
        assert count_tight_solid(slope) == count

    def test_twist_invariance(self):
        for k in range(-3, 4):
            assert count_tight_solid(Slope(-3 + 2 * k, 2)) == count_tight_solid(
                Slope(-3, 2)
            )

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            count_tight_solid(Slope(1, 0))


class TestUniversallyTight:
    def test_counts(self):
        for p, q in lens_pairs(20):
            univ = [ts for ts in enumerate_tight(p, q) if is_universally_tight(ts)]
            assert len(univ) == standard_structures(p, q)

    def test_standard_structures(self):
        assert standard_structures(5, 4) == 1
        assert standard_structures(5, 2) == 2
        assert standard_structures(2, 1) == 1


@given(st.integers(2, 60), st.integers(1, 59))
def test_count_is_positive(p, q):
    if q >= p or math.gcd(p, q) != 1:
        return
    assert count_tight_lens(p, q) >= 1


def test_bad_pairs_rejected():
    for p, q in [(4, 2), (3, 3), (2, 0), (1, 1), (5, 7)]:
        with pytest.raises(ValueError):
            count_tight_lens(p, q)
