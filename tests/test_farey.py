import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensknots.farey import (
    bfs_oracle,
    farthest_neighbor,
    geodesic,
    in_arc,
    neighbor_family,
)
from lensknots.slopes import INFINITY, ZERO, Slope, farey_mul, neg_cf


class TestInArc:
    def test_examples(self):
        assert in_arc(Slope(1, 2), ZERO, Slope(1, 1))
        assert in_arc(Slope(-3, 1), Slope(2, 1), Slope(-1, 1))
        assert not in_arc(Slope(1, 2), Slope(1, 1), ZERO)
        assert in_arc(INFINITY, Slope(1, 1), Slope(-1, 1))

    def test_endpoints_excluded(self):
        assert not in_arc(ZERO, ZERO, Slope(1, 1))
        assert not in_arc(Slope(1, 1), ZERO, Slope(1, 1))

    def test_degenerate_arc(self):
        with pytest.raises(ValueError, match="degenerate arc: endpoints coincide"):
            in_arc(ZERO, Slope(1, 1), Slope(1, 1))
        with pytest.raises(ValueError, match="degenerate arc: endpoints coincide"):
            bfs_oracle(Slope(-7, 3), Slope(-7, 3))

    @given(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
            lambda t: t != (0, 0)
        ),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
            lambda t: t != (0, 0)
        ),
    )
    def test_complementary_arcs(self, a, b):
        x, f = Slope(*a), Slope(*b)
        t = Slope(f.num + 1, f.den + 2) if Slope(f.num + 1, f.den + 2) != f else ZERO
        if x in (f, t) or f == t:
            return
        # x is in exactly one of the two arcs cut out by {f, t}
        assert in_arc(x, f, t) != in_arc(x, t, f)


def test_neighbor_family_determinant():
    for s in [Slope(-12, 5), Slope(3, 7), INFINITY, ZERO, Slope(-2, 1)]:
        c, d = neighbor_family(s)
        assert s.num * d - s.den * c == -1


class TestFarthestNeighbor:
    @pytest.mark.parametrize(
        "s,bound,expected",
        [
            (Slope(-11, 3), Slope(-1, 1), Slope(-7, 2)),
            (Slope(-5, 2), ZERO, Slope(-2, 1)),
            (Slope(-2, 1), ZERO, Slope(-1, 1)),
            (Slope(-12, 5), ZERO, Slope(-7, 3)),
            (INFINITY, Slope(-5, 2), Slope(-3, 1)),
            (Slope(-1, 1), ZERO, ZERO),
        ],
    )
    def test_examples(self, s, bound, expected):
        assert farthest_neighbor(s, bound) == expected

    def test_result_is_neighbor_in_arc(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(-40, 40)
            d = rng.randint(-40, 40)
            bn = rng.randint(-40, 40)
            bd = rng.randint(-40, 40)
            if (n, d) == (0, 0) or (bn, bd) == (0, 0):
                continue
            s, bound = Slope(n, d), Slope(bn, bd)
            if s == bound:
                continue
            v = farthest_neighbor(s, bound)
            assert abs(farey_mul(s, v)) == 1
            assert v == bound or in_arc(v, s, bound)

    def test_a_neighboring_bound_is_the_answer(self):
        # When s and bound share an edge, the family crosses bound at an
        # integer index, so the general step returns bound itself: every such
        # ordered pair with |num| <= 30 and den <= 30, infinity included.
        slopes = [(n, d) for d in range(31) for n in range(-30, 31) if math.gcd(n, d) == 1 and (d or n == 1)]
        pairs = [(s, b) for s in slopes for b in slopes if abs(s[0] * b[1] - s[1] * b[0]) == 1]
        assert (len(slopes), len(pairs)) == (1112, 4442)
        for s, b in pairs:
            assert farthest_neighbor(Slope(*s), Slope(*b)) == Slope(*b), (s, b)

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            farthest_neighbor(ZERO, ZERO)


class TestGeodesic:
    @pytest.mark.parametrize(
        "start,stop,path",
        [
            (Slope(-5, 2), ZERO, ["-5/2", "-2", "-1", "0"]),
            (Slope(-12, 5), ZERO, ["-12/5", "-7/3", "-2", "-1", "0"]),
            (Slope(-5, 4), ZERO, ["-5/4", "-1", "0"]),
            (ZERO, INFINITY, ["0", "inf"]),
        ],
    )
    def test_examples(self, start, stop, path):
        assert [str(v) for v in geodesic(start, stop)] == path

    def test_consecutive_vertices_are_neighbors(self):
        path = geodesic(Slope(-30, 11), ZERO)
        for a, b in zip(path, path[1:]):
            assert abs(farey_mul(a, b)) == 1

    def test_edge_count_from_continued_fraction(self):
        # number of edges is sum |r_i + 2| plus 2 for the lens-form expansion
        for p, q in [(5, 2), (12, 5), (9, 2), (5, 4), (7, 3), (30, 29)]:
            coeffs = neg_cf(Slope(-p, q))
            edges = len(geodesic(Slope(-p, q), ZERO)) - 1
            assert edges == sum(abs(r + 2) for r in coeffs) + 2

    def test_matches_bfs_oracle(self):
        for p in range(2, 26):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                frm = Slope(-p, q)
                assert geodesic(frm, ZERO) == bfs_oracle(frm, ZERO)

    def test_matches_bfs_oracle_on_every_arc(self):
        # Every ordered pair of slopes with |num| <= 6 and den <= 4, so arcs
        # through infinity and arcs ending away from 0 are covered.
        slopes = {Slope(n, d) for n in range(-6, 7) for d in range(5) if (n, d) != (0, 0)}
        for start in slopes:
            for stop in slopes - {start}:
                assert bfs_oracle(start, stop) == geodesic(start, stop), (start, stop)

    @settings(max_examples=60)
    @given(st.integers(2, 100), st.integers(1, 99))
    def test_against_oracle_random(self, p, q):
        if q >= p or math.gcd(p, q) != 1:
            return
        frm = Slope(-p, q)
        assert geodesic(frm, ZERO) == bfs_oracle(frm, ZERO)


def test_bfs_oracle_at_infinity():
    # Arcs with one end at inf: the graph's denominators are those of s.
    ends = {Slope(n, d) for n in range(-40, 41) for d in range(1, 5)}
    for s in ends:
        for start, stop in ((INFINITY, s), (s, INFINITY)):
            assert bfs_oracle(start, stop) == geodesic(start, stop), (start, stop)
    assert bfs_oracle(INFINITY, Slope(-6)) == [INFINITY, Slope(-6)]


def reference_neighbors(n, d, den_bound, value_bound):
    """The Farey neighbors v of the reduced n/d (d >= 0, 1/0 = inf) with
    denominator <= den_bound and |v| <= value_bound, inf always included,
    as reduced (num, den) pairs, from a fresh family of n/d."""
    x = pow(n, -1, d) if d else 1  # n*x + d*y == 1
    y = (1 - n * x) // d if d else 0
    c, e = y, -x  # n*e - d*c == -1
    if d == 0:
        lo, hi = -value_bound, value_bound
    else:
        lo, hi = -((den_bound + e) // d), (den_bound - e) // d
    for k in range(lo, hi + 1):
        vn, vd = c + k * n, e + k * d
        if vd < 0:
            vn, vd = -vn, -vd
        elif vd == 0:
            vn = 1
        if vd <= den_bound and (vd == 0 or abs(vn) <= value_bound * vd):
            yield vn, vd


def reference_bfs(start, stop, den_bound):
    """bfs_oracle's search with an explicit denominator bound, at least
    both endpoints' denominators so that stop is reached: a fresh neighbor
    family per vertex, and the search ends when stop leaves the queue."""
    sn, sd = start.num, start.den
    tn, td = stop.num, stop.den
    orient = tn * sd - td * sn
    value_bound = max(abs(sn), abs(tn))
    prev = {(sn, sd): None}
    queue = deque([(sn, sd)])
    while (cur := queue.popleft()) != (tn, td):
        for n, d in reference_neighbors(*cur, den_bound, value_bound):
            if (n, d) not in prev and (
                (n, d) == (tn, td) or (sn * d - sd * n) * (n * td - d * tn) * orient > 0
            ):
                prev[n, d] = cur
                queue.append((n, d))
    path = []
    while cur is not None:
        path.append(Slope(*cur))
        cur = prev[cur]
    return path[::-1]


def test_reference_neighbors_lists_what_it_states():
    # inf: the integers up to the value bound.  3: inf, 2 and 4 have
    # denominator <= 1, and value bound 3 drops 4.  -5/2: -3, -8/3, -7/3
    # and -2 have denominator <= 3, and value bound 2 keeps only -2.
    assert sorted(reference_neighbors(1, 0, 2, 3)) == [(k, 1) for k in range(-3, 4)]
    assert sorted(reference_neighbors(3, 1, 1, 3)) == [(1, 0), (2, 1)]
    assert sorted(reference_neighbors(-5, 2, 3, 3)) == [(-8, 3), (-7, 3), (-3, 1), (-2, 1)]
    assert list(reference_neighbors(-5, 2, 3, 2)) == [(-2, 1)]


def test_bfs_oracle_matches_the_reference_on_every_arc():
    # Every ordered arc between inf and the slopes with |num| <= 9 and
    # den <= 5, against a search with a bound above both endpoints'
    # denominators: the arc's own denominators hold a shortest path.
    slopes = sorted({Slope(n, d) for n in range(-9, 10) for d in range(6) if (n, d) != (0, 0)}, key=str)
    arcs = 0
    for start in slopes:
        for stop in slopes:
            if start != stop:
                assert bfs_oracle(start, stop) == reference_bfs(start, stop, 8), (start, stop)
                arcs += 1
    assert arcs == 4556


def test_bfs_oracle_matches_the_reference_on_lens_arcs():
    # -p/q -> 0 against the search at bound p: denominators above q add
    # nothing to the shortest path.
    arcs = 0
    for p in range(2, 41):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            start = Slope(-p, q)
            assert bfs_oracle(start, ZERO) == reference_bfs(start, ZERO, p), (p, q)
            arcs += 1
    assert arcs == 489
