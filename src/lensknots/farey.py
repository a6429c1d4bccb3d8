"""Circular order on extended rationals and geodesics in the Farey graph.

The boundary circle is oriented so that the clockwise order reads
0 -> 1 -> inf -> -1 -> 0; equivalently, clockwise means increasing real
value with the two ends glued through infinity.
"""

from __future__ import annotations

from collections import deque

from .slopes import Slope, farey_mul


def in_arc(x: Slope, start: Slope, stop: Slope) -> bool:
    """True iff x lies strictly inside the open clockwise arc start -> stop.

    Three distinct slopes sit in clockwise cyclic order exactly when the
    product of the three pairwise cross-determinants is positive; endpoints
    themselves are excluded.
    """
    if start == stop:
        raise ValueError("degenerate arc: endpoints coincide")
    return farey_mul(start, x) * farey_mul(x, stop) * farey_mul(stop, start) > 0


def _bezout(n: int, d: int) -> tuple[int, int]:
    """(x, y) with n*x + d*y == 1, for coprime n and d >= 0 (inf = 1/0)."""
    x = pow(n, -1, d) if d else 1
    return x, (1 - n * x) // d if d else 0


def neighbor_family(s: Slope) -> tuple[int, int]:
    """A pair (c, d) with s.num*d - s.den*c == -1.

    Every Farey neighbor of s is (c + k*s.num)/(d + k*s.den) for a unique
    integer k; as k decreases the family sweeps clockwise around the circle,
    approaching s from its clockwise side as k -> +infinity.
    """
    x, y = _bezout(s.num, s.den)
    return y, -x


def farthest_neighbor(s: Slope, bound: Slope) -> Slope:
    """Farthest Farey neighbor of s clockwise of s and counterclockwise of
    bound; returns bound itself when the two already share an edge."""
    if s == bound:
        raise ValueError("farthest_neighbor needs distinct slopes")
    e = farey_mul(s, bound)
    c, d = neighbor_family(s)
    # The family member indexed k passes bound at k = (bound.num*d - c*bound.den)/e;
    # the smallest integer k at or past it is the farthest neighbor (bound if |e| == 1).
    k = -((c * bound.den - bound.num * d) // e)
    return Slope(c + k * s.num, d + k * s.den)


def geodesic(start: Slope, stop: Slope) -> list[Slope]:
    """Shortest edge-path from start to stop inside the clockwise arc,
    built by iterating farthest_neighbor."""
    return list(_geodesic(start, stop))


def _geodesic(start: Slope, stop: Slope):
    """The vertices of geodesic(start, stop), one at a time; the endpoints
    are checked on the call, before the first vertex."""
    if start == stop:
        raise ValueError("geodesic needs distinct endpoints")

    def walk(v):
        yield v
        while v != stop:
            v = farthest_neighbor(v, stop)
            yield v

    return walk(start)


def bfs_oracle(start: Slope, stop: Slope) -> list[Slope]:
    """Breadth-first shortest path from start to stop over the explicit
    Farey graph on inf and the slopes of the closed clockwise arc with
    denominator at most the larger endpoint denominator and absolute value
    at most m, the larger endpoint numerator in absolute value.  Test
    oracle; independent of geodesic().

    No shortest path needs more.  A vertex v whose denominator exceeds both
    endpoints' lies strictly between its Farey parents u and w, and the
    edge u-w shuts v off from both endpoints, so any excursion through v
    can be cut to u, w or the edge between them.  Through inf the path
    meets the integers next to an endpoint, at most m in absolute value.

    A vertex n/d (d >= 0, inf = 1/0) with n*x + d*y == 1 has the neighbors
    (y + k*n)/(k*d - x), swept in increasing k: the integers m, ..., -m
    for inf.  A candidate is admissible when it is stop or when start, it,
    stop sit in clockwise order, in_arc written out on cross-determinants."""
    if start == stop:
        raise ValueError("degenerate arc: endpoints coincide")
    sn, sd = start.num, start.den
    goal = tn, td = stop.num, stop.den
    orient = tn * sd - td * sn  # farey_mul(stop, start)
    den_max, m = max(sd, td), max(abs(sn), abs(tn))
    prev = {(sn, sd): None}
    queue = deque([(sn, sd)])
    while True:  # the graph holds a shortest path, so stop is reached
        cur = n, d = queue.popleft()
        x, y = _bezout(n, d)
        for k in range(-((den_max - x) // d), (den_max + x) // d + 1) if d else range(-m, m + 1):
            vn, vd = y + k * n, k * d - x
            if vd < 0:
                vn, vd = -vn, -vd
            elif vd == 0:
                vn = 1
            v = vn, vd
            if v not in prev and (
                v == goal
                or (vd == 0 or abs(vn) <= m * vd)
                and (sn * vd - sd * vn) * (vn * td - vd * tn) * orient > 0
            ):
                prev[v] = cur
                if v == goal:
                    path = []
                    while v is not None:
                        path.append(Slope(*v))
                        v = prev[v]
                    return path[::-1]
                queue.append(v)
