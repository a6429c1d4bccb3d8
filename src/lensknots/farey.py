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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(|a|, |b|) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        t = old_r // r
        old_r, r = r, old_r - t * r
        old_x, x = x, old_x - t * x
        old_y, y = y, old_y - t * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _ceil_div(n: int, d: int) -> int:
    if d < 0:
        n, d = -n, -d
    return -((-n) // d)


def neighbor_family(s: Slope) -> tuple[int, int]:
    """A pair (c, d) with s.num*d - s.den*c == -1.

    Every Farey neighbor of s is (c + k*s.num)/(d + k*s.den) for a unique
    integer k; as k decreases the family sweeps clockwise around the circle,
    approaching s from its clockwise side as k -> +infinity.
    """
    _, x, y = _egcd(s.num, s.den)
    return y, -x


def farthest_neighbor(s: Slope, bound: Slope) -> Slope:
    """Farthest Farey neighbor of s clockwise of s and counterclockwise of
    bound; returns bound itself when the two already share an edge."""
    if s == bound:
        raise ValueError("farthest_neighbor needs distinct slopes")
    e = farey_mul(s, bound)
    if abs(e) == 1:
        return bound
    c, d = neighbor_family(s)
    # The family member indexed k passes bound at k = (bound.num*d - c*bound.den)/e;
    # the smallest integer k at or past that crossing is the farthest neighbor.
    k = _ceil_div(bound.num * d - c * bound.den, e)
    return Slope(c + k * s.num, d + k * s.den)


def geodesic(start: Slope, stop: Slope) -> list[Slope]:
    """Shortest edge-path from start to stop inside the clockwise arc,
    built by iterating farthest_neighbor."""
    if start == stop:
        raise ValueError("geodesic needs distinct endpoints")
    path = [start]
    while path[-1] != stop:
        path.append(farthest_neighbor(path[-1], stop))
    return path


def _neighbors_bounded(n: int, d: int, den_bound: int, value_bound: int) -> list[tuple[int, int]]:
    """The Farey neighbors v of the reduced n/d (d >= 0, 1/0 = inf) with
    denominator <= den_bound and |v| <= value_bound, inf always included,
    as reduced (num, den) pairs.  For inf these are the integers k with
    |k| <= value_bound (when den_bound >= 1)."""
    _, x, y = _egcd(n, d)
    c, dd = y, -x  # n*dd - d*c == -1, as in neighbor_family
    out = []
    if d == 0:
        # Neighbors of infinity are the integers.
        lo, hi = -value_bound, value_bound
    else:
        lo = _ceil_div(-den_bound - dd, d)
        hi = (den_bound - dd) // d
    for k in range(lo, hi + 1):
        vn, vd = c + k * n, dd + k * d
        if vd < 0:
            vn, vd = -vn, -vd
        elif vd == 0:
            vn = 1
        if vd <= den_bound and (vd == 0 or abs(vn) <= value_bound * vd):
            out.append((vn, vd))
    return out


def bfs_oracle(start: Slope, stop: Slope, den_bound: int) -> list[Slope]:
    """Breadth-first shortest path from start to stop over the explicit
    Farey graph on inf and the slopes of denominator <= den_bound and
    absolute value <= m, the larger endpoint numerator in absolute value,
    restricted to the closed clockwise arc.  Test oracle; independent of
    geodesic().

    No shortest path leaves that range: in an arc that avoids inf it stays
    between the endpoints, and through inf it meets the integers next to
    an endpoint, at most m in absolute value.  The graph is finite, so the
    search ends even when stop is out of reach.

    Vertices are (num, den) pairs; a candidate v is admissible when it is
    stop or when start, v, stop sit in clockwise order, the in_arc test
    written out on the pairs' cross-determinants."""
    if start == stop:
        raise ValueError("degenerate arc: endpoints coincide")
    sn, sd = start.num, start.den
    tn, td = stop.num, stop.den
    orient = tn * sd - td * sn  # farey_mul(stop, start)
    value_bound = max(abs(sn), abs(tn))
    init = (sn, sd)
    goal = (tn, td)
    prev = {init: None}
    queue = deque([init])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            out = []
            node = cur
            while node is not None:
                out.append(Slope(*node))
                node = prev[node]
            return list(reversed(out))
        for nb in _neighbors_bounded(cur[0], cur[1], den_bound, value_bound):
            if nb in prev:
                continue
            n, d = nb
            if nb == goal or (sn * d - sd * n) * (n * td - d * tn) * orient > 0:
                prev[nb] = cur
                queue.append(nb)
    raise ValueError(f"denominator bound {den_bound} too small to reach {stop}")
