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

    A vertex n/d (d >= 0, inf = 1/0) is queued with a neighbor c/e such
    that n*e - d*c == -1; its neighbors are then (c + k*n)/(e + k*d) over
    the integers k, swept in increasing k.  Only start needs _egcd for c/e:
    every other vertex takes it from the edge it was reached by.  For inf,
    e == -1 and k runs so that the integers m, m-1, ..., -m come out.  A
    candidate is admissible when it is stop or when start, it, stop sit in
    clockwise order, the in_arc test written out on cross-determinants.
    The search ends when stop is first reached, which is when its
    predecessor on the path is fixed."""
    if start == stop:
        raise ValueError("degenerate arc: endpoints coincide")
    sn, sd = start.num, start.den
    tn, td = stop.num, stop.den
    orient = tn * sd - td * sn  # farey_mul(stop, start)
    m = max(abs(sn), abs(tn))
    # Vertices are keyed by num*base + den; base exceeds every denominator.
    base = max(den_bound, sd, td) + 1
    goal = tn * base + td
    _, x, y = _egcd(sn, sd)
    prev = {sn * base + sd: None}
    queue = deque([(sn, sd, y, -x)])
    while queue:
        n, d, c, e = queue.popleft()
        cur = n * base + d
        if d:
            # The k with |e + k*d| <= den_bound.
            lo = -((den_bound + e) // d)
            vn, vd = c + lo * n, e + lo * d
            count = (den_bound - e) // d - lo + 1
        else:
            vn, vd = -m, e
            count = 2 * m + 1 if den_bound > 0 else 0
        for _ in range(count):
            # (vn, vd) is reduced, with n*vd - d*vn == -1; its sign is fixed
            # only for the key, as the tests below do not depend on it.  When
            # vd == 0 it is (1, 0).
            key = vn * base + vd if vd >= 0 else -vn * base - vd
            if key not in prev and (
                key == goal
                or (abs(vn) <= m * abs(vd) or not vd)
                and (sn * vd - sd * vn) * (vn * td - vd * tn) * orient > 0
            ):
                prev[key] = cur
                if key == goal:
                    path = []
                    while key is not None:
                        path.append(Slope(*divmod(key, base)))
                        key = prev[key]
                    return path[::-1]
                # Queued with n/d, signed so that the cross-determinant is -1.
                queue.append((vn, vd, -n, -d) if vd >= 0 else (-vn, -vd, n, d))
            vn += n
            vd += d
    raise ValueError(f"denominator bound {den_bound} too small to reach {stop}")
