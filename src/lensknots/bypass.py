"""Slope calculus of bypass attachments on convex tori."""

from __future__ import annotations

from .farey import farthest_neighbor
from .slopes import Slope, _fraction, _Record, _set


class TorusState(_Record):
    """A convex torus carrying two dividing curves of one slope."""

    __slots__ = ("dividing_slope",)

    def __init__(self, dividing_slope: Slope):
        _set(self, "dividing_slope", dividing_slope)


def attach_bypass(state: TorusState, ruling: Slope, side: str = "front") -> TorusState:
    """New torus state after attaching a bypass along a ruling curve.

    From the front the dividing slope jumps to the farthest neighbor
    clockwise of it and counterclockwise of the ruling slope; from the back
    the mirror computation applies.
    """
    if ruling == state.dividing_slope:
        raise ValueError("ruling slope must differ from the dividing slope")
    if side == "front":
        new = farthest_neighbor(state.dividing_slope, ruling)
    elif side == "back":
        # Negation mirrors the circle and swaps the two orientations.
        new = -farthest_neighbor(-state.dividing_slope, -ruling)
    else:
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    return TorusState(new)


def tb_from_dividing(intersections: int) -> Fraction:
    """Thurston-Bennequin number of a convex-surface boundary meeting the
    dividing set in the given (even, positive) number of points."""
    if not isinstance(intersections, int):
        raise ValueError("intersection count must be an integer")
    if intersections < 2 or intersections % 2:
        raise ValueError("intersection count must be even and >= 2")
    return _fraction(-intersections, 2)


def basic_slice_walk(start: Slope, stop: Slope) -> list[TorusState]:
    """Torus states visited when bypasses with ruling slope `stop` are
    attached from the front until the dividing slope reaches `stop`.

    The slopes traced out are exactly the vertices of the Farey geodesic, so
    each step is a basic slice of the rotative layer between the endpoints.
    """
    states = [TorusState(start)]
    while states[-1].dividing_slope != stop:
        states.append(attach_bypass(states[-1], stop, "front"))
    return states
