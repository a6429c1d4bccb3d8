"""The main theorem's case table: the smooth and contact mapping class
groups of lens spaces and S^1 x S^2, and the related rational unknot counts.

All answers are finite (or Z + finite) groups given by a tag and named
generators: sigma swaps the Heegaard solid tori (it exists when q^2 = 1 mod p
and is smoothly tau when q = -1), tau is complex conjugation, delta is the
sphere Dehn twist and eta the point reflection on S^1 x S^2.
"""

from __future__ import annotations

from collections import namedtuple

from .slopes import _Record, _set, q_is_minus_one
from .surgery import ORIENTED_KNOTS

# tag -> (group order, number of generators); the infinite group's order is None
_TAGS = {"trivial": (1, 0), "Z2": (2, 1), "Z2xZ2": (4, 2), "ZxZ2": (None, 2)}


class GroupDescription(_Record):
    """A mapping class group answer: tag plus named generators.

    cont0_trivial is set on contact results and records that the subgroup
    of classes smoothly isotopic to the identity is trivial.
    """

    __slots__ = ("tag", "generators", "cont0_trivial")

    def __init__(
        self, tag: str, generators: tuple[str, ...] = (), cont0_trivial: bool | None = None
    ):
        if tag not in _TAGS:
            raise ValueError(f"unknown group tag {tag!r}")
        if len(generators) != _TAGS[tag][1]:
            raise ValueError(f"{tag} needs {_TAGS[tag][1]} generators")
        _set(self, "tag", tag)
        _set(self, "generators", generators)
        _set(self, "cont0_trivial", cont0_trivial)

    @property
    def order(self) -> int | None:
        """Group order; None for the infinite group."""
        return _TAGS[self.tag][0]


_TRIVIAL = GroupDescription("trivial")
_SIGMA = GroupDescription("Z2", ("sigma",))
_TAU = GroupDescription("Z2", ("tau",))
_SIGMA_TAU = GroupDescription("Z2xZ2", ("sigma", "tau"))
_CONTACT_TRIVIAL = GroupDescription("trivial", cont0_trivial=True)
_CONTACT_SIGMA = GroupDescription("Z2", ("sigma",), cont0_trivial=True)
# One row per case of the main theorem, in _case's order: the smooth, contact,
# rel-torus and kernel groups, and how many of ORIENTED_KNOTS are distinct.
_Row = namedtuple("_Row", "smooth contact rel_torus kernel unknots")
_TABLE = (
    _Row(_TRIVIAL, _CONTACT_TRIVIAL, _SIGMA_TAU, _SIGMA_TAU, 1),  # p = 2
    _Row(_SIGMA, _CONTACT_SIGMA, _SIGMA_TAU, GroupDescription("Z2", ("sigma*tau",)), 2),  # q = -1
    _Row(_TAU, _CONTACT_TRIVIAL, _SIGMA_TAU, _SIGMA, 2),  # q = 1
    _Row(_SIGMA_TAU, _CONTACT_SIGMA, _SIGMA_TAU, _TRIVIAL, 4),  # q^2 = 1
    _Row(_TAU, _CONTACT_TRIVIAL, _TAU, _TRIVIAL, 4),  # generic
)


def _case(p: int, q: int) -> _Row:
    # The tuple is built in full, so q_is_minus_one validates the pair even for p = 2.
    tests = (p == 2, q_is_minus_one(p, q), q == 1, (q * q) % p == 1, True)
    return _TABLE[tests.index(True)]


def smooth_mcg(p: int, q: int) -> GroupDescription:
    """Mapping class group of L(p,q) (orientation preserving)."""
    return _case(p, q).smooth


def contact_mcg(p: int, q: int) -> GroupDescription:
    """Contact mapping class group of the standard structure on L(p,q)."""
    return _case(p, q).contact


def contact_mcg_rel_torus(p: int, q: int) -> GroupDescription:
    """Smooth mapping class group of L(p,q) relative to a Heegaard torus."""
    return _case(p, q).rel_torus


def inclusion_kernel(p: int, q: int) -> GroupDescription:
    """Kernel of the map from the rel-torus group to the full mapping class
    group induced by inclusion."""
    return _case(p, q).kernel


def inclusion_is_iso(p: int, q: int) -> bool:
    """Whether contact and smooth mapping class groups agree under the
    natural inclusion: exactly when q = -1 mod p."""
    return q_is_minus_one(p, q)


def unknot_classes(p: int, q: int) -> list[str]:
    """Oriented rational unknots in L(p,q) up to smooth isotopy."""
    return list(ORIENTED_KNOTS[: _case(p, q).unknots])


def contact_mcg_s1s2() -> GroupDescription:
    """Contact mapping class group of the standard S^1 x S^2."""
    return GroupDescription("ZxZ2", ("delta", "eta"), cont0_trivial=False)


def delta_action(rot: int, positive_core: bool = True) -> int:
    """Effect of the sphere Dehn twist on the rotation number of an
    oriented core of S^1 x S^2."""
    return rot + 1 if positive_core else rot - 1


def eta_action(rot: int) -> int:
    """The point reflection negates core rotation numbers."""
    return -rot
