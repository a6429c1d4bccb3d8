"""Case tables for the smooth and contact mapping class groups of lens
spaces and S^1 x S^2, and the related rational unknot counts.

All answers are finite (or Z + finite) groups given by a tag and named
generators: sigma swaps the two Heegaard solid tori (it exists when
q^2 = 1 mod p), tau is complex conjugation, delta is the sphere Dehn twist
and eta the point reflection on S^1 x S^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .slopes import q_is_minus_one, require_lens_pair

_ORDERS = {"trivial": 1, "Z2": 2, "Z2xZ2": 4, "ZxZ2": None}


@dataclass(frozen=True)
class GroupDescription:
    """A mapping class group answer: tag plus named generators.

    cont0_trivial is set on contact results and records that the subgroup
    of classes smoothly isotopic to the identity is trivial.
    """

    tag: str
    generators: tuple[str, ...] = ()
    cont0_trivial: bool | None = None

    def __post_init__(self):
        expected = {"trivial": 0, "Z2": 1, "Z2xZ2": 2, "ZxZ2": 2}
        if self.tag not in expected:
            raise ValueError(f"unknown group tag {self.tag!r}")
        if len(self.generators) != expected[self.tag]:
            raise ValueError(f"{self.tag} needs {expected[self.tag]} generators")

    @property
    def order(self) -> int | None:
        """Group order; None for the infinite group."""
        return _ORDERS[self.tag]


def smooth_mcg(p: int, q: int) -> GroupDescription:
    """Mapping class group of L(p,q) (orientation preserving)."""
    require_lens_pair(p, q)
    if p == 2:
        return GroupDescription("trivial")
    if q == p - 1:
        return GroupDescription("Z2", ("sigma",))  # here sigma ~ tau
    if q == 1:
        return GroupDescription("Z2", ("tau",))
    if (q * q) % p == 1:
        return GroupDescription("Z2xZ2", ("sigma", "tau"))
    return GroupDescription("Z2", ("tau",))


def contact_mcg(p: int, q: int) -> GroupDescription:
    """Contact mapping class group of the standard structure on L(p,q)."""
    require_lens_pair(p, q)
    nontrivial = (p != 2 and q == p - 1) or (q not in (1, p - 1) and (q * q) % p == 1)
    if nontrivial:
        return GroupDescription("Z2", ("sigma",), cont0_trivial=True)
    return GroupDescription("trivial", (), cont0_trivial=True)


def contact_mcg_rel_torus(p: int, q: int) -> GroupDescription:
    """Smooth mapping class group of L(p,q) relative to a Heegaard torus."""
    require_lens_pair(p, q)
    if (q * q) % p == 1:
        return GroupDescription("Z2xZ2", ("sigma", "tau"))
    return GroupDescription("Z2", ("tau",))


def inclusion_kernel(p: int, q: int) -> GroupDescription:
    """Kernel of the map from the rel-torus group to the full mapping class
    group induced by inclusion."""
    require_lens_pair(p, q)
    if p == 2:
        return GroupDescription("Z2xZ2", ("sigma", "tau"))
    if q == p - 1:
        return GroupDescription("Z2", ("sigma*tau",))
    if q == 1:
        return GroupDescription("Z2", ("sigma",))
    return GroupDescription("trivial")


def inclusion_is_iso(p: int, q: int) -> bool:
    """Whether contact and smooth mapping class groups agree under the
    natural inclusion: exactly when q = -1 mod p."""
    return q_is_minus_one(p, q)


def unknot_classes(p: int, q: int) -> list[str]:
    """Oriented rational unknots in L(p,q) up to smooth isotopy."""
    require_lens_pair(p, q)
    if p == 2:
        return ["k1"]
    if q in (1, p - 1):
        return ["k1", "-k1"]
    return ["k1", "-k1", "k2", "-k2"]


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
