"""Candidate singular lines for a shift parameter and their orbit structure.

A line is held as the int point sqrt(3)*anchor over the modulus of its op
(see cyclotomic).  Within a fixed direction x^i two lines are compared by the
(1, x)-determinant of x^i and their scaled anchor difference, which is plus
or minus twice its x^(i+3) component: only the perpendicular offset matters.  same_orbit
quotients by the projected total lattice (1/sqrt 3)Z[x], the translation
group that the orbit counts L1 refer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclotomic import PlanePoint, cross, decode, encode, modulus, scalar, times_sqrt3, xscale, XPOW
from .exactfield import QuadRat


@dataclass(frozen=True)
class GammaParam:
    g1: QuadRat
    g2: QuadRat

    def __post_init__(self):
        for g in (self.g1, self.g2):
            if g.sign() < 0 or (QuadRat(1) - g).sign() <= 0:
                raise ValueError(f"component {g} not reduced into [0,1)")

    def pair(self):
        return (self.g1, self.g2)


def reduce_gamma(raw) -> GammaParam:
    g1, g2 = raw
    return GammaParam(g1 - QuadRat(g1.floor()), g2 - QuadRat(g2.floor()))


class SingularLine:
    """The line anchor + R*x^direction, for a direction in 0..5.

    Held as `point`, the int point sqrt(3)*anchor over `modulus`; `anchor`
    is decoded on first use.  Two lines are equal when their directions and
    anchors are, whatever their moduli.
    """

    __slots__ = ("direction", "point", "modulus", "_anchor")

    def __init__(self, direction: int, anchor: PlanePoint) -> None:
        n = modulus(anchor.u, anchor.v)
        self.direction = direction
        self.point = times_sqrt3(encode(anchor, n))
        self.modulus = n
        self._anchor = anchor

    @classmethod
    def from_point(cls, direction: int, point, n: int) -> "SingularLine":
        """The line whose scaled anchor is the int point `point` over n."""
        line = cls.__new__(cls)
        line.direction, line.point, line.modulus, line._anchor = direction, point, n, None
        return line

    @property
    def anchor(self) -> PlanePoint:
        if self._anchor is None:
            self._anchor = decode(times_sqrt3(self.point), 3 * self.modulus)
        return self._anchor

    def over(self, n: int) -> "SingularLine":
        """The same line over n, a multiple of its modulus."""
        if n == self.modulus:
            return self
        factor = n // self.modulus
        line = SingularLine.from_point(self.direction, tuple(c * factor for c in self.point), n)
        line._anchor = self._anchor
        return line

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SingularLine):
            return NotImplemented
        if self.direction != other.direction:
            return False
        if self.modulus == other.modulus:
            return self.point == other.point
        return self.anchor == other.anchor

    def __hash__(self) -> int:
        return hash((self.direction, self.anchor))

    def __repr__(self) -> str:
        return f"SingularLine({self.direction}, {self.anchor})"


def common_modulus(lines) -> list[SingularLine]:
    """The lines over the lcm of their moduli."""
    n = lcm(*(line.modulus for line in lines))
    return [line.over(n) for line in lines]


def candidate_lines(gamma: GammaParam):
    """The 24 closed-form anchors that can carry singular lines.

    The anchors are (x^lead*g + x^(i+1)*h)/sqrt 3 and their negatives, with
    (g, h) = (g1, g2) in the even directions and (g2, g1) in the odd ones;
    the lines hold them scaled by sqrt 3, over the modulus 6*D of gamma, D
    the lcm of its four denominators.  Coincident duplicates (possible when
    a component of gamma vanishes) are kept; the orbit partition absorbs
    them.
    """
    n = modulus(gamma.g1, gamma.g2)
    g1, g2 = scalar(gamma.g1, n), scalar(gamma.g2, n)
    out = []
    for i in (0, 2, 4, 1, 3, 5):
        g, h = (g1, g2) if i % 2 == 0 else (g2, g1)
        side = xscale(i + 1, *h)
        for lead in ((i, i + 2) if i % 2 == 0 else (i + 4, i + 6)):
            lead_term = xscale(lead, *g)
            point = tuple(a + b for a, b in zip(lead_term, side))
            out.append(SingularLine.from_point(i, point, n))
            out.append(SingularLine.from_point(i, tuple(-c for c in point), n))
    return out


def same_orbit(l1, l2) -> bool:
    """Equivalence modulo the projected total lattice (1/sqrt 3)Z[x].

    sqrt(3) times the x^(i+3) component of the anchor difference must lie in
    (1/2)G; on the scaled anchors that is cross(x^i, difference) in G.
    """
    i = l1.direction % 6
    if l2.direction % 6 != i:
        raise ValueError(
            f"cannot compare lines of directions {l1.direction} and {l2.direction}"
        )
    if l1.modulus != l2.modulus:
        l1, l2 = common_modulus((l1, l2))
    n = l1.modulus
    diff = tuple(b - a for a, b in zip(l1.point, l2.point))
    p, q = cross(XPOW[i], diff)
    return p % n == 0 and q % n == 0


@dataclass(frozen=True)
class LineOrbit:
    representative: object  # any line-like object (.direction, .anchor)
    members: tuple

    @property
    def direction(self):
        return self.representative.direction % 6


@dataclass(frozen=True)
class LineOrbitSet:
    orbits: tuple

    @property
    def L1(self):
        return len(self.orbits)

    def per_direction(self):
        counts = {i: 0 for i in range(6)}
        for orbit in self.orbits:
            counts[orbit.direction] += 1
        return counts

    def orbits_for(self, direction):
        return tuple(o for o in self.orbits if o.direction == direction % 6)


def orbit_partition(lines, test=same_orbit) -> LineOrbitSet:
    """Group parallel lines into equivalence classes under the given test.

    Membership is decided against class representatives, which is sound
    because same_orbit is transitive (the test suite audits this)."""
    classes = []
    for line in lines:
        for cls in classes:
            rep = cls[0]
            if rep.direction % 6 == line.direction % 6 and test(rep, line):
                cls.append(line)
                break
        else:
            classes.append([line])
    orbits = tuple(LineOrbit(cls[0], tuple(cls)) for cls in classes)
    return LineOrbitSet(orbits)
