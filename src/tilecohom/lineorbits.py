"""Candidate singular lines for a shift parameter and their orbit structure.

A line is held as the int point sqrt(3)*anchor over the modulus of its op
(see cyclotomic).  Within a fixed direction x^i two lines are compared by the
(1, x)-determinant of x^i and their scaled anchor difference, which is plus
or minus twice its x^(i+3) component: only the perpendicular offset matters.  same_orbit
quotients by the projected total lattice (1/sqrt 3)Z[x], the translation
group that the orbit counts L1 refer to; the determinant is linear, so
orbit_key names each orbit.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import PlanePoint, cross, decode, modulus, qsign, scalar, times_sqrt3, xscale, XPOW
from .exactfield import QuadRat


class _GammaFields(NamedTuple):
    g1: QuadRat
    g2: QuadRat


class GammaParam(_GammaFields):
    """A shift gamma with both components reduced into [0, 1)."""

    __slots__ = ()

    # A NamedTuple body may not define __new__, so the check lives on this
    # subclass of the field tuple.
    def __new__(cls, g1: QuadRat, g2: QuadRat):
        for g in (g1, g2):
            # 0 <= g < 1 decided on the int pair (p, q) of g over n
            n = modulus(g)
            p, q = scalar(g, n)
            if qsign(p, q) < 0 or qsign(n - p, -q) <= 0:
                raise ValueError(f"component {g} not reduced into [0,1)")
        return super().__new__(cls, g1, g2)

    def pair(self):
        return (self.g1, self.g2)


def reduce_gamma(raw) -> GammaParam:
    g1, g2 = raw
    return GammaParam(g1 - QuadRat(g1.floor()), g2 - QuadRat(g2.floor()))


class SingularLine(NamedTuple):
    """The line anchor + R*x^direction, for a direction in 0..5.

    Held as `point`, the int point sqrt(3)*anchor over `modulus`, the
    modulus of its op; `anchor` decodes it.
    """

    direction: int
    point: tuple[int, int, int, int]
    modulus: int

    @property
    def anchor(self) -> PlanePoint:
        return decode(times_sqrt3(self.point), 3 * self.modulus)


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
    # tuple.__new__ skips the argument-binding frame of the generated
    # NamedTuple constructor, which makes a record cost more than a tuple
    new = tuple.__new__
    out = []
    for i in (0, 2, 4, 1, 3, 5):
        g, h = (g1, g2) if i % 2 == 0 else (g2, g1)
        side = xscale(i + 1, *h)
        for lead in ((i, i + 2) if i % 2 == 0 else (i + 4, i + 6)):
            lead_term = xscale(lead, *g)
            point = tuple(a + b for a, b in zip(lead_term, side))
            out.append(new(SingularLine, (i, point, n)))
            out.append(new(SingularLine, (i, tuple(-c for c in point), n)))
    return out


def same_orbit(l1, l2) -> bool:
    """Equivalence modulo the projected total lattice (1/sqrt 3)Z[x].

    sqrt(3) times the x^(i+3) component of the anchor difference must lie in
    (1/2)G; on the scaled anchors that is cross(x^i, difference) in G.  Both
    lines must share one modulus.
    """
    i = l1.direction
    if l2.direction != i:
        raise ValueError(
            f"cannot compare lines of directions {l1.direction} and {l2.direction}"
        )
    n = l1.modulus
    if l2.modulus != n:
        raise ValueError(f"lines over the moduli {n} and {l2.modulus}")
    diff = tuple(b - a for a, b in zip(l1.point, l2.point))
    p, q = cross(XPOW[i], diff)
    return p % n == 0 and q % n == 0


def orbit_key(line) -> tuple[int, int, int]:
    """The direction i and cross(x^i, point) mod n: equal exactly for the
    lines that same_orbit puts in one orbit, since cross is linear."""
    i, n = line.direction, line.modulus
    p, q = cross(XPOW[i], line.point)
    return i, p % n, q % n


class LineOrbit(NamedTuple):
    representative: object  # any line-like object (.direction, .anchor)
    members: tuple

    @property
    def direction(self):
        return self.representative.direction


class LineOrbitSet(NamedTuple):
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
        return tuple(o for o in self.orbits if o.direction == direction)


def orbit_partition(lines, test=None) -> LineOrbitSet:
    """Group a list of lines into orbits in order of first appearance, each
    represented by its first member: one dict pass on orbit_key, all lines
    over one modulus, or a transitive pairwise test (such as same_orbit)
    against the class representatives."""
    if test is None:
        keyed: dict[tuple[int, int, int], list] = {}
        for line in lines:
            if line.modulus != lines[0].modulus:
                raise ValueError(f"lines over the moduli {lines[0].modulus} and {line.modulus}")
            keyed.setdefault(orbit_key(line), []).append(line)
        classes = keyed.values()
    else:
        classes = []
        for line in lines:
            for cls in classes:
                rep = cls[0]
                if rep.direction == line.direction and test(rep, line):
                    cls.append(line)
                    break
            else:
                classes.append([line])
    return LineOrbitSet(tuple(LineOrbit(cls[0], tuple(cls)) for cls in classes))
