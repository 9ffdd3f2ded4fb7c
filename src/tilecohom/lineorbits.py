"""Candidate singular lines for a shift parameter and their orbit structure.

Lines are compared within a fixed direction x^i by decomposing anchor
differences in the basis (x^i, x^{i+3}); only the perpendicular component
matters.  same_orbit quotients by the projected total lattice
(1/sqrt 3)Z[x], the translation group that the orbit counts L1 refer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import PlanePoint, TransLattice, decompose, lattice_contains, pt_scale_mul, xpow
from .exactfield import INV_SQRT3, LatticeId, QuadRat, SQRT3, lattice_member

# orbit counts attainable by the candidate partition
L1_VALUES = frozenset({6, 9, 12, 15, 18, 21, 24})


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


@dataclass(frozen=True)
class SingularLine:
    direction: int  # 0..5
    anchor: PlanePoint


def candidate_lines(gamma: GammaParam):
    """The 24 closed-form anchors that can carry singular lines.

    Coincident duplicates (possible when a component of gamma vanishes) are
    kept; the orbit partition absorbs them.
    """
    c1 = gamma.g1 * INV_SQRT3
    c2 = gamma.g2 * INV_SQRT3
    out = []
    for i in (0, 2, 4):
        side = pt_scale_mul(xpow(i + 1), c2)
        for lead in (i, i + 2):
            anchor = pt_scale_mul(xpow(lead), c1) + side
            out.append(SingularLine(i, anchor))
            out.append(SingularLine(i, -anchor))
    for i in (1, 3, 5):
        side = pt_scale_mul(xpow(i + 1), c1)
        for lead in (i + 4, i + 6):
            anchor = pt_scale_mul(xpow(lead), c2) + side
            out.append(SingularLine(i, anchor))
            out.append(SingularLine(i, -anchor))
    return out


def perp_component(l1, l2) -> QuadRat:
    """Coefficient of x^(i+3) in the anchor difference of two parallel lines."""
    if l1.direction % 6 != l2.direction % 6:
        raise ValueError(
            f"cannot compare lines of directions {l1.direction} and {l2.direction}"
        )
    i = l1.direction % 6
    _, c_p = decompose(l2.anchor - l1.anchor, i, (i + 3) % 6)
    return c_p


def same_orbit(l1, l2) -> bool:
    """Equivalence modulo the projected total lattice (1/sqrt 3)Z[x]."""
    return lattice_member(SQRT3 * perp_component(l1, l2), LatticeId.HALF_G)


def orbit_witness(l1, l2) -> PlanePoint:
    """A translation t in (1/sqrt 3)Z[x] with l2.anchor - l1.anchor - t
    parallel to the common direction.  Only exists when same_orbit holds."""
    if not same_orbit(l1, l2):
        raise ValueError("lines are in different orbits")
    i = l1.direction % 6
    c_p = perp_component(l1, l2)
    w = SQRT3 * c_p * 2  # in G by the membership test
    mu = QuadRat(Fraction(w.p, 2), Fraction(w.q, 6))
    t = pt_scale_mul(xpow(i), mu) + pt_scale_mul(xpow((i + 3) % 6), c_p)
    if not lattice_contains(t, TransLattice.DELTA0):
        raise AssertionError("witness fell outside the lattice")
    return t


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
