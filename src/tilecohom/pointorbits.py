"""Orbits of 0-singularities: where the singular lines cross.

Line orbits are equivalence classes modulo DELTA0 = (1/sqrt 3)Z[x].  The
point counts are computed in rescaled coordinates: multiplication by sqrt 3
is a bijection of the plane carrying DELTA0 onto the ring Z[x], lines onto
lines and intersections onto intersections.  In the rescaled picture two
points of one line are equivalent exactly when their parameters differ by an
element of G, and two points anywhere in the plane exactly when both
{1, x}-coordinates differ by elements of G, because Z[x] = G + G*x and
Z[x] meets every direction line R*x^k in G*x^k.

Every line already holds its rescaled anchor as an int point over the
modulus n of its op (see cyclotomic), so the whole stage is int arithmetic:
a point is an int 4-tuple over n, and reduction mod Z[x] is `% n` on every
entry.  QuadRat appears only when a class key is decoded for display
(GlobalClass.canon).

The crossings of a line alpha of direction x^i with all translates of a line
beta of direction x^j fall into finitely many classes: one crossing point
plus offsets along x^i from a fixed finite subgroup of R/G (coset_set below,
the {0}/A3/A4 pattern, held as int pairs over 6).  A class is held by the
Z[x] key of its point.  build_tables claims the keys in one pass per ordered
pair of directions; a global class is held only as the bitmask of its
incident orbits and the number of claims on it, which is all that L0, e and
the checks need, and the sorted list of decoded classes
(IntersectionTables.points) is built from them only when it is read.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import XPOW, PlanePoint, cross, decode, decompose, xscale
from .lineorbits import LineOrbitSet

#: Multiplicity range for 0-singularities: at least two lines cross, at most
#: one per direction.
P_MIN, P_MAX = 2, 6

#: Modulus of the coset_set offsets, which lie in (1/6)G.
OFFSET_MODULUS = 6


class ConsistencyError(RuntimeError):
    """An internal identity failed; signals an orbit-equivalence bug."""


class CosetSet(NamedTuple):
    """The translate offsets mod G seen along x^i in the basis (x^i, x^(i+d)),
    as int pairs over OFFSET_MODULUS in [0, OFFSET_MODULUS)."""

    index: int
    offsets: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def coset_set(d: int) -> CosetSet:
    """Close the first components of the Z[x] generators 1, x, x^2, x^3 mod G.

    The result is a subgroup of R/G: one class for d in {1, 5}, the three
    classes A3 for d in {2, 4}, the four classes A4 for d = 3.
    """
    if d not in (1, 2, 3, 4, 5):
        raise ValueError(f"basis offset {d} out of range 1..5")
    n = OFFSET_MODULUS
    gens = [decompose(tuple(n * c for c in XPOW[k]), 0, d)[:2] for k in range(4)]
    classes = {(0, 0)}
    frontier = list(classes)
    while frontier:
        if len(classes) > 12:
            raise ConsistencyError("coset closure exceeded the A4 bound")
        bp, bq = frontier.pop()
        for gp, gq in gens:
            for sign in (1, -1):
                nxt = ((bp + sign * gp) % n, (bq + sign * gq) % n)
                if nxt not in classes:
                    classes.add(nxt)
                    frontier.append(nxt)
    return CosetSet(d, tuple(sorted(classes)))


class GlobalClass(NamedTuple):
    """One orbit of 0-singularities, keyed by its Z[x]-coset over a modulus."""

    key: tuple[int, int, int, int]
    modulus: int
    p: int
    incident_orbits: tuple[int, ...]

    @property
    def canon(self) -> PlanePoint:
        """The canonical coset representative, with coordinates in [0, 1)."""
        return decode(self.key, self.modulus)


class OrbitPointCount(NamedTuple):
    """L0^alpha for one line orbit, split by crossing multiplicity."""

    orbit: int
    direction: int
    by_p: tuple[int, int, int, int, int]  # p = 2..6

    @property
    def total(self) -> int:
        return sum(self.by_p)


class LineType(NamedTuple):
    """Orbits sharing one multiplicity profile, as one table row."""

    by_p: tuple[int, int, int, int, int]
    n: int
    parity: str  # "e", "o" or "e,o"

    @property
    def total(self) -> int:
        return sum(self.by_p)


class IntersectionTables(NamedTuple):
    """The counts of build_tables, with the global classes held undecoded.

    incidence maps each class's Z[x] key over modulus to [bitmask of the
    incident orbits, claim count]; build_tables has checked that every count
    equals its class's p.  The repr leaves incidence out.
    """

    per_orbit: tuple[OrbitPointCount, ...]
    types: tuple[LineType, ...]
    L0_by_p: tuple[int, int, int, int, int]
    L0: int
    e: int
    incidence: dict[tuple[int, int, int, int], list[int]]
    modulus: int

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self)
                          if name != "incidence")
        return f"IntersectionTables({shown})"

    @property
    def sum_L0alpha(self) -> int:
        return sum(entry.total for entry in self.per_orbit)

    @property
    def points(self) -> tuple[GlobalClass, ...]:
        """The global classes in key order, decoded on each read."""
        classes = []
        for key, (members, _) in sorted(self.incidence.items()):
            orbits = tuple(b for b in range(members.bit_length()) if members >> b & 1)
            classes.append(GlobalClass(key, self.modulus, len(orbits), orbits))
        return tuple(classes)


def build_tables(orbits: LineOrbitSet) -> IntersectionTables:
    """Count point orbits per line orbit and globally, with consistency checks.

    One pass per ordered pair of directions (i, j) claims, on every
    representative alpha of direction i, the Z[x] keys of the classes where
    translates of the orbits of direction j cross it (_claim_crossings).
    Distinct orbits of one direction always claim disjoint classes (their
    offset cosets differ), which the code verifies rather than assumes.
    Each global class must then be claimed exactly once per incident orbit,
    with one line set — that is the double-counting identity
    L0 = sum_p (sum_alpha L0_p^alpha) / p in per-class form, which is also
    checked summed.  All representatives share the modulus of their op,
    and, like every point of an op, have all entries divisible by 6; a point
    that does not lies off the op's lattice and is refused.
    """
    reps = [orbit.representative for orbit in orbits.orbits]
    n = reps[0].modulus if reps else OFFSET_MODULUS
    by_direction: list[list[int]] = [[] for _ in range(6)]
    # the line is every z with cross(x^i, z) = its scalar cross(x^i, point)
    scalars = []
    for ia, line in enumerate(reps):
        if line.modulus != n:
            raise ValueError(f"lines over the moduli {n} and {line.modulus}")
        if any(x % 6 for x in line.point):
            raise ValueError(f"the crossing kernel needs entries divisible by 6;"
                             f" orbit {ia} has the point {line.point}")
        by_direction[line.direction].append(ia)
        scalars.append(cross(XPOW[line.direction], line.point))
    per_orbit: list = [None] * len(reps)
    # sum over the orbits of L0_p^alpha, indexed by p
    on_lines = [0] * 8
    # Z[x] key -> [bitmask of the incident orbits, how often it was claimed]
    global_incidence: dict[tuple[int, int, int, int], list[int]] = {}
    for i, alphas in enumerate(by_direction):
        # Each direction's classes are folded into global_incidence as soon
        # as its passes are done, so only one direction's keys are held.
        classes = {ia: {} for ia in alphas}
        for j, betas in enumerate(by_direction):
            if j != i and alphas and betas:
                _claim_crossings(scalars, n, alphas, betas, i, j, classes)
        for ia in alphas:
            # by_p[p] counts alpha's classes with p incident orbits, one per direction
            by_p = [0] * 8
            own = 1 << ia
            for key, claim in classes[ia].items():
                members = claim >> 6 | own
                by_p[members.bit_count()] += 1
                entry = global_incidence.get(key)
                if entry is None:
                    global_incidence[key] = [members, 1]
                elif entry[0] != members:
                    raise ConsistencyError(
                        "one point class reached with two different line sets"
                    )
                else:
                    entry[1] += 1
            for p, count in enumerate(by_p):
                if count:
                    if not P_MIN <= p <= P_MAX:
                        raise ConsistencyError(f"crossing multiplicity {p} out of range")
                    on_lines[p] += count
            per_orbit[ia] = OrbitPointCount(ia, i, tuple(by_p[P_MIN:P_MAX + 1]))

    l0_by_p = [0] * 8
    for members, claims in global_incidence.values():
        p = members.bit_count()
        if claims != p:
            raise ConsistencyError(
                f"point class claimed {claims} times by {p} incident"
                " orbits; double counting broken"
            )
        l0_by_p[p] += 1

    for p in range(P_MIN, P_MAX + 1):
        if on_lines[p] != p * l0_by_p[p]:
            raise ConsistencyError(
                f"sum of per-line counts at p={p} is {on_lines[p]},"
                f" not {p} * {l0_by_p[p]}"
            )

    l0 = len(global_incidence)
    return IntersectionTables(
        per_orbit=tuple(per_orbit),
        types=_group_types(per_orbit),
        L0_by_p=tuple(l0_by_p[P_MIN:P_MAX + 1]),
        L0=l0,
        e=sum(on_lines) - l0,
        incidence=global_incidence,
        modulus=n,
    )


def _claim_crossings(scalars, n: int, alphas, betas, i: int, j: int, classes) -> None:
    """Claim the crossings of the direction-j orbits betas on the direction-i
    representatives alphas, into classes[alpha]: Z[x] key -> claim, with bit
    j for each claiming direction x^j and bit 6 + b for each claiming orbit b.

    Lines alpha and beta with scalars s_a, s_b (scalars, over n) cross at
    (alpha_side.s_a + beta_side.s_b)/k (_pair_chart).  6 divides every
    scalar, since build_tables has checked every point, so k divides them
    and each line is imaged once per pass.  The translates of beta cross
    alpha at that point plus an offset along x^i from coset_set(j - i).
    Keying alpha's classes by the Z[x] key instead of by the parameter along
    alpha mod G loses nothing, because Z[x] meets R*x^i in G*x^i.
    """
    alpha_side, beta_side, k, steps = _pair_chart(i, j)
    step = n // OFFSET_MODULUS
    offsets = [(s0 * step, s1 * step, s2 * step, s3 * step) for s0, s1, s2, s3 in steps]
    (r0p, r0q), (r1p, r1q), (r2p, r2q), (r3p, r3q) = beta_side
    crossers = []
    for ib in betas:
        p, q = scalars[ib]
        p //= k
        q //= k
        crossers.append((1 << j | 1 << 6 + ib,
                         r0p * p + r0q * q, r1p * p + r1q * q, r2p * p + r2q * q, r3p * p + r3q * q))
    (r0p, r0q), (r1p, r1q), (r2p, r2q), (r3p, r3q) = alpha_side
    for ia in alphas:
        p, q = scalars[ia]
        p //= k
        q //= k
        a0, a1, a2, a3 = r0p * p + r0q * q, r1p * p + r1q * q, r2p * p + r2q * q, r3p * p + r3q * q
        claims = classes[ia]
        for bits, b0, b1, b2, b3 in crossers:
            u0, u1, u2, u3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3
            for o0, o1, o2, o3 in offsets:
                key = ((u0 + o0) % n, (u1 + o1) % n, (u2 + o2) % n, (u3 + o3) % n)
                claim = claims.get(key, 0)
                if claim & bits:
                    raise ConsistencyError(
                        "two orbits of one direction claim the same point class;"
                        " two representatives lie in one orbit"
                    )
                claims[key] = claim | bits


@lru_cache(maxsize=None)
def _pair_chart(i: int, j: int):
    """Lines of directions x^i and x^j with scalars s_a and s_b cross at
    (s_a*x^j - s_b*x^i)/det, det = cross(x^i, x^j).  Returns the int 4x2
    matrices alpha_side of s -> k*s*x^j/det and beta_side of
    s -> -k*s*x^i/det, the least such k > 0, and the coset_set(j - i)
    offsets times x^i over OFFSET_MODULUS, reduced into [0, OFFSET_MODULUS).
    """
    dp, dq = cross(XPOW[i], XPOW[j])
    norm = dp * dp - 3 * dq * dq
    # s/det = s*conj(det)*norm/norm^2; the columns image s = 1 and s = sqrt 3
    cp, cq = dp * norm, -dq * norm
    sides = [(xscale(k, cp, cq), xscale(k, 3 * cq, cp)) for k in (j, i + 6)]
    g = gcd(norm * norm, *(x for side in sides for col in side for x in col))
    alpha_side, beta_side = (tuple((a // g, b // g) for a, b in zip(*side)) for side in sides)
    steps = tuple(tuple(x % OFFSET_MODULUS for x in xscale(i, p, q))
                  for p, q in coset_set((j - i) % 6).offsets)
    return alpha_side, beta_side, norm * norm // g, steps


def _group_types(per_orbit) -> tuple[LineType, ...]:
    groups: dict[tuple, list[str]] = {}
    for entry in per_orbit:
        groups.setdefault(entry.by_p, []).append("eo"[entry.direction % 2])
    rows = [LineType(by_p, len(parities), ",".join(sorted(set(parities))))
            for by_p, parities in groups.items()]
    rows.sort(key=lambda row: (-row.total, row.parity, row.by_p))
    return tuple(rows)
