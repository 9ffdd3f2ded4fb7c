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
beta of direction x^j fall into finitely many classes: the parameter along
alpha is the x^i component of the anchor difference in the chart
(x^i, x^j), shifted by an offset from a fixed finite subgroup of R/G
(coset_set below, the {0}/A3/A4 pattern, held as int pairs over 6).  A class
is held by the Z[x] key of its point rather than by its parameter mod G;
both identify the same classes, because Z[x] meets R*x^i in G*x^i.
build_tables makes one pass per ordered pair of directions (i, j): it images
each representative of the two directions once under the pair's chart,
carried through x^i, gets each crossing as a sum of two images, and adds the
offsets, scaled to n and multiplied by x^i ahead of time, to land on the
keys.  Multiplicities come from which directions claim one key on a
representative, and the global count from the keys the representatives
share.  A global class is held only as the bitmask of its incident orbits
and the number of claims on it, which is all that L0, e and the checks
need; the sorted list of decoded classes (IntersectionTables.points) is
built from them only when it is read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import XPOW, PlanePoint, _chart, decode, decompose, xscale
from .lineorbits import LineOrbitSet

#: Multiplicity range for 0-singularities: at least two lines cross, at most
#: one per direction.
P_MIN, P_MAX = 2, 6

#: Modulus of the coset_set offsets, which lie in (1/6)G.
OFFSET_MODULUS = 6

#: A class claim on a representative is one int: bit j for each direction
#: x^j that claims the class, and bit 6 + b for each claiming orbit b.
_DIRECTION_BITS = (1 << 6) - 1


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

    One pass per ordered pair of directions (i, j) finds, for every
    representative alpha of direction i, the classes where translates of the
    orbits of direction j cross it (_claim_crossings).  Each class is held
    by its Z[x] key, which identifies the classes of alpha exactly as their
    parameters mod G do, with the directions and orbits that claim it;
    distinct orbits of one direction always claim disjoint classes (their
    offset cosets differ), which the code verifies rather than assumes.
    Each global class must then be claimed exactly once per incident orbit,
    with one line set — that is the double-counting identity
    L0 = sum_p (sum_alpha L0_p^alpha) / p in per-class form.  A global
    class is kept as [bitmask of its incident orbits, claim count]: every
    claimer is a member and claims once, so a count equal to p names the
    claimers too.  Every check runs here; the tables sort and decode the
    classes (points) only when they are read, and compute never reads them.
    All representatives share the modulus of their op, and, like every
    point of an op, have all entries divisible by 6; a point that does not
    lies off the op's lattice and is refused.
    """
    reps = [orbit.representative for orbit in orbits.orbits]
    n = reps[0].modulus if reps else OFFSET_MODULUS
    by_direction: list[list[int]] = [[] for _ in range(6)]
    for ia, line in enumerate(reps):
        if line.modulus != n:
            raise ValueError(f"lines over the moduli {n} and {line.modulus}")
        if any(x % 6 for x in line.point):
            raise ValueError(f"the crossing kernel needs entries divisible by 6;"
                             f" orbit {ia} has the point {line.point}")
        by_direction[line.direction].append(ia)
    points = [line.point for line in reps]
    per_orbit: list = [None] * len(reps)
    # Z[x] key -> [bitmask of the incident orbits, how often it was claimed]
    global_incidence: dict[tuple[int, int, int, int], list[int]] = {}
    for i, alphas in enumerate(by_direction):
        # Each direction's classes are folded into global_incidence as soon
        # as its passes are done, so only one direction's keys are held.
        classes = {ia: {} for ia in alphas}
        for j, betas in enumerate(by_direction):
            if j != i and alphas and betas:
                _claim_crossings(points, n, alphas, betas, i, j, classes)
        for ia in alphas:
            # by_p[p] counts alpha's classes of multiplicity p; p is at most 7
            by_p = [0] * 8
            for key, claim in classes[ia].items():
                by_p[1 + (claim & _DIRECTION_BITS).bit_count()] += 1
                members = claim >> 6 | 1 << ia
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
                if count and not P_MIN <= p <= P_MAX:
                    raise ConsistencyError(f"crossing multiplicity {p} out of range")
            per_orbit[ia] = OrbitPointCount(ia, i, tuple(by_p[P_MIN:P_MAX + 1]))

    l0_by_p = [0] * (P_MAX - P_MIN + 1)
    for members, claims in global_incidence.values():
        p = members.bit_count()
        if claims != p:
            raise ConsistencyError(
                f"point class claimed {claims} times by {p} incident"
                " orbits; double counting broken"
            )
        l0_by_p[p - P_MIN] += 1

    for p in range(P_MIN, P_MAX + 1):
        on_lines = sum(entry.by_p[p - P_MIN] for entry in per_orbit)
        if on_lines != p * l0_by_p[p - P_MIN]:
            raise ConsistencyError(
                f"sum of per-line counts at p={p} is {on_lines},"
                f" not {p} * {l0_by_p[p - P_MIN]}"
            )

    l0 = len(global_incidence)
    return IntersectionTables(
        per_orbit=tuple(per_orbit),
        types=_group_types(per_orbit),
        L0_by_p=tuple(l0_by_p),
        L0=l0,
        e=-l0 + sum(entry.total for entry in per_orbit),
        incidence=global_incidence,
        modulus=n,
    )


def _claim_crossings(points, n: int, alphas, betas, i: int, j: int, classes) -> None:
    """Claim the crossings of the direction-j orbits betas on the direction-i
    representatives alphas, into classes[alpha]: Z[x] key -> claim bits.
    points holds each representative's int point over n.

    A translate of beta crosses alpha at sqrt(3)*alpha.anchor + lam*x^i,
    where lam is the x^i component of the scaled anchor difference in the
    chart (x^i, x^j), plus an offset from coset_set(j - i).  The chart is
    linear, so each point is imaged once (_pair_chart) and the crossing of
    alpha and beta is a sum of their images, divided by the chart's divisor
    k.  The division is exact: k is 1, 2 or 3, and build_tables has checked
    that 6 divides every entry of every point.
    Each offset then costs four adds and four `% n` and lands on the key.
    Keying alpha's classes by the Z[x] key instead of by lam mod G loses
    nothing: lam -> key is injective mod G, because Z[x] meets R*x^i in
    G*x^i.
    """
    alpha_side, beta_side, k, steps = _pair_chart(i, j)
    step = n // OFFSET_MODULUS
    offsets = [(s0 * step % n, s1 * step % n, s2 * step % n, s3 * step % n)
               for s0, s1, s2, s3 in steps]
    crossers = [(1 << j | 1 << 6 + ib, _apply(beta_side, points[ib])) for ib in betas]
    for ia in alphas:
        a0, a1, a2, a3 = _apply(alpha_side, points[ia])
        claims = classes[ia]
        for bits, (b0, b1, b2, b3) in crossers:
            u0, u1, u2, u3 = (a0 + b0) // k, (a1 + b1) // k, (a2 + b2) // k, (a3 + b3) // k
            for o0, o1, o2, o3 in offsets:
                key = ((u0 + o0) % n, (u1 + o1) % n, (u2 + o2) % n, (u3 + o3) % n)
                claim = claims.get(key, 0)
                if claim & bits & _DIRECTION_BITS:
                    raise ConsistencyError(
                        "two orbits of one direction claim the same point class;"
                        " two representatives lie in one orbit"
                    )
                claims[key] = claim | bits


@lru_cache(maxsize=None)
def _pair_chart(i: int, j: int):
    """The chart of (x^i, x^j) composed for _claim_crossings.

    With rows, k = _chart(i, j), the first two rows give k*c_i of a point
    t = c_i*x^i + c_j*x^j.  Returns the 4x4 int matrices `alpha_side` of
    t -> k*t - k*c_i*x^i and `beta_side` of t -> k*c_i*x^i, k, and the
    coset_set(j - i) offsets times x^i, over OFFSET_MODULUS.  For lines alpha
    and beta, (alpha_side.alpha + beta_side.beta) / k = alpha + lam*x^i with
    lam the c_i of beta - alpha.
    """
    rows, k = _chart(i, j)
    columns = [xscale(i, rows[0][c], rows[1][c]) for c in range(4)]
    beta_side = tuple(tuple(col[r] for col in columns) for r in range(4))
    alpha_side = tuple(tuple(k * (r == c) - beta_side[r][c] for c in range(4))
                       for r in range(4))
    steps = tuple(xscale(i, p, q) for p, q in coset_set((j - i) % 6).offsets)
    return alpha_side, beta_side, k, steps


def _apply(matrix, point) -> list[int]:
    """The int matrix applied to the int point."""
    a, b, c, d = point
    return [r0 * a + r1 * b + r2 * c + r3 * d for r0, r1, r2, r3 in matrix]


def _group_types(per_orbit) -> tuple[LineType, ...]:
    groups: dict[tuple, dict] = {}
    for entry in per_orbit:
        group = groups.setdefault(entry.by_p, {"n": 0, "parities": set()})
        group["n"] += 1
        group["parities"].add("e" if entry.direction % 2 == 0 else "o")
    rows = []
    for by_p, group in groups.items():
        parity = ",".join(sorted(group["parities"]))
        rows.append(LineType(by_p, group["n"], parity))
    rows.sort(key=lambda row: (-row.total, row.parity, row.by_p))
    return tuple(rows)
