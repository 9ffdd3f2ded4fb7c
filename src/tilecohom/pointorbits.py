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
a parameter is an int pair over n, a point an int 4-tuple, and reduction
mod G or mod Z[x] is `% n` on every entry.  The parameter is solved for by
one fixed int chart per pair of directions, and QuadRat appears only when a
class key is decoded for display (GlobalClass.canon).

The intersections of a fixed line with all translates of another then fall
into finitely many classes: the translate contributes an offset from a fixed
finite subgroup of R/G (coset_set below, the {0}/A3/A4 pattern, held as int
pairs over 6), shifted by the anchor difference.  Multiplicities come from
which directions claim the same class, and the global count from
identifying class representatives modulo Z[x].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cyclotomic import XPOW, PlanePoint, decode, decompose, xscale
from .lineorbits import LineOrbitSet, SingularLine

#: Multiplicity range for 0-singularities: at least two lines cross, at most
#: one per direction.
P_MIN, P_MAX = 2, 6

#: Modulus of the coset_set offsets, which lie in (1/6)G.
OFFSET_MODULUS = 6


class ConsistencyError(RuntimeError):
    """An internal identity failed; signals an orbit-equivalence bug."""


@dataclass(frozen=True)
class CosetSet:
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


def lambda_classes(alpha: SingularLine, beta: SingularLine) -> list[tuple[int, int]]:
    """Classes mod G of the parameters where translates of beta cross alpha.

    The crossing equation alpha.anchor + lam*x^i = beta.anchor + mu*x^j + t
    with t in Z[x], scaled by sqrt 3, is solved for lam in the basis
    (x^i, x^j): the scaled anchor difference contributes its first component,
    the translate one of the coset_set offsets.  Both lines must share one
    modulus n; the classes are int pairs over n in [0, n), sorted.
    """
    d = (beta.direction - alpha.direction) % 6
    if d == 0:
        raise ValueError(
            f"parallel directions x^{alpha.direction} and x^{beta.direction}"
            " never cross"
        )
    n = alpha.modulus
    if beta.modulus != n:
        raise ValueError(f"lines over the moduli {n} and {beta.modulus}")
    diff = tuple(b - a for a, b in zip(alpha.point, beta.point))
    p, q, _, _ = decompose(diff, alpha.direction, beta.direction)
    step = n // OFFSET_MODULUS
    return sorted(((p + op * step) % n, (q + oq * step) % n)
                  for op, oq in coset_set(d).offsets)


def global_key(alpha: SingularLine, lam: tuple[int, int]) -> tuple[int, int, int, int]:
    """Z[x]-coset key of the point at scaled parameter lam on alpha.

    The point is sqrt(3)*alpha.anchor + lam*x^i over alpha's modulus n;
    reducing each entry mod n is exactly reduction mod Z[x] = G + G*x, and
    the key does not depend on which class representative lam is because
    G*x^k is contained in Z[x].
    """
    n = alpha.modulus
    step = xscale(alpha.direction, *lam)
    return tuple((a + b) % n for a, b in zip(alpha.point, step))


@dataclass(frozen=True)
class GlobalClass:
    """One orbit of 0-singularities, keyed by its Z[x]-coset over a modulus."""

    key: tuple[int, int, int, int]
    modulus: int
    p: int
    incident_orbits: tuple[int, ...]

    @cached_property
    def canon(self) -> PlanePoint:
        """The canonical coset representative, with coordinates in [0, 1)."""
        return decode(self.key, self.modulus)


@dataclass(frozen=True)
class OrbitPointCount:
    """L0^alpha for one line orbit, split by crossing multiplicity."""

    orbit: int
    direction: int
    by_p: tuple[int, int, int, int, int]  # p = 2..6

    @property
    def total(self) -> int:
        return sum(self.by_p)


@dataclass(frozen=True)
class LineType:
    """Orbits sharing one multiplicity profile, as one table row."""

    by_p: tuple[int, int, int, int, int]
    n: int
    parity: str  # "e", "o" or "e,o"

    @property
    def total(self) -> int:
        return sum(self.by_p)


@dataclass(frozen=True)
class IntersectionTables:
    per_orbit: tuple[OrbitPointCount, ...]
    types: tuple[LineType, ...]
    points: tuple[GlobalClass, ...]
    L0_by_p: tuple[int, int, int, int, int]
    L0: int
    e: int

    @property
    def sum_L0alpha(self) -> int:
        return sum(entry.total for entry in self.per_orbit)


def build_tables(orbits: LineOrbitSet) -> IntersectionTables:
    """Count point orbits per line orbit and globally, with consistency checks.

    For each orbit representative alpha the classes of crossings with every
    other orbit are collected mod G; distinct orbits of one direction always
    claim disjoint classes (their offset cosets differ), which the code
    verifies rather than assumes.  Global classes are then keyed mod Z[x],
    and each must be claimed exactly once per incident orbit — that is the
    double-counting identity L0 = sum_p (sum_alpha L0_p^alpha) / p in
    per-class form.  Everything runs on the int points of the
    representatives, which share the modulus of their op.
    """
    reps = [orbit.representative for orbit in orbits.orbits]
    directions = [line.direction for line in reps]
    per_orbit = []
    global_incidence: dict[tuple[int, int, int, int], dict] = {}
    for ia, alpha in enumerate(reps):
        claims: dict[tuple[int, int], list[int]] = {}
        for ib, beta in enumerate(reps):
            if directions[ib] == directions[ia]:
                continue
            for lam in lambda_classes(alpha, beta):
                claims.setdefault(lam, []).append(ib)
        by_p = [0] * (P_MAX - P_MIN + 1)
        for lam in sorted(claims):
            incident = claims[lam]
            if len({directions[ib] for ib in incident}) != len(incident):
                raise ConsistencyError(
                    "two orbits of one direction claim the same point class;"
                    " the line partition is too coarse"
                )
            p = 1 + len(incident)
            if not P_MIN <= p <= P_MAX:
                raise ConsistencyError(f"crossing multiplicity {p} out of range")
            by_p[p - P_MIN] += 1
            key = global_key(alpha, lam)
            members = tuple(sorted([ia, *incident]))
            entry = global_incidence.setdefault(key, {"orbits": members, "claims": 0})
            if entry["orbits"] != members:
                raise ConsistencyError(
                    "one point class reached with two different line sets"
                )
            entry["claims"] += 1
        per_orbit.append(OrbitPointCount(ia, directions[ia], tuple(by_p)))

    n = reps[0].modulus if reps else OFFSET_MODULUS
    points = []
    l0_by_p = [0] * (P_MAX - P_MIN + 1)
    for key in sorted(global_incidence):
        entry = global_incidence[key]
        p = len(entry["orbits"])
        if entry["claims"] != p:
            raise ConsistencyError(
                f"point class claimed {entry['claims']} times by {p} incident"
                " orbits; double counting broken"
            )
        l0_by_p[p - P_MIN] += 1
        points.append(GlobalClass(key, n, p, entry["orbits"]))

    for p in range(P_MIN, P_MAX + 1):
        on_lines = sum(entry.by_p[p - P_MIN] for entry in per_orbit)
        if on_lines != p * l0_by_p[p - P_MIN]:
            raise ConsistencyError(
                f"sum of per-line counts at p={p} is {on_lines},"
                f" not {p} * {l0_by_p[p - P_MIN]}"
            )

    l0 = len(points)
    tables = IntersectionTables(
        per_orbit=tuple(per_orbit),
        types=_group_types(per_orbit),
        points=tuple(points),
        L0_by_p=tuple(l0_by_p),
        L0=l0,
        e=-l0 + sum(entry.total for entry in per_orbit),
    )
    return tables


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
