"""Orbits of 0-singularities: where the singular lines cross.

Line orbits are equivalence classes modulo DELTA0 = (1/sqrt 3)Z[x].  The
point counts are computed in rescaled coordinates: multiplication by sqrt 3
is a bijection of the plane carrying DELTA0 onto the ring Z[x], lines onto
lines and intersections onto intersections.  In the rescaled picture two
points of one line are equivalent exactly when their parameters differ by an
element of G, and two points anywhere in the plane exactly when both
{1, x}-coordinates differ by elements of G, because Z[x] = G + G*x and
Z[x] meets every direction line R*x^k in G*x^k.  build_tables rescales the
orbit representatives once, up front; everything downstream is coset
arithmetic mod G.

The intersections of a fixed line with all translates of another then fall
into finitely many classes: the translate contributes an offset from a fixed
finite subgroup of R/G (coset_set below, the {0}/A3/A4 pattern), shifted by
the anchor difference.  Multiplicities come from which directions claim the
same class, and the global count from identifying class representatives
modulo Z[x].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import PlanePoint, decompose, pt_scale_mul, xpow
from .exactfield import CosetRep, LatticeId, QuadRat, SQRT3, mod_canon
from .lineorbits import LineOrbitSet, SingularLine

#: Multiplicity range for 0-singularities: at least two lines cross, at most
#: one per direction.
P_MIN, P_MAX = 2, 6


class ConsistencyError(RuntimeError):
    """An internal identity failed; signals an orbit-equivalence bug."""


@dataclass(frozen=True)
class CosetSet:
    """The translate offsets mod G seen along x^i in the basis (x^i, x^(i+d))."""

    index: int
    offsets: tuple[QuadRat, ...]


def _canon_sort_key(value: QuadRat):
    return (value.p, value.q)


@lru_cache(maxsize=None)
def coset_set(d: int) -> CosetSet:
    """Close the first components of the Z[x] generators 1, x, x^2, x^3 mod G.

    The result is a subgroup of R/G: one class for d in {1, 5}, the three
    classes A3 for d in {2, 4}, the four classes A4 for d = 3.
    """
    if d not in (1, 2, 3, 4, 5):
        raise ValueError(f"basis offset {d} out of range 1..5")
    gens = [decompose(xpow(k), 0, d)[0] for k in range(4)]
    classes = {mod_canon(QuadRat(0)).value}
    frontier = list(classes)
    while frontier:
        if len(classes) > 12:
            raise ConsistencyError("coset closure exceeded the A4 bound")
        base = frontier.pop()
        for gen in gens:
            for step in (gen, -gen):
                nxt = mod_canon(base + step).value
                if nxt not in classes:
                    classes.add(nxt)
                    frontier.append(nxt)
    return CosetSet(d, tuple(sorted(classes, key=_canon_sort_key)))


def lambda_classes(alpha: SingularLine, beta: SingularLine) -> list[CosetRep]:
    """Classes mod G of the parameters where translates of beta cross alpha.

    The crossing equation alpha.anchor + lam*x^i = beta.anchor + mu*x^j + t
    with t in Z[x] is solved for lam in the basis (x^i, x^j): the anchor
    difference contributes its first component, the translate one of the
    coset_set offsets.
    """
    d = (beta.direction - alpha.direction) % 6
    if d == 0:
        raise ValueError(
            f"parallel directions x^{alpha.direction} and x^{beta.direction}"
            " never cross"
        )
    lam0 = decompose(beta.anchor - alpha.anchor, alpha.direction, beta.direction)[0]
    classes = [mod_canon(lam0 + off) for off in coset_set(d).offsets]
    return sorted(classes, key=lambda rep: _canon_sort_key(rep.value))


def global_key(alpha: SingularLine, lam: CosetRep) -> PlanePoint:
    """Z[x]-coset key of the point at parameter lam on alpha.

    Componentwise reduction mod G is exactly reduction mod Z[x] = G + G*x,
    and the key does not depend on which class representative lam carries
    because G*x^k is contained in Z[x].
    """
    point = alpha.anchor + pt_scale_mul(xpow(alpha.direction), lam.value)
    return PlanePoint(mod_canon(point.u).value, mod_canon(point.v).value)


@dataclass(frozen=True)
class GlobalClass:
    """One orbit of 0-singularities with its canonical Z[x]-coset key."""

    canon: PlanePoint
    p: int
    incident_orbits: tuple[int, ...]


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


def _rescaled_representatives(orbits: LineOrbitSet) -> list[SingularLine]:
    reps = []
    for orbit in orbits.orbits:
        line = orbit.representative
        reps.append(
            SingularLine(line.direction % 6, pt_scale_mul(line.anchor, SQRT3))
        )
    return reps


def build_tables(orbits: LineOrbitSet) -> IntersectionTables:
    """Count point orbits per line orbit and globally, with consistency checks.

    For each orbit representative alpha the classes of crossings with every
    other orbit are collected mod G; distinct orbits of one direction always
    claim disjoint classes (their offset cosets differ), which the code
    verifies rather than assumes.  Global classes are then keyed mod Z[x],
    and each must be claimed exactly once per incident orbit — that is the
    double-counting identity L0 = sum_p (sum_alpha L0_p^alpha) / p in
    per-class form.
    """
    reps = _rescaled_representatives(orbits)
    per_orbit = []
    global_incidence: dict[tuple[QuadRat, QuadRat, QuadRat, QuadRat], dict] = {}
    for ia, alpha in enumerate(reps):
        claims: dict[CosetRep, list[int]] = {}
        for ib, beta in enumerate(reps):
            if beta.direction == alpha.direction:
                continue
            for rep in lambda_classes(alpha, beta):
                claims.setdefault(rep, []).append(ib)
        by_p = [0] * (P_MAX - P_MIN + 1)
        for lam in sorted(claims, key=lambda rep: _canon_sort_key(rep.value)):
            incident = claims[lam]
            directions = {reps[ib].direction for ib in incident}
            if len(directions) != len(incident):
                raise ConsistencyError(
                    "two orbits of one direction claim the same point class;"
                    " the line partition is too coarse"
                )
            p = 1 + len(incident)
            if not P_MIN <= p <= P_MAX:
                raise ConsistencyError(f"crossing multiplicity {p} out of range")
            by_p[p - P_MIN] += 1
            key_point = global_key(alpha, lam)
            key = (key_point.u, key_point.v)
            members = tuple(sorted([ia, *incident]))
            entry = global_incidence.setdefault(
                key, {"canon": key_point, "orbits": members, "claims": 0}
            )
            if entry["orbits"] != members:
                raise ConsistencyError(
                    "one point class reached with two different line sets"
                )
            entry["claims"] += 1
        per_orbit.append(OrbitPointCount(ia, alpha.direction, tuple(by_p)))

    points = []
    l0_by_p = [0] * (P_MAX - P_MIN + 1)
    for key in sorted(global_incidence, key=lambda k: tuple(_canon_sort_key(v) for v in k)):
        entry = global_incidence[key]
        p = len(entry["orbits"])
        if entry["claims"] != p:
            raise ConsistencyError(
                f"point class claimed {entry['claims']} times by {p} incident"
                " orbits; double counting broken"
            )
        l0_by_p[p - P_MIN] += 1
        points.append(GlobalClass(entry["canon"], p, entry["orbits"]))

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
