"""The crossing stage one crossing at a time: the oracle for build_tables.

`lambda_classes` and `global_key` solve one crossing and key one class at a
time, through `cyclotomic.decompose` on each anchor difference, and
`reference_tables` builds the tables on them: per representative alpha, the
classes mod G that every other orbit claims, then their Z[x] keys.
`tests/test_pointorbits.py` requires `pointorbits.build_tables`, which makes
one pass per pair of directions instead, to return equal tables.  The
oracle's tables are its own record, with every field, `points` included,
built eagerly by its own loop.
"""

from dataclasses import dataclass

from tilecohom.cyclotomic import decompose, xscale
from tilecohom.lineorbits import SingularLine
from tilecohom.pointorbits import (
    OFFSET_MODULUS,
    P_MAX,
    P_MIN,
    ConsistencyError,
    GlobalClass,
    LineType,
    OrbitPointCount,
    _group_types,
    coset_set,
)


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
class ReferenceTables:
    """The fields of `pointorbits.IntersectionTables`, all held as values."""

    per_orbit: tuple[OrbitPointCount, ...]
    types: tuple[LineType, ...]
    points: tuple[GlobalClass, ...]
    L0_by_p: tuple[int, int, int, int, int]
    L0: int
    e: int


def reference_tables(orbits) -> ReferenceTables:
    """The tables of `pointorbits.build_tables`, one crossing at a time."""
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
                    " two representatives lie in one orbit"
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
    return ReferenceTables(
        per_orbit=tuple(per_orbit),
        types=_group_types(per_orbit),
        points=tuple(points),
        L0_by_p=tuple(l0_by_p),
        L0=l0,
        e=-l0 + sum(entry.total for entry in per_orbit),
    )
