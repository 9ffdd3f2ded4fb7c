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
entry.  A crossing class leaves the stage only as its int key over n.

The crossings of a line alpha of direction x^i with all translates of a line
beta of direction x^j fall into finitely many classes: one crossing point
plus offsets along x^i from a fixed finite subgroup of R/G (coset_set below,
the {0}/A3/A4 pattern, held as int pairs over 6).  A class is held by the
Z[x] key of its point.  build_tables claims the keys in two passes per
unordered pair of directions {i, j}, one from each side, each into its own
dict of key -> the bitmask of the two crossing orbits, and requires the two
dicts to be equal.  A global class is held only as the bitmask of its
incident orbits (IntersectionTables.incidence), which with the number of
direction pairs meeting each shared class is all that L0, e and the checks
need.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import XPOW, cross, decompose, xscale
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
    """The counts of build_tables, with the global classes held as int keys.

    incidence maps each class's Z[x] key over modulus to the bitmask of its
    incident orbits; build_tables has checked that every class was claimed
    once by each incident orbit from each other one.  The repr leaves
    incidence out.
    """

    per_orbit: tuple[OrbitPointCount, ...]
    types: tuple[LineType, ...]
    L0_by_p: tuple[int, int, int, int, int]
    L0: int
    e: int
    incidence: dict[tuple[int, int, int, int], int]
    modulus: int

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self)
                          if name != "incidence")
        return f"IntersectionTables({shown})"

    @property
    def sum_L0alpha(self) -> int:
        return sum(entry.total for entry in self.per_orbit)


def build_tables(orbits: LineOrbitSet) -> IntersectionTables:
    """Count point orbits per line orbit and globally, with consistency checks.

    Each unordered pair of directions {i, j} gets two passes: pass (i, j)
    claims, on every representative alpha of direction i, the Z[x] keys of
    the classes where translates of the orbits beta of direction j cross it
    (_claim_pass), and pass (j, i) the same from the other side.  Each pass
    fills its own dict, key -> 1 << alpha | 1 << beta, and all the pairs'
    forward dicts are ORed into one incidence, key -> bitmask of the
    incident orbits.  All representatives share the modulus of their op,
    and, like every point of an op, have all entries divisible by 6; a
    point that does not lies off the op's lattice and is refused.

    The checks, each against the per-class check of the one-pass-per-alpha
    kernel it replaces:

    - no two claims of one alpha from one direction on one class -> a pass
      dict holds as many keys as its pass made claims;
    - every claimer of a class sees one line set -> the two passes of a
      pair are equal dicts, and a class shared by several direction pairs
      is met by exactly p(p-1)/2 of them, p its number of incident orbits;
    - every class claimed p times -> the same p(p-1)/2 count (a class met
      by one pair has p = 2 and is claimed once from each side);
    - 2 <= p <= 6 -> checked on every shared class (an unshared one has
      p = 2);
    - the summed double-counting identity -> sum over the orbits of their
      claims == sum_p p(p-1) L0_p.

    Given the same claims, these hold exactly when the old checks hold.
    The old ones say that the ordered claims on each class are every
    ordered pair of its incident orbits once, one orbit per direction.
    That gives equal passes, one claim per key and pass, and one meeting
    per pair of incident orbits, from pairs of distinct directions.
    Conversely, the edges {alpha, beta} that the pairs meeting a class
    contribute are distinct, since their direction pairs are; p(p-1)/2
    distinct edges on p orbits make the complete graph, so no two incident
    orbits share a direction (passes never join one direction to itself),
    p <= 6, and the equal passes claim every edge from both sides, each
    once.  An orbit then claims p - 1 times on each of its classes, so its
    p = 2 count is its claims less sum (p - 1) over its shared classes.

    As in the old kernel, the range and summed checks cannot fail once the
    others pass: p <= 6 follows as above, and the claims of all passes are
    twice the meetings, sum over the classes of p(p-1).  They stay as
    guards on the tallies, which they compare with the claim counts.
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
    # the claims each orbit of direction i makes as alpha
    claimed = [0] * 6
    # Z[x] key -> bitmask of the incident orbits
    incidence: dict[tuple[int, int, int, int], int] = {}
    # key of a class met by more than one direction pair -> how many meet it
    shared: dict[tuple[int, int, int, int], int] = {}
    for i, alphas in enumerate(by_direction):
        for j in range(i + 1, 6):
            betas = by_direction[j]
            if not (alphas and betas):
                continue
            forward: dict[tuple[int, int, int, int], int] = {}
            backward: dict[tuple[int, int, int, int], int] = {}
            each = _claim_pass(scalars, n, alphas, betas, i, j, forward)
            if len(forward) != len(alphas) * each:
                raise _repeat(scalars, n, alphas, betas, i, j)
            claimed[i] += each
            each = _claim_pass(scalars, n, betas, alphas, j, i, backward)
            if len(backward) != len(betas) * each:
                raise _repeat(scalars, n, betas, alphas, j, i)
            claimed[j] += each
            if forward != backward:
                raise _disagreement(scalars, n, by_direction, i, j, forward, backward)
            for key in forward.keys() & incidence.keys():
                shared[key] = shared.get(key, 1) + 1
                forward[key] |= incidence[key]
            incidence.update(forward)

    # per orbit: count of its shared classes by p, and their sum of p - 1
    by_p = [[0] * 8 for _ in reps]
    excess = [0] * len(reps)
    l0_by_p = [0] * 8
    for key, meets in shared.items():
        members = incidence[key]
        p = members.bit_count()
        if meets != p * (p - 1) // 2:
            raise _fault(f"point class met by {meets} direction pairs with {p}"
                         " incident orbits; double counting broken",
                         *_first_meeting(scalars, n, by_direction, {key}), n)
        if not P_MIN <= p <= P_MAX:
            raise _fault(f"crossing multiplicity {p} out of range",
                         *_first_meeting(scalars, n, by_direction, {key}), n)
        l0_by_p[p] += 1
        for ia in range(members.bit_length()):
            if members >> ia & 1:
                by_p[ia][p] += 1
                excess[ia] += p - 1
    l0_by_p[2] = len(incidence) - len(shared)
    for ia, line in enumerate(reps):
        by_p[ia][2] = claimed[line.direction] - excess[ia]

    total = sum(claimed[i] * len(alphas) for i, alphas in enumerate(by_direction))
    expected = sum(p * (p - 1) * count for p, count in enumerate(l0_by_p))
    if total != expected:
        raise ConsistencyError(
            f"sum of per-line claims is {total}, not sum_p p(p-1)*L0_p = {expected}"
        )

    per_orbit = [OrbitPointCount(ia, line.direction, tuple(by_p[ia][P_MIN:P_MAX + 1]))
                 for ia, line in enumerate(reps)]
    l0 = len(incidence)
    return IntersectionTables(
        per_orbit=tuple(per_orbit),
        types=_group_types(per_orbit),
        L0_by_p=tuple(l0_by_p[P_MIN:P_MAX + 1]),
        L0=l0,
        e=sum(p * count for p, count in enumerate(l0_by_p)) - l0,
        incidence=incidence,
        modulus=n,
    )


def _claim_pass(scalars, n: int, alphas, betas, i: int, j: int, claims) -> int:
    """Claim the crossings of the direction-j orbits betas on the direction-i
    representatives alphas into claims: Z[x] key -> 1 << alpha | 1 << beta.
    Returns the number of claims made on each alpha.

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
    (r0p, r0q), (r1p, r1q), (r2p, r2q), (r3p, r3q) = beta_side
    # each beta's crossing image plus each offset, with beta's bit
    crossers = []
    for ib in betas:
        p, q = scalars[ib]
        p //= k
        q //= k
        bit = 1 << ib
        b0, b1, b2, b3 = r0p * p + r0q * q, r1p * p + r1q * q, r2p * p + r2q * q, r3p * p + r3q * q
        for s0, s1, s2, s3 in steps:
            crossers.append((bit, b0 + s0 * step, b1 + s1 * step, b2 + s2 * step, b3 + s3 * step))
    (r0p, r0q), (r1p, r1q), (r2p, r2q), (r3p, r3q) = alpha_side
    for ia in alphas:
        p, q = scalars[ia]
        p //= k
        q //= k
        a0, a1, a2, a3 = r0p * p + r0q * q, r1p * p + r1q * q, r2p * p + r2q * q, r3p * p + r3q * q
        own = 1 << ia
        for bit, b0, b1, b2, b3 in crossers:
            claims[(a0 + b0) % n, (a1 + b1) % n, (a2 + b2) % n, (a3 + b3) % n] = own | bit
    return len(betas) * len(steps)


def _fault(message: str, pair, key, n: int) -> ConsistencyError:
    return ConsistencyError(f"{message}; directions {pair}, class {key}/{n}")


class _ClaimOnce(dict):
    """Pass claims that stop at the first key claimed twice."""

    def __setitem__(self, key, bits):
        if key in self:
            raise LookupError(key)
        dict.__setitem__(self, key, bits)


def _repeat(scalars, n, alphas, betas, i, j) -> ConsistencyError:
    """Failure path: redo pass (i, j) to name a key it claimed twice."""
    try:
        _claim_pass(scalars, n, alphas, betas, i, j, _ClaimOnce())
    except LookupError as repeat:
        return _fault("two orbits of one direction claim the same point class;"
                      " two representatives lie in one orbit", (i, j), repeat.args[0], n)
    raise AssertionError(f"pass {(i, j)} claimed no key twice when redone")


def _first_meeting(scalars, n, by_direction, keys, skip=None):
    """Failure path: the first ordered direction pair, {i, j} = skip aside,
    whose pass claims one of keys, with the least such key; or None."""
    for i, alphas in enumerate(by_direction):
        for j, betas in enumerate(by_direction):
            if i != j and alphas and betas and {i, j} != skip:
                claims: dict = {}
                _claim_pass(scalars, n, alphas, betas, i, j, claims)
                met = claims.keys() & keys
                if met:
                    return (i, j), min(met)
    return None


def _disagreement(scalars, n, by_direction, i, j, forward, backward) -> ConsistencyError:
    """Failure path: passes (i, j) and (j, i) are not equal dicts.

    A key the two passes give different line sets, or that only one of them
    claims while another direction pair also meets it (a class of p >= 3),
    is reached with two different line sets; a key of one side only that no
    other pair meets is a p = 2 class claimed once.
    """
    differ = [key for key in forward.keys() & backward.keys() if forward[key] != backward[key]]
    if differ:
        return _fault("one point class reached with two different line sets",
                      (i, j), min(differ), n)
    one_sided = forward.keys() ^ backward.keys()
    met = _first_meeting(scalars, n, by_direction, one_sided, skip={i, j})
    if met is not None:
        return _fault("one point class reached with two different line sets",
                      (i, j), met[1], n)
    return _fault("point class claimed from one side of its direction pair only;"
                  " double counting broken", (i, j), min(one_sided), n)


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
