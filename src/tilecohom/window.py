"""The window polytope: projected 6-cube corners, its 40 boundary cubes,
combinatorial verification, and slicing by the shifted plane family.

Conventions used throughout: a corner of the unit 6-cube is a 6-tuple of
bits; an edge code k in 0..11 stands for the edge vector (1/sqrt 3) x^k in
the internal plane together with the implied lattice step (code k and code
k+6 are opposite steps).  Directions of lines are always reduced mod 6.

Every computation here runs on the int points of cyclotomic.  The window's
own points are sums of the edge vectors, whose coordinates lie in (1/3)G, so
build_window, enumerate_cubes and verify_counts work over the modulus 3.  A
slice works over the modulus of its gamma, 6*D, where plane heights and cut
anchors are exact ints.  A height depends only on (axis, sign, k =
delta[axis] - plane[axis]), so a slice decides every range test once, in a
height table.  Each cube split has a cut map, built on first use: its plane
steps and a 2-row int map taking the scalars (t, r) of a cut to its
canonical anchor by one checked exact division.  Every orientation, sign and
range test is an int comparison (qsign); QuadRat appears only in SlicedLine.

The window is the zonotope W = sum_j [0, v_j], v_j = (DELTAS[j], f_(j+1)), so
W = c - W for c = sum_j v_j, and c - F is a facet of the same kind as F.  The
plane part (1, 1) of c keeps the family gamma + Z^2 and its internal part
sum_j f_j lies in DELTA0 = (1/sqrt 3)Z[x], so the slice at -gamma is the
slice at gamma negated, orbit for orbit and kind by kind (proved).  That the
non-mixed-sign lines at +-gamma make exactly the candidate orbits is empirical.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key, lru_cache
from typing import NamedTuple

from .cyclotomic import (
    XPOW,
    PlanePoint,
    _chart,
    cross,
    decode,
    delta0_coords,
    lattice_contains,
    modulus,
    qmul,
    qsign,
    scalar,
    times_sqrt3,
    xscale,
)
from . import homalg
from .lineorbits import reduce_gamma

#: Modulus of the window's own points: their coordinates lie in (1/3)G.
WINDOW_MODULUS = 3

# plane shifts of the six lattice generators
DELTAS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1))


def edge_vector(code):
    """The edge vector (1/sqrt 3) x^code as an int point over WINDOW_MODULUS."""
    return xscale(code, 0, 1)


# The generators are f_(j+1) = (1/sqrt 3) x^(5j), j in 0..5.  Because 5 is its
# own inverse mod 12, the edge of code k is x^k/sqrt 3 = x^(5m)/sqrt 3 with
# m = 5k mod 12: +f_(m+1) for m < 6 and -f_(m-5) otherwise.

#: f_1..f_6 as int points over WINDOW_MODULUS.
F_VECS = tuple(edge_vector(5 * j % 12) for j in range(6))
#: edge code -> (sign, 0-based generator index j): the edge is sign * f_(j+1).
CODE_STEP = tuple((1 if 5 * k % 12 < 6 else -1, 5 * k % 6) for k in range(12))
#: edge code -> (axis, sign): the edge's plane shift sign * DELTAS[j] moves
#: only that axis, by sign.
PLANE_STEP = tuple((abs(DELTAS[j][1]), sign * sum(DELTAS[j])) for sign, j in CODE_STEP)


def corner_fpart(corner):
    s1 = s2 = 0
    for bit, (d1, d2) in zip(corner, DELTAS):
        if bit:
            s1 += d1
            s2 += d2
    return (s1, s2)


def corner_fperp(corner):
    """The internal-plane image of a corner, an int point over WINDOW_MODULUS."""
    a = b = c = d = 0
    for bit, f in zip(corner, F_VECS):
        if bit:
            a += f[0]
            b += f[1]
            c += f[2]
            d += f[3]
    return (a, b, c, d)


def _sub(s, t):
    return tuple(x - y for x, y in zip(s, t))


def _orientation(o, a, b):
    return qsign(*cross(_sub(a, o), _sub(b, o)))


def _real_order(s, t):
    """Compare the real coordinates u, then v, of two int points over one modulus."""
    return qsign(s[0] - t[0], s[1] - t[1]) or qsign(s[2] - t[2], s[3] - t[3])


def convex_hull(points):
    """Counterclockwise hull of int points over one modulus, with exact
    orientation tests; collinear interior points of edges are dropped."""
    pts = sorted(set(points), key=cmp_to_key(_real_order))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


class PlaneCell(NamedTuple):
    kind: str  # "point", "triangle" or "hexagon"
    hull: tuple  # hull vertices, int points over WINDOW_MODULUS, in cyclic order


class Window(NamedTuple):
    cells: dict
    points: frozenset  # {(fpart, fperp)}, fperp an int point over WINDOW_MODULUS


_CELL_KIND = {1: "point", 3: "triangle", 9: "hexagon"}
_HULL_SIZE = {"point": 1, "triangle": 3, "hexagon": 6}


@lru_cache(maxsize=1)
def build_window() -> Window:
    groups = {}
    for corner in itertools.product((0, 1), repeat=6):
        groups.setdefault(corner_fpart(corner), []).append(corner)
    cells = {}
    points = set()
    for fpart, corners in groups.items():
        kind = _CELL_KIND.get(len(corners))
        if kind is None:
            raise AssertionError(f"plane {fpart} holds {len(corners)} corners")
        hull = convex_hull([corner_fperp(c) for c in corners])
        if len(hull) != _HULL_SIZE[kind]:
            raise AssertionError(
                f"plane {fpart}: hull size {len(hull)}, expected {_HULL_SIZE[kind]}"
            )
        cells[fpart] = PlaneCell(kind, hull)
        for p in hull:
            points.add((fpart, p))
    kinds = [c.kind for c in cells.values()]
    if not (
        len(cells) == 16
        and kinds.count("point") == 4
        and kinds.count("triangle") == 8
        and kinds.count("hexagon") == 4
        and len(points) == 52
    ):
        raise AssertionError("window cell census failed")
    return Window(cells, frozenset(points))


# -- the 40 cubes ------------------------------------------------------------------

_V1 = (0, 0, 1, 1, 0, 0)  # g3+g4
_V2 = (0, 1, 1, 0, 0, 1)  # g2+g3+g6
_V3 = (1, 1, 0, 0, 1, 1)  # g1+g2+g5+g6
_V4 = (1, 0, 0, 1, 1, 0)  # g1+g4+g5

_LONG = (
    (_V1, (1, 5, 9)),
    (_V4, (1, 5, 9)),
    (_V1, (0, 4, 8)),
    (_V2, (0, 4, 8)),
)

# (base, list of i) for edge triples {i, i+1, i+4} and {i, i+3, i+4}
_PLUS1 = ((_V1, (0, 4, 8)), (_V2, (3, 7, 11)), (_V3, (2, 6, 10)), (_V4, (1, 5, 9)))
_PLUS3 = ((_V1, (1, 5, 9)), (_V2, (0, 4, 8)), (_V3, (3, 7, 11)), (_V4, (2, 6, 10)))

# edge triples of the twelve cubes rooted on triangles, together with the
# plane holding the base corner; the base itself is searched
_TRIANGLE_TRIPLES = tuple(
    [((i, (i + 5) % 12, (i + 4) % 12), (-1, 0)) for i in (0, 4, 8)]
    + [((i, (i - 1) % 12, (i + 4) % 12), (0, -1)) for i in (1, 5, 9)]
    + [((i, (i + 5) % 12, (i + 4) % 12), (2, 1)) for i in (2, 6, 10)]
    + [((i, (i - 1) % 12, (i + 4) % 12), (1, 2)) for i in (3, 7, 11)]
)


class Cube(NamedTuple):
    ident: int
    kind: str  # "long", "isolated" or "triangle"
    base: tuple
    codes: tuple

    def corners(self):
        """The 8 corners; bit k of a corner's index is set when it steps along
        codes[k]."""
        out = []
        for m in range(8):
            corner = list(self.base)
            for k, code in enumerate(self.codes):
                if m >> k & 1:
                    sign, j = CODE_STEP[code]
                    corner[j] += sign
            out.append(tuple(corner))
        return out

    def faces(self, dim):
        """The faces of dimension dim, each a frozenset of 2**dim corners: for
        each set `free` of dim codes and each choice `fixed` of steps along
        the other codes, the corners that differ from `fixed` only in free."""
        corners = self.corners()
        out = []
        for free in range(8):
            if free.bit_count() == dim:
                for fixed in range(8):
                    if not fixed & free:
                        out.append(frozenset(
                            corners[fixed | m] for m in range(8) if m & free == m))
        return out


def _valid_cube(base, codes, points):
    """All 8 corners in the unit 6-cube, each projecting onto a window vertex."""
    probe = Cube(-1, "probe", base, codes)
    for corner in probe.corners():
        if any(b not in (0, 1) for b in corner):
            return False
        if (corner_fpart(corner), corner_fperp(corner)) not in points:
            return False
    return True


@lru_cache(maxsize=1)
def enumerate_cubes():
    window = build_window()
    cubes = []

    def add(kind, base, codes):
        codes = tuple(codes)
        if not _valid_cube(base, codes, window.points):
            raise AssertionError(f"cube {base} {codes} has a corner off the window")
        cubes.append(Cube(len(cubes), kind, tuple(base), codes))

    for base, codes in _LONG:
        add("long", base, codes)
    for base, roots in _PLUS1:
        for i in roots:
            add("isolated", base, sorted((i, (i + 1) % 12, (i + 4) % 12)))
    for base, roots in _PLUS3:
        for i in roots:
            add("isolated", base, sorted((i, (i + 3) % 12, (i + 4) % 12)))
    for codes, plane in _TRIANGLE_TRIPLES:
        codes = tuple(sorted(codes))
        found = [
            corner
            for corner in itertools.product((0, 1), repeat=6)
            if corner_fpart(corner) == plane
            and _valid_cube(corner, codes, window.points)
        ]
        if len(found) != 1:
            raise AssertionError(f"triple {codes}: {len(found)} admissible bases")
        add("triangle", found[0], codes)

    if len(cubes) != 40:
        raise AssertionError(f"enumerated {len(cubes)} cubes")
    if len({frozenset(c.corners()) for c in cubes}) != 40:
        raise AssertionError("duplicate cube")
    return tuple(cubes)


def norm_sq(t):
    """Squared length u^2 + v^2 + sqrt(3)*u*v of the int point t = u + v*x over
    n (the basis vectors meet at 30 degrees), as an int pair over n^2."""
    a, b, c, d = t
    uu, vv, uv = qmul(a, b, a, b), qmul(c, d, c, d), qmul(a, b, c, d)
    return uu[0] + vv[0] + 3 * uv[1], uu[1] + vv[1] + uv[0]


#: |f_i|^2 = 1/3, over WINDOW_MODULUS^2.
EDGE_NORM_SQ = (3, 0)

_PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _det3(m):
    """Determinant of a 3x3 matrix of int pairs p + q*sqrt 3."""
    tp = tq = 0
    for (i, j, k), sign in _PERMUTATIONS:
        p, q = qmul(*qmul(*m[0][i], *m[1][j]), *m[2][k])
        tp += sign * p
        tq += sign * q
    return tp, tq


def _dot(n, w):
    tp = tq = 0
    for a, b in zip(n, w):
        p, q = qmul(*a, *b)
        tp += p
        tq += q
    return tp, tq


def _facet_corner_sets():
    """Boundary 3-faces of the projected 6-cube, derived from scratch.

    The window is the image of [0,1]^6 in the 4-dimensional internal space,
    i.e. the zonotope spanned by the six generator images (f-vector, plane
    shift).  A 3-face lies on the boundary exactly when its three spanning
    generators span a hyperplane and the remaining three generators are
    summed on one fixed side of it; the two sides give two opposite faces.
    Works on the generators times 3, whose entries are int pairs
    p + q*sqrt 3; independent of the tabulated cube list, which it must
    reproduce."""
    gens = []
    for (a, b, c, d), (d1, d2) in zip(F_VECS, DELTAS):
        gens.append(((a, b), (c, d), (WINDOW_MODULUS * d1, 0), (WINDOW_MODULUS * d2, 0)))

    faces = set()
    for span in itertools.combinations(range(6), 3):
        normal = []
        for k in range(4):
            cols = [i for i in range(4) if i != k]
            minor = [[gens[j][i] for i in cols] for j in span]
            p, q = _det3(minor)
            normal.append((-p, -q) if k % 2 else (p, q))
        if all(qsign(*c) == 0 for c in normal):
            raise AssertionError(f"generators {span} do not span a hyperplane")
        sides = {j: qsign(*_dot(normal, gens[j])) for j in range(6) if j not in span}
        if any(s == 0 for s in sides.values()):
            raise AssertionError(f"hyperplane of {span} meets a fourth generator")
        for flip in (1, -1):
            base = [1 if sides.get(j, 0) * flip > 0 else 0 for j in range(6)]
            corners = set()
            for picks in itertools.product((0, 1), repeat=3):
                corner = list(base)
                for bit, j in zip(picks, span):
                    corner[j] = bit
                corners.add(tuple(corner))
            faces.add(frozenset(corners))
    return faces


def verify_counts():
    """Recompute and cross-check every combinatorial invariant of the window."""
    window = build_window()
    cubes = enumerate_cubes()

    edges = set()
    faces = set()
    membership = {}
    for cube in cubes:
        edges.update(cube.faces(1))
        faces.update(cube.faces(2))
        for corner in cube.corners():
            membership[corner] = membership.get(corner, 0) + 1

    valency = {}
    for edge in edges:
        for corner in edge:
            valency[corner] = valency.get(corner, 0) + 1

    vertex_corners = set(valency)
    window_ok = all(
        (corner_fpart(c), corner_fperp(c)) in window.points for c in vertex_corners
    )

    histogram = {}
    for val in valency.values():
        histogram[val] = histogram.get(val, 0) + 1

    cubes_by_valency = {}
    for corner, val in valency.items():
        cubes_by_valency.setdefault(val, set()).add(membership[corner])

    uniform = all(
        norm_sq(_sub(corner_fperp(a), corner_fperp(b))) == EDGE_NORM_SQ
        for a, b in (tuple(e) for e in edges)
    )

    facets_independent = _facet_corner_sets() == {
        frozenset(c.corners()) for c in cubes
    }

    sublattice = _plane_preserving_sublattice_report()

    report = {
        "vertices": len(vertex_corners),
        "edges": len(edges),
        "faces": len(faces),
        "cubes": len(cubes),
        "long_cubes": sum(1 for c in cubes if c.kind == "long"),
        "valency_histogram": dict(sorted(histogram.items())),
        "cubes_per_vertex": {v: sorted(s) for v, s in sorted(cubes_by_valency.items())},
        "edge_length_sq_uniform": uniform,
        "corners_on_window": window_ok,
        "boundary_facets_independent": facets_independent,
        "sublattice": sublattice,
    }
    report["ok"] = (
        report["vertices"] == 52
        and report["edges"] == 132
        and report["faces"] == 120
        and report["cubes"] == 40
        and report["long_cubes"] == 4
        and report["valency_histogram"] == {4: 12, 5: 24, 6: 16}
        and report["cubes_per_vertex"] == {4: [4], 5: [6], 6: [8]}
        and uniform
        and window_ok
        and facets_independent
        and sublattice["ok"]
    )
    return report


def _plane_preserving_sublattice_report():
    """The sublattice of Z^6 with zero plane shift must project onto exactly
    the ring Z[x] inside the translation lattice.

    A kernel basis of the plane-shift matrix is projected to the internal
    plane and written in f-coordinates; the Smith factors give its index in
    the translation lattice, which must match the index of Z[x], and each
    basis vector must itself lie in Z[x]."""
    shift_matrix = tuple(
        tuple(DELTAS[j][axis] for j in range(6)) for axis in range(2)
    )
    kernel = homalg.kernel_basis(shift_matrix)
    coords = []
    contained = True
    for vec in kernel:
        p = tuple(sum(n * f[k] for n, f in zip(vec, F_VECS)) for k in range(4))
        if not lattice_contains(p, WINDOW_MODULUS):
            contained = False
        coords.append([c // WINDOW_MODULUS for c in delta0_coords(p)])
    factors = homalg.smith(coords).factors
    index = 1
    for f in factors:
        index *= f

    ring_basis = [list(delta0_coords(XPOW[k])) for k in range(4)]
    ring_index = 1
    for f in homalg.smith(ring_basis).factors:
        ring_index *= f

    return {
        "kernel_rank": len(kernel),
        "projected_in_ring": contained,
        "index_in_translation_lattice": index,
        "ring_index": ring_index,
        "ok": len(kernel) == 4 and contained and index == ring_index == 9,
    }


# -- slicing -----------------------------------------------------------------------


class SlicedLine(NamedTuple):
    direction: int  # 0..5
    anchor: PlanePoint  # perpendicular-reduced, lives in the base plane
    sources: tuple  # (cube ident, delta) pairs contributing a segment


@lru_cache(maxsize=None)
def _splits(codes):
    """(m, b, direction) for each split of a cube's codes: a code m whose
    other two codes a, b step alike along one plane axis.  A plane cut meets
    the face of a and b where t_a + t_b is fixed, a segment along e_a - e_b;
    direction is the k in 0..5 with x^k parallel to it."""
    out = []
    for m in codes:
        a, b = [c for c in codes if c != m]
        if PLANE_STEP[a] == PLANE_STEP[b]:
            along = _sub(edge_vector(a), edge_vector(b))
            direction = next(k for k in range(6) if cross(XPOW[k], along) == (0, 0))
            out.append((m, b, direction))
    if not out:
        raise AssertionError(f"codes {codes} have no pair stepping along one plane axis")
    return tuple(out)


#: The plane translates delta that a slice tries against each cube.
_TRANSLATES = tuple(itertools.product(range(-1, 3), repeat=2))
#: The k = delta[axis] - plane[axis] of the height table (planes lie in -1..2,
#: a same-axis split also reads k - sign), and the slots of the constants 0, 1.
_K = range(-4, 5)
_ZERO, _ONE = 4 * len(_K), 4 * len(_K) + 1


def _slot(axis, sign, k):
    """The height table's slot of sign * (gamma[axis] + k)."""
    return (2 * axis + (sign < 0)) * len(_K) + k - _K[0]


def _heights(gamma, n):
    """The height table of a slice at the scaled gamma over n: each height
    sign * (gamma[axis] + k), then the constants 0 and 1, and per slot its
    open test 0 < h < 2, closed test 0 <= h <= 1 and zero test."""
    values = [(sign * (gamma[axis][0] + k * n), sign * gamma[axis][1])
              for axis in (0, 1) for sign in (1, -1) for k in _K] + [(0, 0), (n, 0)]
    return (n, values,
            [qsign(p, q) > 0 and qsign(2 * n - p, -q) > 0 for p, q in values],
            [qsign(p, q) >= 0 and qsign(n - p, -q) >= 0 for p, q in values],
            [h == (0, 0) for h in values])


@lru_cache(maxsize=None)
def _cut_map(base, codes):
    """(direction, perp, rows, divisor, candidates) for each split (m, b).

    A cut holds t_m fixed and has its height r along b in (0, 2); its line
    runs through base + t_m*e_m + r*e_b.  If m steps on the other plane axis,
    t_m is its height, in [0, 1]; else the height across the axis must be 0
    and t_m is 0 or 1.  A candidate (delta, t, r, g) names the height slots
    of t_m, r and that zero.  rows compose the base corner, the edge vectors
    and the (x^direction, x^perp) chart: they take (n, t, r) to divisor
    times the perp coefficient of the line's point."""
    plane, corner = corner_fpart(base), corner_fperp(base)
    out = []
    for m, b, direction in _splits(codes):
        perp = (direction + 3) % 6
        chart, divisor = _chart(direction, perp)
        columns = (corner, edge_vector(m), times_sqrt3(edge_vector(m)),
                   edge_vector(b), times_sqrt3(edge_vector(b)))
        rows = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in chart[2:]]
        (axis, sign), (m_axis, m_sign) = PLANE_STEP[b], PLANE_STEP[m]
        candidates = []
        for delta in _TRANSLATES:
            k = delta[axis] - plane[axis]
            r = _slot(axis, sign, k)
            if m_axis != axis:
                t = _slot(m_axis, m_sign, delta[m_axis] - plane[m_axis])
                candidates.append((delta, t, r, _ZERO))
            else:
                g = _slot(1 - axis, 1, delta[1 - axis] - plane[1 - axis])
                candidates += [(delta, _ZERO, r, g), (delta, _ONE, _slot(axis, sign, k - sign), g)]
        out.append((direction, perp, rows, WINDOW_MODULUS * divisor, candidates))
    return tuple(out)


def _cuts(cube, heights):
    """(delta, direction, canonical anchor) for each translate delta cutting the cube."""
    n, values, opens, closeds, zeros = heights
    for direction, perp, rows, divisor, candidates in _cut_map(cube.base, cube.codes):
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) = rows
        for delta, t, r, g in candidates:
            if opens[r] and closeds[t] and zeros[g]:
                (tp, tq), (rp, rq) = values[t], values[r]
                cp = a0 * n + a1 * tp + a2 * tq + a3 * rp + a4 * rq
                cq = b0 * n + b1 * tp + b2 * tq + b3 * rp + b4 * rq
                if cp % divisor or cq % divisor:
                    raise ValueError(f"a cut of cube {cube.ident} is off the lattice over {n}")
                yield delta, direction, xscale(perp, cp // divisor, cq // divisor)


def slice_detailed(gamma):
    """All singular lines cut from the cubes by the shifted plane family.

    gamma is first reduced into [0,1)^2, as the report does: the planes of
    gamma and gamma + (m, n) are one family.  The plane translations act
    only on the plane index, never on the in-plane coordinates, so carrying
    every cut to the base plane keeps its anchor as computed; cuts from
    different planes landing on one line merge.  Returns (lines, incidences)
    where incidences is the set of (cube ident, delta) pairs with a nonempty
    cut.
    """
    gamma = reduce_gamma(gamma).pair()
    n = modulus(*gamma)
    heights = _heights((scalar(gamma[0], n), scalar(gamma[1], n)), n)
    found = {}
    incidences = set()
    for cube in enumerate_cubes():
        for delta, direction, anchor in _cuts(cube, heights):
            incidences.add((cube.ident, delta))
            found.setdefault((direction, anchor), set()).add((cube.ident, delta))
    lines = [
        SlicedLine(direction, decode(anchor, n), tuple(sorted(srcs)))
        for (direction, anchor), srcs in sorted(found.items())
    ]
    return lines, incidences
