"""The window polytope: projected 6-cube corners, its 40 boundary cubes,
combinatorial verification, and slicing by the shifted plane family.

Conventions used throughout: a corner of the unit 6-cube is a 6-tuple of
bits; an edge code k in 0..11 stands for the edge vector (1/sqrt 3) x^k in
the internal plane together with the implied lattice step (code k and code
k+6 are opposite steps).  Directions of lines are always reduced mod 6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    ORIGIN,
    PlanePoint,
    TransLattice,
    decompose,
    delta0_coords,
    f_vector,
    lattice_contains,
    pt_scale_mul,
    xpow,
)
from .exactfield import INV_SQRT3, QuadRat, SQRT3
from . import homalg

# plane shifts of the six lattice generators
DELTAS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1))
F_VECS = tuple(f_vector(i) for i in range(1, 7))

# edge code -> (sign, 0-based generator index); code k is the edge vector
# (1/sqrt 3) x^k, which equals sign * f_(j+1)
CODE_STEP = {
    0: (1, 0), 5: (1, 1), 10: (1, 2), 3: (1, 3), 8: (1, 4), 1: (1, 5),
    6: (-1, 0), 11: (-1, 1), 4: (-1, 2), 9: (-1, 3), 2: (-1, 4), 7: (-1, 5),
}


def edge_vector(code):
    return pt_scale_mul(xpow(code), INV_SQRT3)


def code_axis(code):
    """Which plane-shift coordinate the edge moves: 0 for even codes, 1 for odd."""
    return code % 2


def code_fsign(code):
    """Sign of the plane-shift step of the edge."""
    return 1 if code % 4 < 2 else -1


def corner_fpart(corner):
    s1 = s2 = 0
    for bit, (d1, d2) in zip(corner, DELTAS):
        if bit:
            s1 += d1
            s2 += d2
    return (s1, s2)


def corner_fperp(corner):
    p = ORIGIN
    for bit, f in zip(corner, F_VECS):
        if bit:
            p = p + f
    return p


def _pt_key(p):
    return (p.u.p, p.u.q, p.v.p, p.v.q)


def _cross(o, a, b):
    return ((a.u - o.u) * (b.v - o.v) - (a.v - o.v) * (b.u - o.u)).sign()


def convex_hull(points):
    """Counterclockwise hull with exact orientation tests; collinear interior
    points of edges are dropped."""
    pts = sorted(set(points), key=lambda p: (p.u, p.v))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class PlaneCell:
    fpart: tuple[int, int]
    kind: str  # "point", "triangle" or "hexagon"
    corners: tuple  # all 6-cube corners projecting here
    hull: tuple  # hull vertices (PlanePoints) in cyclic order


@dataclass(frozen=True)
class Window:
    cells: dict
    vertex_set: frozenset  # {(fpart, fperp)}

    @property
    def vertex_count(self):
        return len(self.vertex_set)


_CELL_KIND = {1: "point", 3: "triangle", 9: "hexagon"}
_HULL_SIZE = {"point": 1, "triangle": 3, "hexagon": 6}


@lru_cache(maxsize=1)
def build_window() -> Window:
    groups = {}
    for corner in itertools.product((0, 1), repeat=6):
        groups.setdefault(corner_fpart(corner), []).append(corner)
    cells = {}
    vertex_set = set()
    for fpart, corners in groups.items():
        kind = _CELL_KIND.get(len(corners))
        if kind is None:
            raise AssertionError(f"plane {fpart} holds {len(corners)} corners")
        hull = convex_hull([corner_fperp(c) for c in corners])
        if len(hull) != _HULL_SIZE[kind]:
            raise AssertionError(
                f"plane {fpart}: hull size {len(hull)}, expected {_HULL_SIZE[kind]}"
            )
        cells[fpart] = PlaneCell(fpart, kind, tuple(corners), hull)
        for p in hull:
            vertex_set.add((fpart, p))
    kinds = [c.kind for c in cells.values()]
    if not (
        len(cells) == 16
        and kinds.count("point") == 4
        and kinds.count("triangle") == 8
        and kinds.count("hexagon") == 4
        and len(vertex_set) == 52
    ):
        raise AssertionError("window cell census failed")
    return Window(cells, frozenset(vertex_set))


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


@dataclass(frozen=True)
class Cube:
    ident: int
    kind: str  # "long", "isolated" or "triangle"
    base: tuple
    codes: tuple

    def corners(self):
        out = []
        for picks in itertools.product((0, 1), repeat=3):
            corner = list(self.base)
            for takes, code in zip(picks, self.codes):
                if takes:
                    sign, j = CODE_STEP[code]
                    corner[j] += sign
            out.append(tuple(corner))
        return out

    def edges(self):
        """The 12 edges, each a frozenset of two corners."""
        out = []
        for vary in range(3):
            rest = [c for k, c in enumerate(self.codes) if k != vary]
            for picks in itertools.product((0, 1), repeat=2):
                ends = []
                for takes in (0, 1):
                    corner = list(self.base)
                    for t, code in zip(picks, rest):
                        if t:
                            sign, j = CODE_STEP[code]
                            corner[j] += sign
                    if takes:
                        sign, j = CODE_STEP[self.codes[vary]]
                        corner[j] += sign
                    ends.append(tuple(corner))
                out.append(frozenset(ends))
        return out

    def faces(self):
        """The 6 two-dimensional faces, each a frozenset of four corners."""
        out = []
        for fixed in range(3):
            rest = [c for k, c in enumerate(self.codes) if k != fixed]
            for level in (0, 1):
                quad = []
                for picks in itertools.product((0, 1), repeat=2):
                    corner = list(self.base)
                    if level:
                        sign, j = CODE_STEP[self.codes[fixed]]
                        corner[j] += sign
                    for t, code in zip(picks, rest):
                        if t:
                            sign, j = CODE_STEP[code]
                            corner[j] += sign
                    quad.append(tuple(corner))
                out.append(frozenset(quad))
        return out


def _valid_cube(base, codes, vertex_set):
    """All 8 corners in the unit 6-cube, each projecting onto a window vertex."""
    probe = Cube(-1, "probe", base, codes)
    for corner in probe.corners():
        if any(b not in (0, 1) for b in corner):
            return False
        if (corner_fpart(corner), corner_fperp(corner)) not in vertex_set:
            return False
    return True


@lru_cache(maxsize=1)
def enumerate_cubes():
    window = build_window()
    cubes = []

    def add(kind, base, codes):
        codes = tuple(codes)
        if not _valid_cube(base, codes, window.vertex_set):
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
            and _valid_cube(corner, codes, window.vertex_set)
        ]
        if len(found) != 1:
            raise AssertionError(f"triple {codes}: {len(found)} admissible bases")
        add("triangle", found[0], codes)

    if len(cubes) != 40:
        raise AssertionError(f"enumerated {len(cubes)} cubes")
    if len({frozenset(c.corners()) for c in cubes}) != 40:
        raise AssertionError("duplicate cube")
    return tuple(cubes)


def norm_sq(p: PlanePoint) -> QuadRat:
    """Squared length of u + v*x; the basis vectors meet at 30 degrees."""
    return p.u * p.u + p.v * p.v + SQRT3 * p.u * p.v


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _facet_corner_sets():
    """Boundary 3-faces of the projected 6-cube, derived from scratch.

    The window is the image of [0,1]^6 in the 4-dimensional internal space,
    i.e. the zonotope spanned by the six generator images (f-vector, plane
    shift).  A 3-face lies on the boundary exactly when its three spanning
    generators span a hyperplane and the remaining three generators are
    summed on one fixed side of it; the two sides give two opposite faces.
    Works entirely in exact coordinates; independent of the tabulated cube
    list, which it must reproduce."""
    gens = []
    for f, (d1, d2) in zip(F_VECS, DELTAS):
        gens.append((f.u, f.v, QuadRat(d1), QuadRat(d2)))

    def dot(n, w):
        total = QuadRat(0)
        for a, b in zip(n, w):
            total = total + a * b
        return total

    faces = set()
    for span in itertools.combinations(range(6), 3):
        normal = []
        for k in range(4):
            cols = [i for i in range(4) if i != k]
            minor = [[gens[j][i] for i in cols] for j in span]
            val = _det3(minor)
            normal.append(-val if k % 2 else val)
        if all(c.sign() == 0 for c in normal):
            raise AssertionError(f"generators {span} do not span a hyperplane")
        sides = {j: dot(normal, gens[j]).sign() for j in range(6) if j not in span}
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
        edges.update(cube.edges())
        faces.update(cube.faces())
        for corner in cube.corners():
            membership[corner] = membership.get(corner, 0) + 1

    valency = {}
    for edge in edges:
        for corner in edge:
            valency[corner] = valency.get(corner, 0) + 1

    vertex_corners = set(valency)
    window_ok = all(
        (corner_fpart(c), corner_fperp(c)) in window.vertex_set for c in vertex_corners
    )

    histogram = {}
    for val in valency.values():
        histogram[val] = histogram.get(val, 0) + 1

    cubes_by_valency = {}
    for corner, val in valency.items():
        cubes_by_valency.setdefault(val, set()).add(membership[corner])

    third = QuadRat(Fraction(1, 3))
    uniform = all(
        norm_sq(corner_fperp(a) - corner_fperp(b)) == third
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
        p = ORIGIN
        for n, f in zip(vec, F_VECS):
            p = p + pt_scale_mul(f, QuadRat(n))
        if not lattice_contains(p, TransLattice.ZX):
            contained = False
        coords.append([int(c) for c in delta0_coords(p)])
    factors = homalg.smith(coords).factors
    index = 1
    for f in factors:
        index *= f

    ring_basis = []
    for k in range(4):
        ring_basis.append([int(c) for c in delta0_coords(xpow(k))])
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


@dataclass(frozen=True)
class SlicedLine:
    direction: int  # 0..5
    anchor: PlanePoint  # perpendicular-reduced, lives in the base plane
    sources: tuple  # (cube ident, delta) pairs contributing a segment

    def sort_key(self):
        return (self.direction, _pt_key(self.anchor))


def canonical_anchor(direction: int, point: PlanePoint) -> PlanePoint:
    """Drop the component of the anchor along the line's own direction."""
    _, c_perp = decompose(point, direction, (direction + 3) % 6)
    return pt_scale_mul(xpow((direction + 3) % 6), c_perp)


def _in_open(value: QuadRat, upper: int) -> bool:
    return value.sign() > 0 and (QuadRat(upper) - value).sign() > 0


def _in_closed_unit(value: QuadRat) -> bool:
    return value.sign() >= 0 and (QuadRat(1) - value).sign() >= 0


def _pair_and_extra(codes):
    """Split a standard cube's codes into the same-parity pair (a, a+4 mod 12)
    and the remaining code."""
    by_parity = {0: [], 1: []}
    for c in codes:
        by_parity[c % 2].append(c)
    pair = by_parity[0] if len(by_parity[0]) == 2 else by_parity[1]
    extra = (by_parity[1] if len(by_parity[0]) == 2 else by_parity[0])[0]
    a, b = pair
    if (b - a) % 12 != 4:
        a, b = b, a
    if (b - a) % 12 != 4:
        raise AssertionError(f"codes {codes} lack an aligned pair")
    return a, b, extra


def _cut_standard(cube, delta, gamma):
    a, b, extra = _pair_and_extra(cube.codes)
    base_fp = corner_fpart(cube.base)
    axis_p, axis_r = code_axis(a), code_axis(extra)
    plane = (QuadRat(delta[0]) + gamma[0], QuadRat(delta[1]) + gamma[1])
    s1 = (plane[axis_p] - QuadRat(base_fp[axis_p])) * code_fsign(a)
    s2 = (plane[axis_r] - QuadRat(base_fp[axis_r])) * code_fsign(extra)
    if not (_in_open(s1, 2) and _in_closed_unit(s2)):
        return []
    anchor = (
        corner_fperp(cube.base)
        + pt_scale_mul(edge_vector(b), s1)
        + pt_scale_mul(edge_vector(extra), s2)
    )
    return [((a + 5) % 6, anchor)]


def _cut_long(cube, delta, gamma):
    axis = code_axis(cube.codes[0])
    fixed = 1 - axis
    base_fp = corner_fpart(cube.base)
    plane = (QuadRat(delta[0]) + gamma[0], QuadRat(delta[1]) + gamma[1])
    if (plane[fixed] - QuadRat(base_fp[fixed])).sign() != 0:
        return []
    s = (plane[axis] - QuadRat(base_fp[axis])) * code_fsign(cube.codes[0])
    if not _in_open(s, 3):
        return []
    out = []
    for m in cube.codes:
        others = [c for c in cube.codes if c != m]
        a, b = others
        if (b - a) % 12 != 4:
            a, b = b, a
        for alpha in (0, 1):
            r = s - alpha
            if _in_open(r, 2):
                anchor = (
                    corner_fperp(cube.base)
                    + pt_scale_mul(edge_vector(m), QuadRat(alpha))
                    + pt_scale_mul(edge_vector(b), r)
                )
                out.append(((a + 5) % 6, anchor))
    return out


def slice_detailed(gamma):
    """All singular lines cut from the cubes by the shifted plane family.

    gamma must already be reduced into [0,1)^2.  The plane translations act
    only on the plane index, never on the in-plane coordinates, so carrying
    every cut to the base plane keeps its anchor as computed; cuts from
    different planes landing on one line merge.  Returns (lines, incidences)
    where incidences is the set of (cube ident, delta) pairs with a
    nonempty cut.
    """
    cubes = enumerate_cubes()
    found = {}
    incidences = set()
    for cube in cubes:
        cut = _cut_long if cube.kind == "long" else _cut_standard
        for delta in itertools.product(range(-1, 3), repeat=2):
            segments = cut(cube, delta, gamma)
            if not segments:
                continue
            incidences.add((cube.ident, delta))
            for direction, anchor in segments:
                key = (direction, canonical_anchor(direction, anchor))
                found.setdefault(key, set()).add((cube.ident, delta))
    lines = [
        SlicedLine(direction, anchor, tuple(sorted(srcs)))
        for (direction, anchor), srcs in found.items()
    ]
    lines.sort(key=SlicedLine.sort_key)
    return lines, incidences


def cut_line_forms(gamma):
    """Closed form of the line each cut cube produces, one (direction, anchor)
    pair per cut family.

    For a standard cube the plane-height fractions attach to the signed pair
    and extra edge vectors, so up to translations by the base-plane lattice
    (and sliding along the direction) the cut line is a function of the code
    data alone.  The sign of each term follows the edge's own plane-shift
    step; the 12 standard cubes whose two steps disagree in sign contribute
    mixed-sign forms that a uniform-sign compilation would miss.  Long cubes
    only meet the planes when the transverse gamma component vanishes; their
    polygon sides then follow the paired edge vector of each facet.  Every
    line from slice_detailed() is base-lattice-equivalent to one of these forms and
    conversely, which is what the cross-check tests assert.
    """
    out = []
    for cube in enumerate_cubes():
        if cube.kind == "long":
            axis = code_axis(cube.codes[0])
            if gamma[1 - axis].sign() != 0:
                continue
            for m in cube.codes:
                a, b = [c for c in cube.codes if c != m]
                if (b - a) % 12 != 4:
                    a, b = b, a
                anchor = pt_scale_mul(edge_vector(b), gamma[axis])
                if code_fsign(b) < 0:
                    anchor = -anchor
                out.append(((a + 5) % 6, anchor))
        else:
            a, _, extra = _pair_and_extra(cube.codes)
            pair_term = pt_scale_mul(edge_vector(a), gamma[code_axis(a)])
            extra_term = pt_scale_mul(edge_vector(extra), gamma[code_axis(extra)])
            anchor = (pair_term if code_fsign(a) > 0 else -pair_term) + (
                extra_term if code_fsign(extra) > 0 else -extra_term
            )
            out.append(((a + 5) % 6, anchor))
    return out
