"""The window cut by cube kind: the oracle for window.slice_detailed.

Two cutters, chosen by `cube.kind`, cut the 40 boundary cubes of the window.
`cut_standard` splits a triangle or isolated cube into the same-parity pair
(a, a+4 mod 12), which steps along one plane axis, and the extra code on the
other axis.  `cut_long` cuts a long cube, whose three codes step along one
axis, at each of its three pairs and at both ends of the third code.
`reference_slice` merges their cuts as `slice_detailed` does.  The oracle
does its own arithmetic: heights, edge steps and canonical anchors are
computed here, one cut at a time, with every division checked.
`tests/test_window.py` requires `window.slice_detailed`, which reads one
rule off the plane steps of every cube instead, to return an equal slice.
"""

from tilecohom.cyclotomic import decode, decompose, modulus, qmul, qsign, scalar, xscale
from tilecohom.lineorbits import reduce_gamma
from tilecohom.window import (
    PLANE_STEP,
    WINDOW_MODULUS,
    SlicedLine,
    _TRANSLATES,
    corner_fpart,
    corner_fperp,
    edge_vector,
    enumerate_cubes,
)


def canonical_anchor(direction: int, t):
    """Drop the component of the int point t along the line's own direction."""
    perp = (direction + 3) % 6
    _, _, cp, cq = decompose(t, direction, perp)
    return xscale(perp, cp, cq)


def height(plane, delta, gamma, n, axis, sign):
    """Signed height sign * (plane translate - base plane) along one axis,
    over n, for a cube whose base corner lies on the plane `plane`."""
    p, q = gamma[axis]
    return sign * (p + (delta[axis] - plane[axis]) * n), sign * q


def exact_third(x: int) -> int:
    if x % WINDOW_MODULUS:
        raise ValueError(f"{x} is not divisible by {WINDOW_MODULUS}")
    return x // WINDOW_MODULUS


def along(code, s):
    """The point s * edge_vector(code), over the modulus n of s: the product
    is over 3n and divides back to n exactly."""
    a, b, c, d = edge_vector(code)
    return tuple(map(exact_third, (*qmul(a, b, *s), *qmul(c, d, *s))))


def base_point(cube, n):
    """The internal-plane image of the cube's base corner, over n."""
    return tuple(exact_third(c * n) for c in corner_fperp(cube.base))


def add(*points):
    return tuple(map(sum, zip(*points)))


def in_closed_unit(s, n: int) -> bool:
    """0 <= s <= 1 for the scalar s over n."""
    p, q = s
    return qsign(p, q) >= 0 and qsign(n - p, -q) >= 0


def in_open(s, upper: int, n: int) -> bool:
    """0 < s < upper for the scalar s over n."""
    p, q = s
    return qsign(p, q) > 0 and qsign(upper * n - p, -q) > 0


def aligned_pair(codes, extra):
    """The two codes other than extra, ordered as (a, a+4 mod 12)."""
    a, b = [c for c in codes if c != extra]
    if (b - a) % 12 != 4:
        a, b = b, a
    if (b - a) % 12 != 4:
        raise AssertionError(f"codes {codes} lack an aligned pair besides {extra}")
    return a, b


def pair_and_extra(codes):
    """Split a standard cube's codes into the same-parity pair (a, a+4 mod 12)
    and the remaining code, the one whose parity no other code shares."""
    parities = [c % 2 for c in codes]
    extra = next(c for c in codes if parities.count(c % 2) == 1)
    return (*aligned_pair(codes, extra), extra)


def cut_standard(cube, gamma, n):
    """(delta, direction, anchor) for each translate delta cutting a
    standard cube."""
    a, b, extra = pair_and_extra(cube.codes)
    plane, base = corner_fpart(cube.base), base_point(cube, n)
    for delta in _TRANSLATES:
        s1 = height(plane, delta, gamma, n, *PLANE_STEP[a])
        s2 = height(plane, delta, gamma, n, *PLANE_STEP[extra])
        if in_open(s1, 2, n) and in_closed_unit(s2, n):
            yield delta, (a + 5) % 6, add(base, along(b, s1), along(extra, s2))


def cut_long(cube, gamma, n):
    """(delta, direction, anchor) for each translate delta cutting a long
    cube: only a translate with zero height across the cube's axis does."""
    axis, sign = PLANE_STEP[cube.codes[0]]
    plane, base = corner_fpart(cube.base), base_point(cube, n)
    pairs = [(m, *aligned_pair(cube.codes, m)) for m in cube.codes]
    for delta in _TRANSLATES:
        if height(plane, delta, gamma, n, 1 - axis, 1) != (0, 0):
            continue
        s = height(plane, delta, gamma, n, axis, sign)
        if not in_open(s, 3, n):
            continue
        for m, a, b in pairs:
            for alpha in (0, 1):
                r = (s[0] - alpha * n, s[1])
                if in_open(r, 2, n):
                    anchor = add(base, along(m, (alpha * n, 0)), along(b, r))
                    yield delta, (a + 5) % 6, anchor


def reference_slice(gamma):
    """(lines, incidences) of the slice at gamma, cut by kind."""
    gamma = reduce_gamma(gamma).pair()
    n = modulus(*gamma)
    scaled = (scalar(gamma[0], n), scalar(gamma[1], n))
    found = {}
    incidences = set()
    for cube in enumerate_cubes():
        cut = cut_long if cube.kind == "long" else cut_standard
        for delta, direction, anchor in cut(cube, scaled, n):
            incidences.add((cube.ident, delta))
            key = (direction, canonical_anchor(direction, anchor))
            found.setdefault(key, set()).add((cube.ident, delta))
    lines = [
        SlicedLine(direction, decode(anchor, n), tuple(sorted(srcs)))
        for (direction, anchor), srcs in sorted(found.items())
    ]
    return lines, incidences
