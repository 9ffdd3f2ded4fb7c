"""Tests for the acceptance window: cell complex, boundary cubes, slicing."""

import random
from fractions import Fraction
from itertools import product

import pytest

from tilecohom.cyclotomic import (
    PlanePoint,
    decode,
    decompose,
    encode,
    modulus,
    pt_scale_mul,
    xpow,
)
from tilecohom.exactfield import INV_SQRT3, QuadRat
from tilecohom.lineorbits import (
    GammaParam,
    candidate_lines,
    orbit_key,
    orbit_partition,
    reduce_gamma,
)
from tilecohom.window import (
    CODE_STEP,
    DELTAS,
    EDGE_NORM_SQ,
    F_VECS,
    PLANE_STEP,
    WINDOW_MODULUS,
    Cube,
    _cuts,
    _heights,
    _splits,
    build_window,
    corner_fpart,
    corner_fperp,
    convex_hull,
    edge_vector,
    enumerate_cubes,
    norm_sq,
    slice_detailed,
    verify_counts,
)

from cut_oracle import aligned_pair, canonical_anchor, pair_and_extra, reference_slice
from line_helper import f_vector, lines_over
from test_pointorbits import STRESS_GAMMAS


ORIGIN = PlanePoint(QuadRat(0), QuadRat(0))


def fsum(*indices):
    acc = ORIGIN
    for i in indices:
        acc = acc + f_vector(i)
    return acc


def rnd_fraction(rnd):
    return Fraction(rnd.randrange(-40, 40), rnd.randrange(1, 24))


def rnd_gamma(rnd):
    raw = (
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
        QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
    )
    return reduce_gamma(raw)


def gamma_pair(g1, g2):
    return reduce_gamma((QuadRat(g1), QuadRat(g2))).pair()


def grid(n):
    """The shifts ((1/n)G)^2 mod G^2: every part in {0, 1/n, ..., (n-1)/n}."""
    return [
        (QuadRat(Fraction(a, n), Fraction(b, n)), QuadRat(Fraction(c, n), Fraction(d, n)))
        for a, b, c, d in product(range(n), repeat=4)
    ]


# ---------------------------------------------------------------- counts


def test_verify_counts_report():
    report = verify_counts()
    assert report["ok"] is True
    assert report["vertices"] == 52
    assert report["edges"] == 132
    assert report["faces"] == 120
    assert report["cubes"] == 40
    assert report["long_cubes"] == 4
    assert report["valency_histogram"] == {4: 12, 5: 24, 6: 16}
    assert report["cubes_per_vertex"] == {4: [4], 5: [6], 6: [8]}
    assert report["boundary_facets_independent"] is True


def quadrat_norm_sq(p: PlanePoint) -> QuadRat:
    """Squared length of u + v*x; the basis vectors meet at 30 degrees."""
    return p.u * p.u + p.v * p.v + QuadRat(0, 1) * p.u * p.v


def fperp(corner) -> PlanePoint:
    return decode(corner_fperp(corner), WINDOW_MODULUS)


def test_edge_lengths_uniform():
    third = QuadRat(Fraction(1, 3))
    assert EDGE_NORM_SQ == (3, 0)  # 1/3 over 3^2
    for cube in enumerate_cubes():
        for edge in cube.faces(1):
            a, b = edge
            assert quadrat_norm_sq(fperp(a) - fperp(b)) == third
            diff = tuple(x - y for x, y in zip(corner_fperp(a), corner_fperp(b)))
            assert norm_sq(diff) == EDGE_NORM_SQ


def test_code_chart_matches_generators():
    # The int tables are derived from x^k; each must agree with the QuadRat
    # generators f_i.  Edge code k names the signed generator step
    # CODE_STEP[k]: the perpendicular projection and the plane step
    # PLANE_STEP[k] must both follow that signature.
    assert [decode(f, WINDOW_MODULUS) for f in F_VECS] == [f_vector(i) for i in range(1, 7)]
    assert len(CODE_STEP) == len(PLANE_STEP) == 12
    for k, (sign, j) in enumerate(CODE_STEP):
        vec = f_vector(j + 1)
        if sign < 0:
            vec = pt_scale_mul(vec, QuadRat(-1))
        assert decode(edge_vector(k), WINDOW_MODULUS) == vec
        step = (sign * DELTAS[j][0], sign * DELTAS[j][1])
        axis, step_sign = PLANE_STEP[k]
        assert step[1 - axis] == 0
        assert step[axis] == step_sign
        # even codes step along the first axis; codes 0, 1 mod 4 forward
        assert PLANE_STEP[k] == (k % 2, 1 if k % 4 < 2 else -1)
        assert CODE_STEP[(k + 6) % 12] == (-sign, j)


def test_cube_faces_by_dimension():
    for cube in enumerate_cubes():
        corners = cube.corners()
        assert len(set(corners)) == 8
        assert cube.faces(0) == [frozenset([c]) for c in corners]
        assert cube.faces(3) == [frozenset(corners)]
        for dim, count in ((1, 12), (2, 6)):
            faces = cube.faces(dim)
            assert len(set(faces)) == count
            assert all(len(f) == 2 ** dim for f in faces)
        # each corner lies on 3 edges and 3 squares
        for corner in corners:
            assert sum(corner in e for e in cube.faces(1)) == 3
            assert sum(corner in f for f in cube.faces(2)) == 3
        # an edge joins corners one generator step apart
        for a, b in cube.faces(1):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1


# ---------------------------------------------------------------- cells


def test_cell_census():
    win = build_window()
    assert len(win.cells) == 16
    kinds = {fp: cell.kind for fp, cell in win.cells.items()}
    assert {fp for fp, k in kinds.items() if k == "point"} == {
        (-1, -1), (-1, 2), (2, -1), (2, 2)}
    assert {fp for fp, k in kinds.items() if k == "hexagon"} == {
        (0, 0), (0, 1), (1, 0), (1, 1)}
    assert sum(1 for k in kinds.values() if k == "triangle") == 8
    assert len(win.points) == 52


def test_corner_point_cell():
    win = build_window()
    cell = win.cells[(-1, -1)]
    assert cell.kind == "point"
    assert cell.hull == (encode(fsum(3, 4), WINDOW_MODULUS),)


def test_hexagon_hull_cycle():
    win = build_window()
    hull = win.cells[(0, 0)].hull
    expected = tuple(encode(p, WINDOW_MODULUS) for p in (
        fsum(2, 4),
        fsum(4, 6),
        fsum(1, 3, 4, 6),
        fsum(1, 3),
        fsum(5, 3),
        fsum(2, 3, 4, 5),
    ))
    assert len(hull) == 6
    assert set(hull) == set(expected)
    # Same cyclic order up to rotation and reflection.
    start = hull.index(expected[0])
    rotated = hull[start:] + hull[:start]
    assert rotated == expected or rotated == (expected[0],) + expected[:0:-1]


def test_hull_recovery_from_shuffled_corners():
    rnd = random.Random(7)
    win = build_window()
    for cell in win.cells.values():
        pts = list(cell.hull)
        for _ in range(4):
            rnd.shuffle(pts)
            hull = convex_hull(pts)
            assert set(hull) == set(cell.hull)
            assert len(hull) == len(cell.hull)


# ---------------------------------------------------------------- cubes


def test_cube_family_breakdown():
    cubes = enumerate_cubes()
    assert len(cubes) == 40
    longs = [c for c in cubes if c.kind == "long"]
    standard = [c for c in cubes if c.kind == "isolated"]
    triangles = [c for c in cubes if c.kind == "triangle"]
    assert len(longs) == 4
    assert len(standard) == 24
    assert len(triangles) == 12
    # Two long cubes step vertically, two horizontally.
    assert sorted(c.codes for c in longs) == [(0, 4, 8), (0, 4, 8), (1, 5, 9), (1, 5, 9)]


def test_long_cube_bases_and_span():
    longs = [c for c in enumerate_cubes() if c.kind == "long"]
    vertical = {c.base for c in longs if c.codes == (1, 5, 9)}
    horizontal = {c.base for c in longs if c.codes == (0, 4, 8)}
    assert vertical == {(0, 0, 1, 1, 0, 0), (1, 0, 0, 1, 1, 0)}
    assert horizontal == {(0, 0, 1, 1, 0, 0), (0, 1, 1, 0, 0, 1)}
    # A vertical long cube spans the full left column of plane heights.
    tall = next(c for c in longs if c.codes == (1, 5, 9) and c.base == (0, 0, 1, 1, 0, 0))
    fparts = {corner_fpart(corner) for corner in tall.corners()}
    assert fparts == {(-1, j) for j in (-1, 0, 1, 2)}


def test_triangle_cube_bases_pinned():
    cubes = {c.codes: c for c in enumerate_cubes() if c.kind == "triangle"}
    assert cubes[(4, 8, 9)].base == (0, 1, 1, 1, 0, 0)
    assert cubes[(2, 3, 10)].base == (1, 0, 0, 0, 1, 1)


def test_standard_cubes_code_patterns():
    standard = [c for c in enumerate_cubes() if c.kind == "isolated"]
    # Patterns {i, i+1, i+4} and {i, i+3, i+4} modulo 12, twelve cubes each.
    plus1 = [c for c in standard
             if any(set(c.codes) == {i, (i + 1) % 12, (i + 4) % 12} for i in range(12))]
    plus3 = [c for c in standard
             if any(set(c.codes) == {i, (i + 3) % 12, (i + 4) % 12} for i in range(12))]
    assert len(plus1) == 12
    assert len(plus3) == 12
    base_counts = {}
    for c in standard:
        base_counts[c.base] = base_counts.get(c.base, 0) + 1
    assert set(base_counts.values()) == {6}
    assert len(base_counts) == 4


def test_mixed_sign_cube_census():
    # Twelve standard cubes mix a forward and a backward F-step; they all
    # sit at the two corner vertices whose coordinates alternate.
    standard = [c for c in enumerate_cubes() if c.kind == "isolated"]
    mixed = [c for c in standard if len({PLANE_STEP[k][1] for k in c.codes}) > 1]
    assert len(mixed) == 12
    assert {c.base for c in mixed} == {(0, 1, 1, 0, 0, 1), (1, 0, 0, 1, 1, 0)}


# ---------------------------------------------------------------- slicing


def test_generic_slice_counts():
    gamma = gamma_pair(Fraction(1, 5), Fraction(1, 7))
    lines, incidences = slice_detailed(gamma)
    assert len(lines) == 72
    assert len(incidences) == 72
    planes = {delta for _, delta in incidences}
    assert len(planes) == 9
    long_ids = {c.ident for c in enumerate_cubes() if c.kind == "long"}
    assert not long_ids & {ident for ident, _ in incidences}
    for _, delta in incidences:
        assert delta[0] in (-1, 0, 1, 2) and delta[1] in (-1, 0, 1, 2)


def test_axis_gamma_slices_vertical_long_cubes():
    gamma = gamma_pair(0, Fraction(1, 5))
    lines, incidences = slice_detailed(gamma)
    assert len({delta for _, delta in incidences}) == 12
    cubes = {c.ident: c for c in enumerate_cubes()}
    sliced_longs = {ident for ident, _ in incidences if cubes[ident].kind == "long"}
    assert {cubes[i].codes for i in sliced_longs} == {(1, 5, 9)}
    assert len(sliced_longs) == 2


def test_no_long_cube_at_generic_gamma():
    rnd = random.Random(3)
    cubes = {c.ident: c for c in enumerate_cubes()}
    for _ in range(5):
        gamma = rnd_gamma(rnd)
        if gamma.g1.sign() == 0 or gamma.g2.sign() == 0:
            continue
        _, incidences = slice_detailed(gamma.pair())
        assert all(cubes[ident].kind != "long" for ident, _ in incidences)


def test_axis_gamma_odd_direction_orbits():
    # With the first component zero, each odd direction shows six raw cut
    # lines that fall into three translation orbits: the zero line and a
    # symmetric pair offset by the second component.
    g2 = QuadRat(Fraction(1, 5))
    gamma = gamma_pair(0, Fraction(1, 5))
    lines, _ = slice_detailed(gamma)
    coeff = g2 * QuadRat(0, Fraction(1, 3))  # g2 / sqrt(3)
    for d in (1, 3, 5):
        raw = [l for l in lines if l.direction == d]
        assert len(raw) == 6
        sung = lines_over([(l.direction, l.anchor) for l in raw] + [
            (d, ORIGIN),
            (d, pt_scale_mul(xpow(d + 4), coeff)),
            (d, pt_scale_mul(xpow(d + 4), -coeff)),
        ])
        sung, targets = sung[:6], sung[6:]
        orbits = orbit_partition(sung).orbits
        assert len(orbits) == 3
        keys = [orbit_key(o.representative) for o in orbits]
        for t in targets:
            assert keys.count(orbit_key(t)) == 1


def test_zero_gamma_slice():
    lines, incidences = slice_detailed(gamma_pair(0, 0))
    assert len(lines) == 24
    assert len(incidences) == 80
    counts = {}
    for l in lines:
        counts[l.direction] = counts.get(l.direction, 0) + 1
    assert counts == {d: 4 for d in range(6)}
    for l in lines:
        line, origin = lines_over([(l.direction, l.anchor), (l.direction, ORIGIN)])
        assert orbit_key(line) == orbit_key(origin)


def test_canonical_anchor_kills_direction_component():
    rnd = random.Random(11)
    for _ in range(40):
        d = rnd.randrange(6)
        pt = PlanePoint(
            QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
            QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)),
        )
        shift = pt + pt_scale_mul(xpow(d), QuadRat(rnd_fraction(rnd), rnd_fraction(rnd)))
        n = modulus(pt.u, pt.v, shift.u, shift.v)
        anchor = canonical_anchor(d, encode(pt, n))
        along_p, along_q, _, _ = decompose(anchor, d, (d + 3) % 6)
        assert (along_p, along_q) == (0, 0)
        assert canonical_anchor(d, encode(shift, n)) == anchor
        # the dropped part is parallel to x^d: the anchor moves along the line
        moved = pt - decode(anchor, n)
        assert moved.u * xpow(d).v - moved.v * xpow(d).u == QuadRat(0)


def _orbit_equivalent_linesets(lines_a, lines_b):
    """Every line of either set lies in the orbit of a same-direction line
    of the other: both sets meet the same orbit keys."""
    return {orbit_key(a) for a in lines_a} == {orbit_key(b) for b in lines_b}


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
    line from slice_detailed() is base-lattice-equivalent to one of these
    forms and conversely, which is what the cross-check test asserts.
    """
    def edge(code):
        return pt_scale_mul(xpow(code), INV_SQRT3)

    out = []
    for cube in enumerate_cubes():
        if cube.kind == "long":
            axis = PLANE_STEP[cube.codes[0]][0]
            if gamma[1 - axis].sign() != 0:
                continue
            for m in cube.codes:
                a, b = aligned_pair(cube.codes, m)
                anchor = pt_scale_mul(edge(b), gamma[axis])
                if PLANE_STEP[b][1] < 0:
                    anchor = -anchor
                out.append(((a + 5) % 6, anchor))
        else:
            a, _, extra = pair_and_extra(cube.codes)
            (a_axis, a_sign), (extra_axis, extra_sign) = PLANE_STEP[a], PLANE_STEP[extra]
            pair_term = pt_scale_mul(edge(a), gamma[a_axis])
            extra_term = pt_scale_mul(edge(extra), gamma[extra_axis])
            anchor = (pair_term if a_sign > 0 else -pair_term) + (
                extra_term if extra_sign > 0 else -extra_term
            )
            out.append(((a + 5) % 6, anchor))
    return out


def test_slice_matches_per_cube_closed_forms():
    # The sliced arrangement must agree, orbit for orbit, with the closed
    # forms read off each boundary cube's own edge signs.
    rnd = random.Random(12)
    samples = [
        (QuadRat(Fraction(1, 7), Fraction(1, 11)), QuadRat(Fraction(1, 13), Fraction(1, 17))),
        (QuadRat(0), QuadRat(0)),
        (QuadRat(0), QuadRat(Fraction(1, 2))),
        (QuadRat(0, Fraction(1, 3)), QuadRat(0)),
        (QuadRat(0, Fraction(1, 3)), QuadRat(0, Fraction(1, 3))),
        (QuadRat(0, Fraction(1, 3)), QuadRat(Fraction(1, 3))),
        (QuadRat(0), QuadRat(0, Fraction(1, 6))),
        (QuadRat(Fraction(1, 2)), QuadRat(0, Fraction(1, 2))),
        (QuadRat(Fraction(1, 2)), QuadRat(Fraction(1, 2), Fraction(1, 2))),
    ]
    for _ in range(50):
        g = rnd_gamma(rnd)
        samples.append((g.g1, g.g2))
    for raw in samples:
        gamma = reduce_gamma(raw).pair()
        sliced = [(l.direction, l.anchor) for l in slice_detailed(gamma)[0]]
        lines = lines_over(sliced + cut_line_forms(gamma))
        sliced, forms = lines[:len(sliced)], lines[len(sliced):]
        assert _orbit_equivalent_linesets(sliced, forms), gamma


def huge(rnd, digits):
    """A rational whose denominator has about `digits` digits."""
    return Fraction(rnd.randrange(-10**digits, 10**digits), rnd.randrange(1, 10**digits))


def test_slice_matches_the_cut_by_kind():
    # One cutter reads its rule off the plane steps of every cube, from a
    # height table and a cut map per split; the oracle picks one of two
    # cutters by cube kind and cuts one translate at a time.  Lines, decoded
    # anchors, sources and incidences must agree on the N = 2 and N = 3
    # grids, where the long cubes are cut and the open and closed bounds
    # decide, on every 9th point of the N = 6 grid, at seeded random shifts
    # and at shifts whose parts have 10^30 and 10^200 denominators.
    rnd = random.Random(16)
    samples = grid(2) + grid(3) + grid(6)[::9] + [rnd_gamma(rnd).pair() for _ in range(50)]
    for digits in (30, 200):
        samples += [(QuadRat(huge(rnd, digits), huge(rnd, digits)),
                     QuadRat(huge(rnd, digits), huge(rnd, digits))) for _ in range(5)]
    for gamma in samples:
        assert slice_detailed(gamma) == reference_slice(gamma), gamma


def test_every_cube_splits_and_a_cube_without_a_split_is_refused():
    for cube in enumerate_cubes():
        assert len(_splits(cube.codes)) == (3 if cube.kind == "long" else 1)
    # codes 0 and 2 step opposite ways along one axis, 1 along the other:
    # no two codes step alike, so the cutter has no rule for this cube
    probe = Cube(-1, "probe", (0,) * 6, (0, 1, 2))
    with pytest.raises(AssertionError, match="no pair"):
        list(_cuts(probe, _heights(((0, 0), (0, 0)), 6)))


def test_a_cut_over_a_modulus_not_divisible_by_6_is_refused():
    # A slice works over 6*D, where every height is a multiple of 6 and each
    # cut map divides exactly: gamma = (1/2, 1/2) is sliced over 12.  Over 2
    # a cut of the same cube is off the lattice, and the cutter refuses it
    # rather than round its anchor.
    cube = next(c for c in enumerate_cubes() if list(_cuts(c, _heights(((6, 0), (6, 0)), 12))))
    with pytest.raises(ValueError, match="off the lattice"):
        list(_cuts(cube, _heights(((1, 0), (1, 0)), 2)))


def window_lines(gamma):
    """(direction, anchor) of every line sliced at gamma or at -gamma that
    has at least one source cube whose codes do not mix plane-step signs."""
    mixed = {c.ident for c in enumerate_cubes()
             if c.kind == "isolated" and len({PLANE_STEP[k][1] for k in c.codes}) > 1}
    out = []
    for g in (gamma, (-gamma[0], -gamma[1])):
        for line in slice_detailed(g)[0]:
            if any(ident not in mixed for ident, _ in line.sources):
                out.append((line.direction, line.anchor))
    return out


def test_window_lines_at_plus_and_minus_gamma_are_the_candidate_orbits():
    # An empirical identity, not a theorem: no argument for it is known.
    # The non-mixed cuts at gamma and at -gamma fall into exactly the orbits
    # of candidate_lines.  Equal orbit counts for the candidates, the window
    # lines and their union mean every orbit holds lines of both.
    rnd = random.Random(1616)

    def big():
        return Fraction(rnd.randrange(-10**6, 10**6), rnd.randrange(1, 10**6))

    samples = grid(2) + grid(3) + STRESS_GAMMAS + [
        (QuadRat(big(), big()), QuadRat(big(), big())) for _ in range(100)] + grid(6)[::9]
    for raw in samples:
        gamma = reduce_gamma(raw)
        cands = [(c.direction, c.anchor) for c in candidate_lines(gamma)]
        lines = lines_over(cands + window_lines(gamma.pair()))
        cand_lines, win_lines = lines[:len(cands)], lines[len(cands):]
        count = orbit_partition(cand_lines).L1
        assert orbit_partition(win_lines).L1 == count, raw
        assert orbit_partition(lines).L1 == count, raw


def test_slice_at_minus_gamma_is_the_slice_at_gamma_negated():
    # The window's central symmetry (see the window module): the orbit keys
    # of the slice at -gamma are those at gamma negated, for the whole slice
    # and for the lines with a source cube that does not mix plane-step signs.
    mixed = {c.ident for c in enumerate_cubes()
             if c.kind == "isolated" and len({PLANE_STEP[k][1] for k in c.codes}) > 1}
    rnd = random.Random(1717)

    def big():
        return Fraction(rnd.randrange(-10**6, 10**6), rnd.randrange(1, 10**6))

    samples = grid(2) + grid(3) + [(QuadRat(big(), big()), QuadRat(big(), big()))
                                   for _ in range(20)]
    for g1, g2 in samples:
        plus, minus = slice_detailed((g1, g2))[0], slice_detailed((-g1, -g2))[0]
        lines = lines_over([(l.direction, l.anchor) for l in plus + minus])
        n = lines[0].modulus
        for kept in (lambda l: True, lambda l: any(c not in mixed for c, _ in l.sources)):
            keys_plus = {orbit_key(m) for m, l in zip(lines, plus) if kept(l)}
            keys_minus = {orbit_key(m) for m, l in zip(lines[len(plus):], minus) if kept(l)}
            assert keys_plus, (g1, g2)
            assert keys_minus == {(i, -p % n, -q % n) for i, p, q in keys_plus}, (g1, g2)


def test_generic_orbit_count_vs_candidate_list():
    # The mixed-sign cubes collapse onto a shared third orbit per direction,
    # so a generic parameter yields 18 slice orbits while the uniform-sign
    # candidate list enumerates 24; the extra candidates are not realised.
    gamma = reduce_gamma(
        (QuadRat(Fraction(1, 7), Fraction(1, 11)), QuadRat(Fraction(1, 13), Fraction(1, 17))))
    lines, incidences = slice_detailed(gamma.pair())
    cands = candidate_lines(gamma)
    sung = lines_over([(l.direction, l.anchor) for l in lines], n=cands[0].modulus)
    slice_orbits = orbit_partition(sung)
    assert len(slice_orbits.orbits) == 18
    cand_orbits = orbit_partition(list(cands))
    assert len(cand_orbits.orbits) == 24
    cand_keys = {orbit_key(c) for c in cands}

    cubes = {c.ident: c for c in enumerate_cubes()}
    mixed_ids = {
        c.ident for c in cubes.values()
        if c.kind == "isolated" and len({PLANE_STEP[k][1] for k in c.codes}) > 1}
    line_sources = {(l.direction, l.anchor): l.sources for l in lines}
    for orbit in slice_orbits.orbits:
        matched = orbit_key(orbit.representative) in cand_keys
        sources = set()
        for member in orbit.members:
            sources |= {ident for ident, _ in line_sources[(member.direction, member.anchor)]}
        if matched:
            assert sources - mixed_ids, orbit.representative
        else:
            # Orbits outside the candidate list come only from mixed cubes.
            assert sources <= mixed_ids, orbit.representative


def test_slice_reduces_gamma_first():
    # gamma and gamma + (m, n) are one plane family, so they give one slice;
    # sliced unreduced, (11/5, 1/7) would give 21 of the 72 lines.
    for base in ((QuadRat(Fraction(1, 5)), QuadRat(Fraction(1, 7))),
                 (QuadRat(0), QuadRat(Fraction(1, 5))),
                 (QuadRat(Fraction(1, 7), Fraction(1, 11)),
                  QuadRat(Fraction(1, 13), Fraction(1, 17)))):
        expected = slice_detailed(base)
        for m, k in ((1, 0), (2, 0), (0, -1), (-3, 2)):
            assert slice_detailed((base[0] + QuadRat(m), base[1] + QuadRat(k))) == expected
    assert len(slice_detailed((QuadRat(Fraction(11, 5)), QuadRat(Fraction(1, 7))))[0]) == 72


def test_slice_runtime_budget():
    import time

    gamma = gamma_pair(Fraction(1, 5), Fraction(1, 7))
    start = time.monotonic()
    verify_counts()
    slice_detailed(gamma)
    assert time.monotonic() - start < 5.0
